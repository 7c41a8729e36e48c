import contextlib
import dataclasses
import io
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fdrelay.cli import (
    CSV_HEADER,
    MAX_SWEEP_POINTS,
    SWEEP_PARAMETERS,
    ResultRow,
    Scenario,
    Sweep,
    apply_sweep_value,
    build_parser,
    emit,
    load_scenario,
    main,
    _parse_sweep_flag,
)
from fdrelay import quadrature, specfun
from fdrelay.errors import ScenarioError
from fdrelay.mcsim import simulate_grid, simulate_outage
from fdrelay.outage import outage_af, outage_df, outage_high_snr
from fdrelay.presets import preset_config

GOOD_CONFIG = {
    "source_power": 1.0,
    "hop1_distance": 5.0, "hop2_distance": 5.0,
    "hop1_pathloss": 2.0, "hop2_pathloss": 2.0,
    "hop1_fading": {"alpha": 2.0, "mu": 1.0, "r_hat": 1.0},
    "hop2_fading": {"alpha": 2.0, "mu": 1.0, "r_hat": 1.0},
    "lbi_fading": {"alpha": 2.0, "mu": 1.0, "r_hat": 1.0},
    "noise_antenna_var": 5e-5, "noise_conversion_var": 5e-5,
    "noise_dest_var": 1e-4,
    "eh_efficiency": 1.0, "eh_time_fraction": 0.5,
    "target_rate": 1.0,
}


def rows_from_csv(text: str):
    """Parse emitted CSV back into ResultRow objects."""
    lines = [ln for ln in text.splitlines() if ln]
    assert lines and lines[0] == CSV_HEADER
    out = []
    for ln in lines[1:]:
        f = ln.split(",")
        out.append(ResultRow(
            scenario_id=f[0], sweep_value=float(f[1]), mode=f[2], method=f[3],
            outage=float(f[4]), err=float(f[5]), n_samples=int(f[6]),
            seed=int(f[7]), runtime_ms=int(f[8])))
    return out


def rows_from_json(text: str):
    return [ResultRow(**obj) for obj in json.loads(text)]


# ----------------------------------------------------------------------
# presets

def test_preset_families():
    r = preset_config("rayleigh")
    assert (r.hop1_fading.alpha, r.hop1_fading.mu) == (2.0, 1.0)
    w = preset_config("weibull")
    assert (w.hop1_fading.alpha, w.hop1_fading.mu) == (3.0, 1.0)
    n = preset_config("nakagami")
    assert (n.hop1_fading.alpha, n.hop1_fading.mu) == (2.0, 2.0)
    for cfg in (r, w, n):
        assert cfg.hop1_distance == cfg.hop2_distance == 5.0
        assert cfg.hop1_pathloss == cfg.hop2_pathloss == 2.0
        assert cfg.noise_antenna_var + cfg.noise_conversion_var == pytest.approx(1e-4)
        assert cfg.noise_dest_var == pytest.approx(1e-4)
        assert cfg.noise_antenna_var == cfg.noise_conversion_var
        assert cfg.eh_efficiency == 1.0
        assert cfg.eh_time_fraction == 0.5
    with pytest.raises(ScenarioError):
        preset_config("rice")


# ----------------------------------------------------------------------
# scenario files

def test_load_scenario_roundtrip(tmp_path):
    path = tmp_path / "rayleigh.json"
    path.write_text(json.dumps({"id": "ray", "config": GOOD_CONFIG}))
    sc = load_scenario(str(path))
    assert sc.id == "ray"
    assert sc.config == preset_config("rayleigh")
    assert sc.sweep is None


def test_load_scenario_missing_eta_defaults_with_warning(tmp_path, capsys):
    cfg = {k: v for k, v in GOOD_CONFIG.items() if k != "eh_time_fraction"}
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"id": "s", "config": cfg}))
    sc = load_scenario(str(path))
    assert sc.config.eh_time_fraction == 0.5
    assert "eh_time_fraction" in capsys.readouterr().err


def test_load_scenario_strictness(tmp_path):
    bad = dict(GOOD_CONFIG)
    bad["unexpected_key"] = 1.0
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"id": "s", "config": bad}))
    with pytest.raises(ScenarioError, match="unexpected_key"):
        load_scenario(str(path))

    low_mu = json.loads(json.dumps(GOOD_CONFIG))
    low_mu["hop1_fading"]["mu"] = 0.3
    path.write_text(json.dumps({"id": "s", "config": low_mu}))
    with pytest.raises(ScenarioError, match="mu"):
        load_scenario(str(path))

    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="line 1"):
        load_scenario(str(path))

    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(str(tmp_path / "missing.json"))


def test_load_scenario_with_sweep(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "id": "s", "config": GOOD_CONFIG,
        "sweep": {"parameter": "target_rate", "start": 0.5, "stop": 6.0, "step": 0.5}}))
    sc = load_scenario(str(path))
    assert len(sc.sweep.values()) == 12
    path.write_text(json.dumps({
        "id": "s", "config": GOOD_CONFIG,
        "sweep": {"parameter": "bandwidth", "start": 1, "stop": 2, "step": 1}}))
    with pytest.raises(ScenarioError, match="bandwidth"):
        load_scenario(str(path))


# ----------------------------------------------------------------------
# sweeps

def test_sweep_grammar():
    sw = _parse_sweep_flag("0.5:6:0.5", "target_rate")
    vals = sw.values()
    assert len(vals) == 12
    assert vals[0] == pytest.approx(0.5)
    assert vals[-1] == pytest.approx(6.0)
    assert vals == [0.5 * (i + 1) for i in range(12)]   # bit-identical grid
    tenths = _parse_sweep_flag("0.1:1:0.1", "target_rate").values()
    assert len(tenths) == 10
    assert all(v == 0.1 + i * 0.1 for i, v in enumerate(tenths))
    assert tenths[-1] == 1.0
    assert _parse_sweep_flag("10:10:1", "source_power").values() == [10.0]
    with pytest.raises(ScenarioError):
        _parse_sweep_flag("1:2", "target_rate")
    with pytest.raises(ScenarioError):
        _parse_sweep_flag("a:b:c", "target_rate")
    with pytest.raises(ScenarioError):
        Sweep("target_rate", 2.0, 1.0, 0.5).values()
    # a sweep is checked where it is built, and NaN fails the range test
    for bad in ((math.nan, 2.0, 1.0), (1.0, math.nan, 1.0), (1.0, 2.0, math.nan)):
        with pytest.raises(ScenarioError, match="step > 0 and stop >= start"):
            Sweep("target_rate", *bad)


def test_sweep_over_the_point_cap_is_rejected(tmp_path):
    # a step far below the span makes a grid past the cap, which the sweep
    # rejects where it is built; a step below the spacing of doubles at the
    # endpoints, or an inf start, repeats a point first, and is rejected so
    for raw in ("0.5:6:1e-9", "0:10000:1"):
        with pytest.raises(ScenarioError, match=f"more than {MAX_SWEEP_POINTS} points"):
            _parse_sweep_flag(raw, "target_rate")
    for raw, point in (("1e20:1e20:1e-9", "1e[+]20$"), ("-inf:0:1", "-inf$")):
        with pytest.raises(ScenarioError, match="repeats the grid point " + point):
            _parse_sweep_flag(raw, "target_rate")
    assert len(_parse_sweep_flag("1:10000:1", "source_power").values()) == MAX_SWEEP_POINTS
    # rounding puts this grid's last point within half a step of stop: it has
    # exactly the cap's points, and the cap counts the grid itself
    at_cap = Sweep("target_rate", 633424.9161482418, 633424.9186031566, 2.455037533205171e-07)
    assert len(at_cap.values()) == MAX_SWEEP_POINTS
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"id": "s", "config": GOOD_CONFIG, "sweep": {
        "parameter": "target_rate", "start": 0.0, "stop": 1.0, "step": 1e-4}}))
    with pytest.raises(ScenarioError, match=f"more than {MAX_SWEEP_POINTS} points"):
        load_scenario(str(path))


def test_sweep_that_never_passes_its_stop_is_rejected(tmp_path, capsys):
    # start + i*step never passes stop + step/2 where the step is inf, or
    # where stop + step/2 overflows (1.5e308 + 5e307), and then takes stop
    # twice: both sweeps are rejected where they are built, and the CLI
    # exits 2 at once
    with pytest.raises(ScenarioError, match="step > 0 and stop >= start"):
        Sweep("target_rate", 1.0, 2.0, math.inf)
    with pytest.raises(ScenarioError, match="step 1e[+]308 repeats the grid point 1.5e[+]308$"):
        Sweep("source_power", 1.0, 1.5e308, 1e308)
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"id": "s", "config": GOOD_CONFIG, "sweep": {
        "parameter": "source_power", "start": 1.0, "stop": 1.5e308, "step": 1e308}}))
    with pytest.raises(ScenarioError, match="step 1e[+]308 repeats the grid point 1.5e[+]308$"):
        load_scenario(str(path))
    code = main(["--preset", "rayleigh", "--method", "analytic", "--rate-sweep", "1:2:inf"])
    _assert_config_error(code, capsys, "step > 0")


@pytest.mark.parametrize("raw, step, point", [
    # 1e20 + i * 5461.33 rounds to 1e20 twice, then to 1e20 + 2^14 three times
    ("1e20:1.0000000000000002e20:5461.333333333333", "5461.333333333333", "1e+20"),
    # start = stop and a step below half the spacing of doubles there: the
    # grid was 5,289 copies of start
    ("1.8812200609747742e-166:1.8812200609747742e-166:2.8479420244402443e-186",
     "2.8479420244402443e-186", "1.8812200609747742e-166"),
])
def test_sweep_that_repeats_a_point_exits_2(raw, step, point, capsys):
    # a step below the spacing of doubles computed the same row more than
    # once; such a grid is a configuration error, named by its step
    message = f"sweep step {step} repeats the grid point {point}"
    with pytest.raises(ScenarioError, match=re.escape(message) + "$"):
        _parse_sweep_flag(raw, "source_power")
    code = main(["--preset", "rayleigh", "--method", "high-snr", "--mode", "df",
                 "--power-sweep", raw])
    _assert_config_error(code, capsys, message)


def test_sweep_points_strictly_increase_on_a_plain_grid(capsys):
    # the same 12 rates, one row each, from the flag through the CLI
    assert _parse_sweep_flag("0.5:6:0.5", "target_rate").values() == [
        0.5 * (i + 1) for i in range(12)]
    assert main(["--preset", "rayleigh", "--method", "high-snr", "--mode", "df",
                 "--rate-sweep", "0.5:6:0.5"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == [0.5 * (i + 1) for i in range(12)]


def test_one_parser_serves_every_main_call(capsys):
    # the parser is built once per process: a rejected flag between two
    # runs leaves nothing behind, so a run repeated after them prints the
    # same bytes
    run_a = ["--preset", "nakagami", "--method", "analytic", "--mode", "af", "--rate", "2"]
    run_b = ["--preset", "weibull", "--method", "high-snr", "--rate-sweep", "1:3:1",
             "--format", "json", "--seed", "7"]
    assert main(run_a) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["--preset", "rayleigh", "--no-such-flag"])
    assert exc.value.code == 2
    assert main(run_b) == 0
    assert capsys.readouterr().out.startswith("[")
    assert main(run_a) == 0
    again = capsys.readouterr().out
    assert again == first and first.startswith(CSV_HEADER)
    assert build_parser() is build_parser()


def test_apply_sweep_value_touches_all_branches():
    cfg = preset_config("rayleigh")
    swept = apply_sweep_value(cfg, "alpha", 3.5)
    assert swept.hop1_fading.alpha == 3.5
    assert swept.hop2_fading.alpha == 3.5
    assert swept.lbi_fading.alpha == 3.5
    swept = apply_sweep_value(cfg, "mu", 2.0)
    assert swept.lbi_fading.mu == 2.0
    swept = apply_sweep_value(cfg, "source_power", 10.0)
    assert swept.source_power == 10.0
    with pytest.raises(ScenarioError):
        apply_sweep_value(cfg, "bandwidth", 1.0)


# ----------------------------------------------------------------------
# emission

ROW = ResultRow(scenario_id="ray", sweep_value=1.0, mode="df", method="analytic",
                outage=0.8129524963713193, err=1e-12, n_samples=0, seed=42,
                runtime_ms=0)


def test_emit_csv_header_and_shape(tmp_path):
    out = tmp_path / "r.csv"
    emit([ROW], "csv", str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    assert lines[0] == ("scenario_id,sweep_value,mode,method,outage,err,"
                        "n_samples,seed,runtime_ms")
    # 17 significant digits survive the round trip
    assert f"{ROW.outage:.17g}" in lines[1]
    assert float(lines[1].split(",")[4]) == ROW.outage


def test_emit_roundtrip(tmp_path):
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    emit([ROW], "csv", str(csv_path))
    emit([ROW], "json", str(json_path))
    assert rows_from_csv(csv_path.read_text()) == [ROW]
    assert rows_from_json(json_path.read_text()) == [ROW]
    with pytest.raises(ScenarioError):
        emit([], "csv", str(csv_path))


# ----------------------------------------------------------------------
# end-to-end runs

def run_cli(args, tmp_path):
    out = tmp_path / "out.csv"
    code = main(args + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_main_analytic_rate_sweep(tmp_path):
    code, text = run_cli(
        ["--preset", "rayleigh", "--mode", "df", "--method", "analytic",
         "--rate-sweep", "0.5:6:0.5"], tmp_path)
    assert code == 0
    rows = rows_from_csv(text)
    assert len(rows) == 12
    assert all(r.mode == "df" and r.method == "analytic" for r in rows)
    values = [r.outage for r in rows]
    assert values == sorted(values)  # outage grows with the rate


def test_main_both_methods_row_count(tmp_path):
    code, text = run_cli(
        ["--preset", "rayleigh", "--mode", "df", "--method", "both",
         "--rate-sweep", "1:3:1", "--samples", "20000"], tmp_path)
    assert code == 0
    rows = rows_from_csv(text)
    assert len(rows) == 6  # 3 sweep points x {analytic, mc}
    for r in rows:
        if r.method == "mc":
            assert r.n_samples == 20000
        else:
            assert r.n_samples == 0


def test_main_rows_are_sorted(tmp_path):
    code, text = run_cli(
        ["--preset", "nakagami", "--mode", "both", "--method", "analytic",
         "--rate-sweep", "1:2:1"], tmp_path)
    assert code == 0
    rows = rows_from_csv(text)
    keys = [(r.scenario_id, r.sweep_value, r.mode, r.method) for r in rows]
    assert keys == sorted(keys)


def test_main_high_snr_power_sweep(tmp_path):
    code, text = run_cli(
        ["--preset", "rayleigh", "--mode", "df", "--method", "high-snr",
         "--power-sweep", "1000:3000:1000"], tmp_path)
    assert code == 0
    rows = rows_from_csv(text)
    assert len(rows) == 3
    assert all(r.method == "high_snr" for r in rows)
    # the floor ignores the swept power entirely
    assert len({r.outage for r in rows}) == 1


@pytest.mark.parametrize("target", ["missing-dir/x.csv", "."], ids=["missing-dir", "directory"])
def test_out_path_that_cannot_be_written_exits_2(tmp_path, capsys, target):
    out = tmp_path / target
    code = main(["--preset", "rayleigh", "--method", "high-snr", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    errors = [ln for ln in captured.err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and str(out) in errors[0], captured.err
    assert "Traceback" not in captured.err


def test_main_config_file_and_overrides(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"id": "custom", "config": GOOD_CONFIG}))
    code, text = run_cli(
        ["--config", str(path), "--mode", "af", "--method", "analytic",
         "--eta", "0.4", "--lbi-r-hat", "0.5"], tmp_path)
    assert code == 0
    rows = rows_from_csv(text)
    assert rows[0].scenario_id == "custom"


def test_main_error_exit_codes(tmp_path):
    assert main(["--preset", "rayleigh", "--rate-sweep", "bogus"]) == 2
    assert main(["--preset", "rayleigh", "--alpha-sweep", "0:1:0.5"]) == 2
    assert main(["--preset", "rayleigh", "--rate-sweep", "1:2:1",
                 "--power-sweep", "1:2:1"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["--config", str(bad)]) == 2
    assert main(["--preset", "rayleigh", "--method", "mc", "--samples", "100"]) == 2


@pytest.mark.parametrize("argv", [["--alpha", "2"], ["--sam", "10000"]], ids=["alpha", "sam"])
def test_abbreviated_flag_exits_2(capsys, argv):
    # each flag has one spelling: --alpha is not --alpha-sweep, --sam not --samples
    with pytest.raises(SystemExit) as exc:
        main(["--preset", "rayleigh", "--method", "mc", *argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# (preset, alpha on every branch, target rate): AF's lower-half endpoint
# (v*/2)^{alpha/2} passes the double range in the first five, the loop-back
# density's v^{alpha/2} in its upper half in the last five
_LARGE_ALPHA_CELLS = [
    ("rayleigh", 100, "1e-10"), ("rayleigh", 250, "1e-8"), ("nakagami", 150, "1e-6"),
    ("weibull", 200, "1e-4"), ("rayleigh", 300, "1e-3"),
    ("rayleigh", 200, "4.4e-4"), ("rayleigh", 100, "3.98e-7"), ("nakagami", 140, "1.58e-5"),
    ("weibull", 160, "1e-4"), ("rayleigh", 220, "6.31e-4"),
]


def test_large_alpha_ends_in_rows_or_one_error(capsys):
    # rows with outage in [0, 1] and DF <= AF (sigma_R^2 = sigma_D^2 on the
    # presets), or exit 3 with one error line; never a traceback.  AF is
    # within 4 sigma of 1e6 exact draws, where a count with every draw on one
    # side takes one draw's weight as its sigma
    cfgs, af_rows = [], []
    for preset, alpha, rate in _LARGE_ALPHA_CELLS:
        code = main(["--preset", preset, "--method", "analytic", "--rate", rate,
                     "--alpha-sweep", f"{alpha}:{alpha}:1"])
        out, err = capsys.readouterr()
        assert code in (0, 3), (preset, alpha, rate, err)
        assert len([ln for ln in err.splitlines() if ln.startswith("error:")]) == (code == 3)
        rows = {r.mode: r for r in rows_from_csv(out)}
        assert all(0.0 <= r.outage <= 1.0 for r in rows.values()), rows
        assert rows["df"].outage <= rows["af"].outage, (preset, alpha, rate, rows)
        cfgs.append(apply_sweep_value(preset_config(preset, target_rate=float(rate)),
                                      "alpha", float(alpha)))
        af_rows.append(rows["af"])
    n = 1_000_000
    for row, (est,) in zip(af_rows, simulate_grid(cfgs, ["af"], n, 42)):
        assert abs(row.outage - est.p_hat) <= 4.0 * max(est.stderr, 1.0 / n), (row, est)


@pytest.mark.parametrize("rate", ["3000", "1e-300"])
@pytest.mark.parametrize("method", ["analytic", "mc"])
def test_threshold_out_of_double_range_exits_2(rate, method, capsys):
    # nu = 2^(R / (1 - eta)) - 1 overflows at rate 3000 and rounds to 0 at
    # rate 1e-300: a configuration error naming the bound, not a traceback
    code = main(["--preset", "rayleigh", "--method", method, "--rate", rate,
                 "--samples", "10000"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: " in err and "1024" in err


def test_tiny_loopback_scale_gives_rows(capsys):
    # r_hat^2 underflows: the loop-back power is 0 in double precision, its
    # CDF saturates at 1 and both modes reduce to F_Z at the same argument
    assert main(["--preset", "rayleigh", "--method", "analytic",
                 "--lbi-r-hat", "1e-200"]) == 0
    rows = rows_from_csv(capsys.readouterr().out)
    assert [r.mode for r in rows] == ["af", "df"]
    assert rows[0].outage == pytest.approx(rows[1].outage, abs=1e-14)
    assert 0.0 < rows[1].outage < 1.0


def test_huge_loopback_scale_is_outage(capsys):
    # r_hat^2 overflows: the loop-back power is inf in double precision, the
    # relay SNR 1/(kappa V) is 0, and both modes are in outage
    assert main(["--preset", "rayleigh", "--method", "analytic",
                 "--lbi-r-hat", "1e200"]) == 0
    rows = rows_from_csv(capsys.readouterr().out)
    assert [r.mode for r in rows] == ["af", "df"]
    assert [r.outage for r in rows] == [1.0, 1.0]


def test_underflowed_loopback_rate_exits_3(capsys):
    # r_hat^alpha = 40^200 overflows, so the loop-back rate mu / r_hat^alpha is
    # 0 while the loop-back power (about 40^2) has mass below v*: AF keeps DF's
    # value, and its err, F_V(v*) more than DF's, bounds the true AF
    argv = ["--preset", "rayleigh", "--method", "both", "--mode", "af", "--samples", "100000",
            "--alpha-sweep", "200:200:1", "--lbi-r-hat", "40", "--power", "0.1",
            "--rate", "3.6e-4"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
        "error: at least one row did not converge"]
    rows = {r.method: r for r in rows_from_csv(out)}
    assert rows["analytic"].err >= abs(rows["analytic"].outage - rows["mc"].outage) > 0.5


@pytest.mark.parametrize("mode, power, row", [
    ("df", "1", "0.35149999999999998,0.0047743873952581601"),
    ("af", "1e308", "0,0"),
], ids=["df-1W", "af-1e308W"])
def test_mc_zero_loopback_power_takes_its_limits(capsys, mode, power, row):
    # r_hat^2 underflows, so V = 0: DF's relay SNR 1/(kappa V) divides by
    # zero, and at 1e308 W AF's Z / (rho / kappa) overflows.  inf is the
    # right limit of both; the rows stand, with no RuntimeWarning
    assert main(["--preset", "rayleigh", "--method", "mc", "--samples", "10000",
                 "--rate", "1", "--lbi-r-hat", "1e-200", "--mode", mode,
                 "--power", power]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1] == f"rayleigh,1,{mode},mc,{row},10000,42,0"
    assert "Warning" not in err


def test_mc_draws_past_the_double_range_exit_2(capsys):
    # at alpha 1e-300 one hop power overflows to inf and the other underflows
    # to 0, so Z = inf * 0 is nan: a draw with no SNR, not a draw out of outage
    code = main(["--preset", "rayleigh", "--method", "mc", "--samples", "10000",
                 "--alpha-sweep", "1e-300:1e-300:1"])
    _assert_config_error(code, capsys, "double range")


def test_subnormal_source_power_gives_rows(capsys):
    # rho = path sigma_R^2 / P_S is inf, so F_Z's argument in the AF
    # integrands is inf and F_Z clamps to 1; at this power both modes are in
    # outage almost surely, as MC finds
    assert main(["--preset", "rayleigh", "--method", "both", "--samples", "10000",
                 "--power", "1e-320"]) == 0
    rows = rows_from_csv(capsys.readouterr().out)
    analytic = {r.mode: r for r in rows if r.method == "analytic"}
    mc = {r.mode: r for r in rows if r.method == "mc"}
    assert analytic["af"].outage >= analytic["df"].outage - analytic["df"].err
    for mode in ("af", "df"):
        assert analytic[mode].outage == pytest.approx(1.0, abs=1e-12)
        assert mc[mode].outage == 1.0


def test_overflowing_kernel_argument_is_outage(capsys):
    # z^{alpha/2} overflows at alpha 3: the kernel argument is +inf, where
    # F_Z is exactly 1, and both modes are in outage
    assert main(["--preset", "weibull", "--method", "analytic", "--power", "1e-300"]) == 0
    rows = {r.mode: r for r in rows_from_csv(capsys.readouterr().out)}
    assert rows["df"].outage == 1.0
    assert rows["af"].outage == pytest.approx(1.0, abs=1e-12)
    assert rows["af"].outage >= rows["df"].outage - rows["df"].err


# a shape gap above 20 at a small kernel argument, or above 171 anywhere,
# sent a series prefactor, Gamma(gap), (gap - 1)! or x^(-gap/2), past the
# double range, and the rows exited 3 with err inf
WIDE_GAPS = [(1e20, 30.0, 1.0), (1e28, 25.0, 1.0), (1e28, 24.5, 1.0),
             (10.0, 172.5, 2.0), (10.0, 199.5, 2.0)]


@pytest.mark.parametrize("power, mu2, rate", WIDE_GAPS,
                         ids=["gamma-times-power-inf", "power-raises", "integer-gap",
                              "gap-172", "gap-199"])
def test_wide_shape_gap_gives_rows(tmp_path, capsys, power, mu2, rate):
    # exit 0 with finite err, DF <= AF, each row within 4 sigma of 1e6 exact
    # draws, and at 1e28 W on the high-SNR floor within the two rows' err
    cfg = dict(GOOD_CONFIG, source_power=power, target_rate=rate,
               hop1_fading={"alpha": 2.0, "mu": 0.5, "r_hat": 1.0},
               hop2_fading={"alpha": 2.0, "mu": mu2, "r_hat": 1.0})
    code = _scenario_main(tmp_path, {"id": "wide", "config": cfg}, "--method", "analytic")
    assert code == 0
    rows = {r.mode: r for r in rows_from_csv(capsys.readouterr().out)}
    assert all(math.isfinite(r.err) for r in rows.values())
    assert rows["df"].outage <= rows["af"].outage
    config = load_scenario(str(tmp_path / "s.json")).config
    for mode, est in zip(("df", "af"), simulate_grid([config], ("df", "af"), 1_000_000, 60)[0]):
        assert abs(rows[mode].outage - est.p_hat) <= 4.0 * est.stderr, (mode, rows[mode], est)
    if power == 1e28:
        floor = outage_high_snr(config)
        for row in rows.values():
            assert abs(row.outage - floor.value) <= row.err + floor.numeric_error, (row, floor)


def test_non_finite_kernel_value_exits_3(tmp_path, monkeypatch, capsys):
    # a series term past the double range would leave F_Z no value and no
    # bound: the row keeps err inf and the run exits 3
    def overflowing(*args):
        raise OverflowError("math range error")

    monkeypatch.setattr(specfun, "_g_series_noninteger", overflowing)
    cfg = dict(GOOD_CONFIG, source_power=1e28,
               hop1_fading={"alpha": 2.0, "mu": 0.5, "r_hat": 1.0},
               hop2_fading={"alpha": 2.0, "mu": 25.0, "r_hat": 1.0})
    code = _scenario_main(tmp_path, {"id": "wide", "config": cfg}, "--method", "analytic")
    out, err = capsys.readouterr()
    assert code == 3
    rows = {r.mode: r for r in rows_from_csv(out)}
    assert rows["df"].err == math.inf
    assert err.splitlines()[-1] == "error: at least one row did not converge"


def test_mu_sweep_builds_each_shape_pair_once(tmp_path, monkeypatch, capsys):
    # 300 hop shapes, more than the pair memo holds: each pair is built when
    # its engine first needs it, once
    real = specfun.ShapePair.__init__
    builds = []

    def counted(self, mu1, mu2):
        builds.append((mu1, mu2))
        real(self, mu1, mu2)

    monkeypatch.setattr(specfun.ShapePair, "__init__", counted)
    specfun._PAIRS.clear()
    sweep = {"parameter": "mu", "start": 1.0, "stop": 3.99, "step": 0.01}
    code = _scenario_main(tmp_path, {"id": "mus", "config": GOOD_CONFIG, "sweep": sweep},
                          "--method", "analytic", "--mode", "df")
    assert code == 0
    assert len(rows_from_csv(capsys.readouterr().out)) == 300
    assert len(builds) == len(set(builds)) == 300
    assert 300 > specfun._PAIRS_MAX


def _scenario_main(tmp_path, scenario, *args):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    return main(["--config", str(path), *args])


def _assert_config_error(code, capsys, *needles):
    # exit 2, one "error:" line on stderr naming the culprit, nothing on stdout
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    for needle in needles:
        assert needle in lines[0]


_SWEEP = {"parameter": "target_rate", "start": 1.0, "stop": 2.0, "step": 1.0}
_HOP_NULL_ALPHA = dict(GOOD_CONFIG["hop1_fading"], alpha=None)


@pytest.mark.parametrize("scenario, needle", [
    ({"id": "s", "config": dict(GOOD_CONFIG, source_power="ten")}, "source_power"),
    ({"id": "s", "config": GOOD_CONFIG, "sweep": dict(_SWEEP, start="a")}, "sweep.start"),
    ({"id": "s", "config": GOOD_CONFIG, "sweep": 5}, "sweep"),
    ({"id": "s", "config": dict(GOOD_CONFIG, hop1_fading=_HOP_NULL_ALPHA)},
     "hop1_fading.alpha"),
    # the block time T cancels out of every SNR, so the schema has no key for it
    ({"id": "s", "config": dict(GOOD_CONFIG, block_time=1.0)}, "block_time"),
], ids=["power-string", "sweep-start-string", "sweep-not-object", "hop-alpha-null",
        "block-time-key"])
def test_malformed_scenario_value_exits_2(tmp_path, capsys, scenario, needle):
    code = _scenario_main(tmp_path, scenario, "--method", "analytic")
    _assert_config_error(code, capsys, needle)


@pytest.mark.parametrize("content, needle", [
    (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
    (b"\xff\xfe{", "not UTF-8"),
], ids=["deep-array", "utf16-bom"])
def test_unparsable_scenario_file_exits_2(tmp_path, capsys, content, needle):
    # json.load's recursion limit and the file's decoding, before any schema
    path = tmp_path / "s.json"
    path.write_bytes(content)
    code = main(["--config", str(path), "--method", "analytic"])
    _assert_config_error(code, capsys, str(path), needle)


def _with_value(key, value):
    """GOOD_CONFIG with one number, named ``key`` or ``branch.key``, replaced."""
    cfg = json.loads(json.dumps(GOOD_CONFIG))
    *branch, last = key.split(".")
    (cfg[branch[0]] if branch else cfg)[last] = value
    return cfg


@pytest.mark.parametrize("value", [math.inf, "inf"], ids=["Infinity", "inf-string"])
@pytest.mark.parametrize("key", ["noise_dest_var", "hop1_fading.mu", "source_power"])
@pytest.mark.parametrize("method", ["analytic", "mc"])
def test_infinite_scenario_value_exits_2(tmp_path, capsys, method, key, value):
    # float() takes JSON Infinity and "inf"; left to the engines they ended
    # in a traceback, in exit 3, or in MC rows of 0
    scenario = {"id": "s", "config": _with_value(key, value)}
    code = _scenario_main(tmp_path, scenario, "--method", method, "--samples", "10000")
    _assert_config_error(code, capsys, key, "finite")


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
@pytest.mark.parametrize("flag", ["--mu", "--eta", "--power", "--rate", "--lbi-r-hat"])
def test_non_finite_flag_exits_2(capsys, flag, value):
    # argparse's float() takes inf and nan; left to the engines they ended in
    # a traceback (--mu inf), in exit 3 (--power inf) or in rows (--lbi-r-hat
    # inf)
    code = main(["--preset", "rayleigh", "--method", "both", "--samples", "10000",
                 f"{flag}={value}"])
    _assert_config_error(code, capsys, flag, "finite")


@pytest.mark.parametrize("distance", [1e200, 1e-200])
@pytest.mark.parametrize("method", ["analytic", "mc"])
def test_path_loss_product_out_of_range_exits_2(tmp_path, capsys, distance, method):
    # d1^m1 d2^m2 overflows at 1e200 and underflows to 0 at 1e-200
    scenario = {"id": "s", "config": dict(GOOD_CONFIG, hop1_distance=distance)}
    code = _scenario_main(tmp_path, scenario, "--method", method, "--samples", "10000")
    _assert_config_error(code, capsys, "path-loss product", "finite and above 0")


def _count_tail_fallbacks(monkeypatch):
    """The start points of every adaptive integral to infinity from now on.

    The kernel tail has none: its shape reduction is finite sums and a
    fixed rule, so any call here is a regression.
    """
    real = quadrature.integrate_to_infinity
    starts = []

    def counted(*args, **kwargs):
        starts.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_to_infinity", counted)
    return starts


def _assert_large_shape_rows(tmp_path, capsys, mu, mu2=None):
    # exit 0, DF <= AF, and each row within 4 sigma of 1e6 exact draws
    cfg = dict(GOOD_CONFIG, source_power=10.0, target_rate=2.0,
               hop1_fading={"alpha": 2.0, "mu": mu, "r_hat": 1.0},
               hop2_fading={"alpha": 2.0, "mu": mu if mu2 is None else mu2, "r_hat": 1.0})
    code = _scenario_main(tmp_path, {"id": f"mu{mu}", "config": cfg}, "--method", "analytic")
    assert code == 0
    rows = {r.mode: r for r in rows_from_csv(capsys.readouterr().out)}
    assert rows["df"].outage <= rows["af"].outage
    config = load_scenario(str(tmp_path / "s.json")).config
    for mode, row in rows.items():
        est = simulate_outage(config, mode, 1_000_000, 60)
        assert abs(row.outage - est.p_hat) <= 4.0 * est.stderr, (mode, row.outage, est)


def test_large_hop_shapes_match_monte_carlo(tmp_path, monkeypatch, capsys):
    # non-integer hop shapes 60.5/60.5 take the shape-reduced tail: two
    # ladder sums and the residual, with no adaptive integral
    fallbacks = _count_tail_fallbacks(monkeypatch)
    _assert_large_shape_rows(tmp_path, capsys, 60.5)
    assert not fallbacks


@pytest.mark.parametrize("mu", [60.0, 63.0])
def test_integer_hop_shapes_sum_the_tail_in_closed_form(tmp_path, monkeypatch, capsys, mu):
    # an integer shape takes the finite Erlang sum at every tail: no
    # adaptive integral, and 63/63 no longer overflows in it
    fallbacks = _count_tail_fallbacks(monkeypatch)
    _assert_large_shape_rows(tmp_path, capsys, mu)
    assert not fallbacks


@pytest.mark.parametrize("mu1, mu2", [(62.5, 62.5), (63.5, 63.5), (0.5, 115.5), (90.5, 90.5),
                                      (74.0, 74.0), (99.0, 99.0), (100.0, 100.0)])
def test_large_hop_shapes_give_rows(tmp_path, monkeypatch, capsys, mu1, mu2):
    # these ended in OverflowError: in the adaptive tail fallback, in the
    # Gauss-Laguerre rule, at x^sigma or at exp(ln Gamma(mu1) + ln Gamma(mu2));
    # the shape-reduced tail forms none of them
    fallbacks = _count_tail_fallbacks(monkeypatch)
    _assert_large_shape_rows(tmp_path, capsys, mu1, mu2)
    assert not fallbacks


def test_hop_shape_past_the_bessel_range_exits_2(tmp_path, capsys):
    # past shape 200 a Bessel ladder term of the tail leaves the double range
    # at kernel argument 6: a configuration error naming the bound for the
    # analytic engines, while the sampler takes any shape
    cfg = dict(GOOD_CONFIG, hop1_fading={"alpha": 2.0, "mu": 200.5, "r_hat": 1.0})
    code = _scenario_main(tmp_path, {"id": "big", "config": cfg}, "--method", "analytic")
    _assert_config_error(code, capsys, "200.5", "up to 200")
    code = _scenario_main(tmp_path, {"id": "big", "config": cfg}, "--method", "mc",
                          "--samples", "10000")
    assert code == 0
    assert len(rows_from_csv(capsys.readouterr().out)) == 2


def test_hop_shape_past_the_bessel_range_exits_2_before_the_mc_grid(tmp_path, capsys):
    # under --method both the analytic bound is checked before any draw: one
    # error line, and no timing line of an MC grid that was run in vain
    cfg = dict(GOOD_CONFIG, hop1_fading={"alpha": 2.0, "mu": 200.5, "r_hat": 1.0})
    code = _scenario_main(tmp_path, {"id": "big", "config": cfg}, "--method", "both",
                          "--samples", "10000")
    _assert_config_error(code, capsys, "200.5", "up to 200")


def test_derived_fading_field_is_not_a_scenario_key(tmp_path, capsys):
    # ln_gamma_mu is derived from mu: as a key of a branch it is unknown
    hop = dict(GOOD_CONFIG["hop1_fading"], ln_gamma_mu=0.0)
    code = _scenario_main(tmp_path, {"id": "s", "config": dict(GOOD_CONFIG, hop1_fading=hop)},
                          "--method", "analytic")
    _assert_config_error(code, capsys, "hop1_fading", "unknown keys", "ln_gamma_mu")


def test_mixed_alpha_scenario(tmp_path):
    # the closed forms need equal hop alphas: analytic methods end in a
    # configuration error, while the exact sampler handles any alpha
    cfg = dict(GOOD_CONFIG, hop2_fading={"alpha": 3.0, "mu": 1.0, "r_hat": 1.0})
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"id": "mixed", "config": cfg}))
    base = [sys.executable, "-m", "fdrelay.cli", "--config", str(path)]
    proc = subprocess.run(base + ["--method", "analytic"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in proc.stderr
    proc = subprocess.run(base + ["--method", "mc", "--samples", "10000"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    rows = rows_from_csv(proc.stdout)
    assert [r.mode for r in rows] == ["af", "df"]
    assert all(0.0 <= r.outage <= 1.0 and r.n_samples == 10_000 for r in rows)
    # the high-SNR floor needs the loop-back leg alone, whatever the hops
    proc = subprocess.run(base + ["--method", "high-snr"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rows = rows_from_csv(proc.stdout)
    assert [r.mode for r in rows] == ["af", "df"]
    assert all(0.0 <= r.outage <= 1.0 for r in rows)


def test_unconverged_kernel_exits_3_with_rows(tmp_path, monkeypatch, capsys):
    # shapes 1.5 and 2.50005 put F_Z on the paired series at a near-integer
    # gap; make it reach no value (err inf) but keep its best value
    real = specfun._g_series_noninteger
    calls = []

    def failing(s, x):
        value, _ = real(s, x)
        calls.append(x)
        return value, math.inf

    monkeypatch.setattr(specfun, "_g_series_noninteger", failing)
    cfg = dict(GOOD_CONFIG, hop1_fading={"alpha": 2.0, "mu": 1.5, "r_hat": 1.0},
               hop2_fading={"alpha": 2.0, "mu": 2.50005, "r_hat": 1.0})
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"id": "near", "config": cfg}))
    code = main(["--config", str(path), "--method", "analytic"])
    out, err = capsys.readouterr()
    assert calls
    assert code == 3
    rows = rows_from_csv(out)
    assert [r.mode for r in rows] == ["af", "df"]
    assert all(0.0 < r.outage < 1.0 for r in rows)
    assert all(r.err == math.inf for r in rows)
    assert "error: at least one row did not converge" in err.splitlines()
    assert "Traceback" not in err


def test_unconverged_kernel_tail_exits_3_with_rows(tmp_path, monkeypatch, capsys):
    # shapes 25.5/25.5 send large F_Z arguments through the complement 1 - S;
    # make the shape-reduced tail S reach no value (err inf) but keep its best
    real = specfun._kernel_tail
    calls = []

    def failing(pair, x0):
        value, _ = real(pair, x0)
        calls.append(x0)
        return value, math.inf

    monkeypatch.setattr(specfun, "_kernel_tail", failing)
    cfg = dict(GOOD_CONFIG, source_power=10.0, target_rate=2.0,
               hop1_fading={"alpha": 2.0, "mu": 25.5, "r_hat": 1.0},
               hop2_fading={"alpha": 2.0, "mu": 25.5, "r_hat": 1.0})
    path = tmp_path / "tail.json"
    path.write_text(json.dumps({"id": "tail", "config": cfg}))
    assert not outage_df(load_scenario(str(path)).config).converged
    code = main(["--config", str(path), "--method", "analytic"])
    out, err = capsys.readouterr()
    assert calls
    assert code == 3
    rows = rows_from_csv(out)
    assert [r.mode for r in rows] == ["af", "df"]
    assert all(0.0 <= r.outage <= 1.0 for r in rows)
    assert all(r.err == math.inf for r in rows)
    assert "error: at least one row did not converge" in err.splitlines()
    assert "Traceback" not in err


def test_analytic_rows_regenerate_from_fields(tmp_path):
    code, text = run_cli(
        ["--preset", "weibull", "--mode", "both", "--method", "analytic",
         "--rate-sweep", "1:2:0.5"], tmp_path)
    assert code == 0
    for r in rows_from_csv(text):
        cfg = preset_config(r.scenario_id, target_rate=r.sweep_value)
        ref = outage_df(cfg) if r.mode == "df" else outage_af(cfg)
        assert r.outage == ref.value


def test_cli_subprocess_deterministic(tmp_path):
    args = [sys.executable, "-m", "fdrelay.cli", "--preset", "rayleigh",
            "--mode", "both", "--method", "both", "--rate-sweep", "1:2:0.5",
            "--samples", "20000", "--seed", "9"]
    runs = []
    for _ in range(2):
        proc = subprocess.run(args, capture_output=True, text=True, check=True)
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    assert runs[0].splitlines()[0] == CSV_HEADER


# ----------------------------------------------------------------------
# the input layer

# values a scenario document may carry in place of a number or an object
_ODD_VALUES = st.one_of(
    st.sampled_from([None, "x", "1e3", [], [1.0], {}, {"a": 1}, True,
                     math.nan, math.inf, -math.inf, "nan", -1.0, 0.0, 1e308, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10**400, max_value=10**400),
    st.text(max_size=4),
)
_INFINITIES = (math.inf, -math.inf, "inf", "Infinity", "-inf")
_LEVELS = ((), ("config",), ("config", "hop1_fading"), ("config", "hop2_fading"),
           ("config", "lbi_fading"), ("sweep",))


@st.composite
def _scenario_documents(draw):
    """The README-shaped scenario with one or two defects at any level."""
    root = {"doc": {"id": "fuzz", "config": json.loads(json.dumps(GOOD_CONFIG)),
                    "sweep": dict(_SWEEP)}}
    for _ in range(draw(st.integers(1, 2))):
        *path, last = ("doc",) + draw(st.sampled_from(_LEVELS))
        holder = root
        for key in path:
            holder = holder.get(key) if isinstance(holder, dict) else None
        obj = holder.get(last) if isinstance(holder, dict) else None
        if not isinstance(obj, dict):
            continue
        op = draw(st.sampled_from(["replace", "drop", "add", "set", "set", "infinite"]
                                  + ["resweep"] * 3 * (last == "sweep")))
        if op == "replace":
            holder[last] = draw(_ODD_VALUES)
        elif op == "drop" and obj:
            del obj[draw(st.sampled_from(sorted(obj)))]
        elif op == "add":
            obj[draw(st.sampled_from(["extra", "Alpha", "block_time", "sweep"]))] = 1.0
        elif op == "set" and obj:
            obj[draw(st.sampled_from(sorted(obj)))] = draw(_ODD_VALUES)
        elif op == "infinite" and obj:
            obj[draw(st.sampled_from(sorted(obj)))] = draw(st.sampled_from(_INFINITIES))
        elif op == "resweep":
            holder[last] = {
                "parameter": draw(st.sampled_from(SWEEP_PARAMETERS + ("bandwidth",))),
                "start": draw(st.floats(-10.0, 10.0) | st.sampled_from([math.nan, -math.inf])),
                "stop": draw(st.floats(-10.0, 10.0) | st.sampled_from([math.nan, math.inf])),
                "step": draw(st.sampled_from([0.5, 1e-3, 1e-9, 0.0, -1.0, math.nan, math.inf]))}
    return root["doc"]


def _read_numbers(scenario):
    """The numbers of ``scenario`` read from its file; derived fields left out."""
    def fields(obj):
        return [getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init]

    for value in fields(scenario.config) + (fields(scenario.sweep) if scenario.sweep else []):
        if dataclasses.is_dataclass(value):
            yield from fields(value)
        elif isinstance(value, float):
            yield value


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=_scenario_documents())
def test_scenario_document_is_a_scenario_or_one_error(tmp_path_factory, doc):
    # a document ends in a Scenario or a ScenarioError; rejected, the CLI
    # exits 2 with nothing on stdout and exactly one error line
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            scenario = load_scenario(str(path))
        except ScenarioError:
            pass
        else:
            assert isinstance(scenario, Scenario)
            assert all(math.isfinite(v) for v in _read_numbers(scenario)), scenario
            return
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["--config", str(path), "--method", "analytic"])
    assert code == 2
    assert stdout.getvalue() == ""
    errors = [ln for ln in stderr.getvalue().splitlines() if ln.startswith("error:")]
    assert len(errors) == 1, stderr.getvalue()


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(hi, max(lo, 10.0 ** e)))


@st.composite
def _engine_scenarios(draw):
    """A valid-looking scenario over the whole schema: one alpha, magnitudes log-uniform."""
    alpha = draw(_log_uniform(0.5, 8.0))

    def branch():
        return {"alpha": alpha, "mu": draw(_log_uniform(0.5, 200.0)),
                "r_hat": draw(_log_uniform(1e-3, 1e3))}

    cfg = {"source_power": draw(_log_uniform(1e-6, 1e30)),
           "hop1_distance": draw(_log_uniform(0.1, 1e3)),
           "hop2_distance": draw(_log_uniform(0.1, 1e3)),
           "hop1_pathloss": draw(_log_uniform(1.0, 6.0)),
           "hop2_pathloss": draw(_log_uniform(1.0, 6.0)),
           "hop1_fading": branch(), "hop2_fading": branch(), "lbi_fading": branch(),
           "noise_antenna_var": draw(_log_uniform(1e-12, 1e-1)),
           "noise_conversion_var": draw(_log_uniform(1e-12, 1e-1)),
           "noise_dest_var": draw(_log_uniform(1e-12, 1e-1)),
           "eh_efficiency": draw(_log_uniform(1e-3, 1.0)),
           "eh_time_fraction": draw(st.floats(0.01, 0.99)),
           "target_rate": draw(_log_uniform(1e-3, 20.0))}
    doc = {"id": "engine", "config": cfg}
    if draw(st.booleans()):
        start = draw(_log_uniform(1e-3, 20.0))
        doc["sweep"] = {"parameter": "target_rate", "start": start, "stop": 2.0 * start,
                        "step": start}
    return doc


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=_engine_scenarios(), with_mc=st.booleans())
def test_engines_end_in_rows_or_one_error(tmp_path_factory, doc, with_mc):
    # every scenario ends in rows with outage in [0, 1] and a finite analytic
    # err, or in exit 2 or 3 with one error line; never in a traceback.
    # Where sigma_R^2 >= sigma_D^2, analytic DF is at most AF on the values
    cfg = doc["config"]
    one_signed = cfg["noise_antenna_var"] + cfg["noise_conversion_var"] >= cfg["noise_dest_var"]
    path = tmp_path_factory.getbasetemp() / "engine.json"
    path.write_text(json.dumps(doc))
    runs = [("analytic",)] + [("mc", "--samples", "10000")] * with_mc
    for method, *extra in runs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["--config", str(path), "--method", method, *extra])
        assert code in (0, 2, 3), (code, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        errors = [ln for ln in stderr.getvalue().splitlines() if ln.startswith("error:")]
        assert len(errors) == (code != 0), stderr.getvalue()
        if code == 2:
            continue
        rows = rows_from_csv(stdout.getvalue())
        for row in rows:
            assert 0.0 <= row.outage <= 1.0, row
            assert method == "mc" or row.err != math.inf, row
        if method == "analytic" and one_signed:
            af = {r.sweep_value: r.outage for r in rows if r.mode == "af"}
            for r in rows:
                if r.mode == "df" and r.sweep_value in af:
                    assert r.outage <= af[r.sweep_value], (r, af[r.sweep_value])


_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli_commands(heading="CLI"):
    """Each ``fdrelay`` command in the shell block of README section ``heading``, as an argv."""
    section = _README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(ln)[1:] for ln in lines if ln.startswith("fdrelay ")]


def test_readme_cli_commands_run(tmp_path, capsys):
    # the README's scenario JSON stands in for the scenario.json it names
    scenario = _README.read_text().split("```json", 1)[1].split("```", 1)[0]
    path = tmp_path / "scenario.json"
    path.write_text(scenario)
    commands = _readme_cli_commands()
    assert len(commands) == 4
    for argv in commands:
        argv = [str(path) if a == "scenario.json" else a for a in argv]
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.startswith(CSV_HEADER + "\n")


# the CSV of each README experiment and its rows: 12 rates x 2 modes x 2
# methods, 13 alphas x 2 modes, 12 rates x 2 modes
_EXPERIMENTS = {
    **{f"rate_sweep_{preset}_p{power}.csv": 48
       for preset in ("rayleigh", "weibull", "nakagami") for power in (1, 10)},
    **{f"alpha_sweep_mu{mu}_p{power}.csv": 26 for mu in (1, 2) for power in (1, 10)},
    **{f"high_snr_{method}_p{power}.csv": 24
       for method in ("analytic", "high_snr") for power in (1000, 10000, 1000000)},
}


def test_readme_experiments_run(tmp_path, capsys):
    # the README's Experiments block is the one record of the paper's runs:
    # each command writes its own CSV, here under tmp_path for results/
    commands = _readme_cli_commands("Experiments")
    assert len(commands) == len(_EXPERIMENTS)
    for argv in commands:
        argv = [str(tmp_path / a[len("results/"):]) if a.startswith("results/") else a
                for a in argv]
        assert main(argv) == 0, argv
        capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(_EXPERIMENTS)
    for name, rows in _EXPERIMENTS.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == CSV_HEADER, name
        assert len(lines) == 1 + rows, name
