"""Command-line front end.

Computes outage probability rows over a scenario (preset or JSON file),
optionally swept over one parameter, by the analytic engines, the Monte
Carlo simulator, or the high-SNR floor, and emits CSV or JSON.

Output is deterministic byte-for-byte for fixed flags and seed: rows are
sorted, floats carry 17 significant digits, and the runtime_ms column is
emitted as 0 (wall-clock timings go to stderr, where nondeterminism
belongs).  Exit codes: 0 success, 2 configuration error, 3 numeric
non-convergence in at least one row (rows are still emitted).  A sweep of
more than MAX_SWEEP_POINTS points, or with a repeated point, is a
configuration error, found by the loop that makes its grid; a non-finite F_Z
kernel value is non-convergence.  Each input is checked once, where it is built.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import operator
import sys
import time

from .errors import DomainError, ScenarioError
from .fading import AlphaMuParams
from .mcsim import simulate_grid
from .outage import outage_af, outage_df, outage_high_snr
from .presets import PRESET_NAMES, preset_config
from .relaysys import SystemConfig

SWEEP_PARAMETERS = ("target_rate", "source_power", "alpha", "mu", "eh_time_fraction")
MAX_SWEEP_POINTS = 10_000

_FADING_KEYS = {f.name for f in dataclasses.fields(AlphaMuParams) if f.init}
_CONFIG_KEYS = {f.name for f in dataclasses.fields(SystemConfig) if f.init}
_BRANCHES = ("hop1_fading", "hop2_fading", "lbi_fading")


@dataclasses.dataclass(frozen=True)
class Sweep:
    parameter: str
    start: float
    stop: float
    step: float

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ScenarioError(f"unknown sweep parameter {self.parameter!r}")
        # written so that NaN fails it
        if not (0.0 < self.step < math.inf and self.stop >= self.start):
            raise ScenarioError("sweep requires a finite step > 0 and stop >= start")
        self.values()   # the point cap holds where the sweep is built

    def values(self):
        # endpoints inclusive within half a step; start + i*step, so no
        # rounding error accumulates along the grid, and v0 is start itself
        # (-0.0 + 0*step is +0.0).  Each point must exceed the one before:
        # a step below the spacing of doubles, an inf start, or a stop +
        # step/2 that overflows (stop then taken twice) would repeat one.
        # The loop is the point cap, so no grid runs past it
        out = []
        for i in range(MAX_SWEEP_POINTS + 1):
            v = self.start + i * self.step if i else self.start
            if not v <= self.stop + 0.5 * self.step:
                return out
            v = min(v, self.stop)
            if out and not v > out[-1]:
                raise ScenarioError(f"sweep step {self.step!r} repeats the grid point {v!r}")
            out.append(v)
        raise ScenarioError(f"sweep has more than {MAX_SWEEP_POINTS} points")


@dataclasses.dataclass(frozen=True)
class Scenario:
    id: str
    config: SystemConfig
    sweep: Sweep | None = None


@dataclasses.dataclass(frozen=True)
class ResultRow:
    scenario_id: str
    sweep_value: float
    mode: str
    method: str
    outage: float
    err: float
    n_samples: int
    seed: int
    runtime_ms: int


_ROW_FIELDS = [f.name for f in dataclasses.fields(ResultRow)]
CSV_HEADER = ",".join(_ROW_FIELDS)
# a row's values in header order; dataclasses.astuple deep-copies each row
_row_values = operator.attrgetter(*_ROW_FIELDS)


def _object(d, where: str, keys, optional=()):
    """``d`` if it is an object with the ``keys`` and no other; ``optional`` may be absent."""
    if not isinstance(d, dict):
        raise ScenarioError(f"{where} must be an object")
    unknown = d.keys() - keys
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    missing = keys - set(optional) - d.keys()
    if missing:
        raise ScenarioError(f"{where}: missing keys {sorted(missing)}")
    return d


def _number(value, name: str) -> float:
    """A finite number as a float, or a ScenarioError naming its key or flag."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ScenarioError(f"{name} must be finite, got {value!r}")
    return number


def _fading_from_dict(d, where):
    try:
        return AlphaMuParams(**{key: _number(value, f"{where}.{key}")
                                for key, value in _object(d, where, _FADING_KEYS).items()})
    except DomainError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def config_from_dict(d) -> SystemConfig:
    """Strict-schema SystemConfig: unknown keys rejected, invariants enforced."""
    _object(d, "config", _CONFIG_KEYS, optional=("eh_time_fraction",))
    if "eh_time_fraction" not in d:
        print("warning: eh_time_fraction missing, defaulting to 0.5", file=sys.stderr)
    kwargs = {key: _fading_from_dict(value, key) if key in _BRANCHES
              else _number(value, key) for key, value in d.items()}
    kwargs.setdefault("eh_time_fraction", 0.5)
    try:
        return SystemConfig(**kwargs)
    except DomainError as exc:
        raise ScenarioError(str(exc)) from None


def load_scenario(path: str) -> Scenario:
    """Load and validate a scenario file: {id, config, optional sweep}."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    except RecursionError:
        raise ScenarioError(f"{path}: JSON nested too deeply") from None
    _object(raw, path, {"id", "config", "sweep"}, optional=("sweep",))
    sweep = raw.get("sweep")
    if sweep is not None:
        s = _object(sweep, "sweep", {"parameter", "start", "stop", "step"})
        sweep = Sweep(parameter=str(s["parameter"]),
                      **{k: _number(s[k], f"sweep.{k}") for k in ("start", "stop", "step")})
    return Scenario(id=str(raw["id"]), config=config_from_dict(raw["config"]),
                    sweep=sweep)


def apply_sweep_value(cfg: SystemConfig, parameter: str, value: float) -> SystemConfig:
    """One grid point: the swept parameter replaced (alpha and mu on every branch)."""
    if parameter not in SWEEP_PARAMETERS:
        raise ScenarioError(f"unknown sweep parameter {parameter!r}")
    if parameter in ("alpha", "mu"):
        return dataclasses.replace(cfg, **{
            key: dataclasses.replace(getattr(cfg, key), **{parameter: value})
            for key in _BRANCHES})
    return dataclasses.replace(cfg, **{parameter: value})


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def emit(rows, fmt: str, path: str | None) -> None:
    """Write rows as CSV (fixed header, 17 significant digits) or JSON."""
    if not rows:
        raise ScenarioError("no rows to emit")
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in rows:
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                                  for v in _row_values(r)))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps([dataclasses.asdict(r) for r in rows], indent=2) + "\n"
    else:
        raise ScenarioError(f"unknown format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ScenarioError(f"cannot write {path}: {exc.strerror}") from None


def _parse_sweep_flag(raw: str, parameter: str) -> Sweep:
    try:
        a, b, s = (float(p) for p in raw.split(":"))
    except ValueError:
        raise ScenarioError(f"sweep must be numeric start:stop:step, got {raw!r}") from None
    return Sweep(parameter=parameter, start=a, stop=b, step=s)


def compute_rows(scenario: Scenario, modes, methods, samples: int, seed: int):
    """Evaluate every (sweep value, mode, method) cell, sorted deterministically.

    The analytic engines run first, so an input they reject costs no MC draw.
    """
    sweep = scenario.sweep
    if sweep is None:
        grid = [(scenario.config.target_rate, scenario.config)]
    else:
        grid = [(v, apply_sweep_value(scenario.config, sweep.parameter, v))
                for v in sweep.values()]
    row = functools.partial(ResultRow, scenario_id=scenario.id, seed=seed, runtime_ms=0)
    rows = []
    any_bad = False
    for value, cfg in grid:
        for mode in modes:
            for method in methods:
                if method == "mc":
                    continue
                t0 = time.perf_counter()
                if method == "high_snr":
                    res = outage_high_snr(cfg)
                else:
                    res = outage_df(cfg) if mode == "df" else outage_af(cfg)
                any_bad = any_bad or not res.converged
                dt_ms = (time.perf_counter() - t0) * 1e3
                print(f"timing: {scenario.id} {value:g} {mode} {method}: {dt_ms:.1f} ms",
                      file=sys.stderr)
                rows.append(row(sweep_value=value, mode=mode, method=method, outage=res.value,
                                err=res.numeric_error, n_samples=0))
    if "mc" in methods:
        t0 = time.perf_counter()
        mc = simulate_grid([cfg for _, cfg in grid], modes, samples, seed)
        dt_ms = (time.perf_counter() - t0) * 1e3
        print(f"timing: {scenario.id} mc grid of {len(grid) * len(modes)} cells: "
              f"{dt_ms:.1f} ms", file=sys.stderr)
        rows += [row(sweep_value=value, mode=mode, method="mc", outage=est.p_hat,
                     err=est.stderr, n_samples=est.n_samples)
                 for (value, _), estimates in zip(grid, mc) for mode, est in zip(modes, estimates)]
    rows.sort(key=lambda r: (r.scenario_id, r.sweep_value, r.mode, r.method))
    return rows, any_bad


# --method flag -> the engines it runs
_METHODS = {"analytic": ("analytic",), "mc": ("mc",), "high-snr": ("high_snr",),
            "both": ("analytic", "mc")}


@functools.cache   # parsing leaves the parser as it was, so one serves every main call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fdrelay", allow_abbrev=False,
        description="Outage probability of an energy-harvesting full-duplex "
                    "relay link over generalized fading.")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="scenario JSON file")
    src.add_argument("--preset", choices=PRESET_NAMES, help="built-in scenario")
    p.add_argument("--mode", choices=("df", "af", "both"), default="both")
    p.add_argument("--method", choices=tuple(_METHODS),
                   default="both", help="'both' = analytic + mc")
    p.add_argument("--rate-sweep", metavar="a:b:s", help="sweep target rate")
    p.add_argument("--power-sweep", metavar="a:b:s", help="sweep source power")
    p.add_argument("--alpha-sweep", metavar="a:b:s", help="sweep alpha on all branches")
    p.add_argument("--mu", type=float, help="override mu on all branches")
    p.add_argument("--eta", type=float, help="override the harvesting time fraction")
    p.add_argument("--power", type=float,
                   help="override the source power without sweeping it")
    p.add_argument("--rate", type=float,
                   help="override the target rate without sweeping it")
    p.add_argument("--lbi-r-hat", type=float, dest="lbi_r_hat",
                   help="override the residual loop-back envelope scale")
    p.add_argument("--samples", type=int, default=1_000_000, help="Monte Carlo draws")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default stdout)")
    return p


def _build_scenario(args) -> Scenario:
    if args.config:
        scenario = load_scenario(args.config)
    else:
        scenario = Scenario(id=args.preset, config=preset_config(args.preset))
    cfg = scenario.config
    for flag, param, value in (("--eta", "eh_time_fraction", args.eta), ("--mu", "mu", args.mu),
                               ("--power", "source_power", args.power),
                               ("--rate", "target_rate", args.rate)):
        if value is not None:
            cfg = apply_sweep_value(cfg, param, _number(value, flag))
    if args.lbi_r_hat is not None:
        r_hat = _number(args.lbi_r_hat, "--lbi-r-hat")
        cfg = dataclasses.replace(cfg, lbi_fading=dataclasses.replace(cfg.lbi_fading, r_hat=r_hat))
    scenario = dataclasses.replace(scenario, config=cfg)

    sweeps = [(flag, param) for flag, param in (
        (args.rate_sweep, "target_rate"),
        (args.power_sweep, "source_power"),
        (args.alpha_sweep, "alpha")) if flag]
    if len(sweeps) > 1:
        raise ScenarioError("at most one sweep flag may be given")
    if sweeps:
        scenario = dataclasses.replace(scenario, sweep=_parse_sweep_flag(*sweeps[0]))
    return scenario


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = _build_scenario(args)
        modes = ("df", "af") if args.mode == "both" else (args.mode,)
        t0 = time.perf_counter()
        rows, any_bad = compute_rows(scenario, modes, _METHODS[args.method],
                                     args.samples, args.seed)
        emit(rows, args.format, args.out)
        print(f"total: {len(rows)} rows in {time.perf_counter() - t0:.2f} s",
              file=sys.stderr)
    except (ScenarioError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if any_bad:
        print("error: at least one row did not converge", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
