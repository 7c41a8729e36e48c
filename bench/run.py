"""Benchmark of whole fdrelay CLI sweeps, end to end or layer by layer.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the workload's sweeps from the seed, computes reference outages
with the independent oracle (oracle.py), then runs rounds: each round is a
fresh interpreter (worker.py) that imports fdrelay and calls
``fdrelay.cli.main`` once per sweep.  Rounds repeat until the next one
would end after S seconds (at least two).  Every row of every round is
checked; the last line of stdout is one JSON object with the rows
attempted and failed and the metrics: the end-to-end ones with --trace 0,
the per-layer ones with --trace 1, where untraced and traced rounds
alternate.  Workloads, checks and metrics are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = pathlib.Path(__file__).resolve().parent
SRC_PKG = ROOT / "src" / "fdrelay"

SETUP_ONLY_SPAWNS = 11     # set-up samples per run; setup_s is their median
MIN_ROUNDS = 2             # determinism is checked between rounds
RUN_LIMIT_S = 170.0        # hard stop for one run, inside the 180 s budget
ORACLE_TOL = 1e-7          # |analytic - oracle| allowed, plus the row's err for AF
FAMILY_ALPHA = 1e-6        # family-wise false-alarm rate of the MC checks
PROBE_REF_S = (0.0060, 0.0028)  # speed probe parts at the reference speed (worker.py)
PROBE_WINDOW = 3           # a sweep is scaled by the probes up to 3 places before and after it
CSV_HEADER = "scenario_id,sweep_value,mode,method,outage,err,n_samples,seed,runtime_ms"


def spawn(plan_path, *flags, timeout):
    """Run one worker; returns (parsed result or None, monotonic spawn time)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(plan_path), *flags],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        print("worker timed out", file=sys.stderr)
        return None, t0
    if proc.returncode != 0:
        print(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
        return None, t0
    return json.loads(proc.stdout.strip().splitlines()[-1]), t0


# ----------------------------------------------------------------------
# checks


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        return None
    rows = []
    for ln in lines[1:]:
        f = ln.split(",")
        if len(f) != 9:
            return None
        try:
            rows.append({"id": f[0], "value": float(f[1]), "mode": f[2], "method": f[3],
                         "outage": float(f[4]), "err": float(f[5]),
                         "n": int(f[6]), "seed": int(f[7]), "runtime_ms": int(f[8])})
        except ValueError:
            return None
    return rows


class Checker:
    """Applies every row check of a workload; counts rows attempted and failed."""

    def __init__(self, plan, ref):
        from scipy import stats
        self.binom = stats.binom
        self.plan = plan
        self.ref = ref
        mc_rows = sum(len(s["rates"]) * 2 for s in plan["sweeps"] if "mc" in s["methods"])
        mc_tests = sum(1 for k in ref if plan["sweeps"][k[0]]["samples"])
        self.alpha_row = FAMILY_ALPHA / max(1, mc_tests)
        self.z_mono = float(stats.norm.isf(FAMILY_ALPHA / (2 * max(1, mc_rows))))
        self.first_stdout = {}
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def _fail(self, reason, rows):
        self.reasons[reason] = self.reasons.get(reason, 0) + len(rows)

    def sweep(self, i, result):
        s = self.plan["sweeps"][i]
        keys = [(r, mode, method) for r in range(len(s["rates"]))
                for mode in ("df", "af") for method in s["methods"]]
        self.attempted += len(keys)
        bad = set()
        rows = None
        if result is None:
            reason = "no worker result"
        elif result["rc"] != 0:
            reason = f"exit code {result['rc']}"
        elif self.first_stdout.setdefault(i, result["stdout"]) != result["stdout"]:
            reason = "stdout differs between rounds"
        else:
            reason = None
            rows = parse_csv(result["stdout"])
        by_key = {}
        if reason is None:
            for row in rows or []:
                r = min(range(len(s["rates"])), key=lambda j: abs(s["rates"][j] - row["value"]))
                if abs(s["rates"][r] - row["value"]) <= 1e-9 and row["id"] == s["id"]:
                    by_key[(r, row["mode"], row["method"])] = row
            if rows is None or len(rows) != len(keys) or set(by_key) != set(keys):
                reason = "row count or keys"
        if reason is not None:
            self._fail(reason, keys)
            self.failed += len(keys)
            return

        def fail(reason, key):
            if key not in bad:
                bad.add(key)
                self._fail(reason, [key])

        for key, row in by_key.items():
            r, mode, method = key
            mc = method == "mc"
            o, err = row["outage"], row["err"]
            if not (math.isfinite(o) and math.isfinite(err) and 0.0 <= o <= 1.0 and err >= 0.0):
                fail("outage outside [0, 1] or negative err", key)
                continue
            if row["seed"] != self.plan["seed"] or row["n"] != (s["samples"] if mc else 0):
                fail("seed or n_samples column", key)
            ref = self.ref.get((i, r, mode))
            if ref is None:
                continue
            if mc:
                n = row["n"]
                k = round(o * n)
                p_value = min(1.0, 2.0 * min(self.binom.cdf(k, n, ref), self.binom.sf(k - 1, n, ref)))
                if p_value < self.alpha_row:
                    fail("MC outside the family-wise band", key)
            elif abs(o - ref) > ORACLE_TOL + (err if mode == "af" else 0.0):
                fail("analytic differs from oracle", key)

        for r in range(len(s["rates"])):
            for method in s["methods"]:
                df, af = by_key[(r, "df", method)], by_key[(r, "af", method)]
                if df["outage"] > af["outage"] + df["err"] + af["err"]:
                    fail("DF above AF", (r, "df", method))
                    fail("DF above AF", (r, "af", method))
        for mode in ("df", "af"):
            for method in s["methods"]:
                scale = self.z_mono if method == "mc" else 1.0
                for r in range(1, len(s["rates"])):
                    lo, hi = by_key[(r - 1, mode, method)], by_key[(r, mode, method)]
                    if hi["outage"] < lo["outage"] - scale * (lo["err"] + hi["err"]):
                        fail("outage decreases with rate", (r, mode, method))
        self.failed += len(bad)


# ----------------------------------------------------------------------
# metrics


def speed_factor(probes, methods):
    """Reference speed over current speed, from the median of some probes.

    Analytic sweeps run scalar Python, Monte Carlo sweeps numpy gamma draws;
    each is scaled by the probe part that does the same kind of work (in
    back-to-back runs this tracked the drift best), a mix by both.
    """
    py = statistics.median(p[0] for p in probes)
    npy = statistics.median(p[1] for p in probes)
    if methods == ["analytic"]:
        return PROBE_REF_S[0] / py
    if methods == ["mc"]:
        return PROBE_REF_S[1] / npy
    return sum(PROBE_REF_S) / (py + npy)


def speed_factors(res, plan):
    """Per sweep, the factor from the probes taken up to PROBE_WINDOW places
    before and after it (probe i precedes sweep i, probe i + 1 follows it).

    A single probe lasts milliseconds and is noisy; the median of a window
    follows drift over tens of seconds and ignores the odd slow probe.
    """
    p, w = res["probes"], PROBE_WINDOW
    return [speed_factor(p[max(0, i + 1 - w):i + 1 + w], s["methods"])
            for i, s in enumerate(plan["sweeps"])]


def scaled_sweep_seconds(res, plan):
    return [s["seconds"] * f for s, f in zip(res["sweeps"], speed_factors(res, plan))]


def sloc():
    n = 0
    for path in sorted(SRC_PKG.rglob("*.py")):
        for line in path.read_text().splitlines():
            s = line.strip()
            n += bool(s) and not s.startswith("#")
    return n


def sweep_p50(rounds, plan):
    """Median over the round's sweeps of each sweep's mean time over the rounds.

    Taking the mean per sweep first keeps the median off the noisy extremes
    of two neighbouring sweeps when a round has an even number of them.
    """
    if not rounds:
        return 0.0
    per_round = [scaled_sweep_seconds(res, plan) for res in rounds]
    return statistics.median(statistics.fmean(col) for col in zip(*per_round))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    t_start = time.perf_counter()
    if not (SRC_PKG / "__init__.py").is_file():
        print(f"error: no fdrelay package under {SRC_PKG.parent}; run from a full checkout",
              file=sys.stderr)
        return 2

    import oracle
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = BENCH / "out" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    plan = workloads.build_plan(args.workload, args.seed, run_dir.relative_to(ROOT).as_posix())
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    t_oracle = time.perf_counter()
    ref = workloads.oracle_values(plan)
    t_selftest = time.perf_counter()
    selftest = oracle.selftest()
    print(f"plan {t_oracle - t_start:.1f} s, oracle {t_selftest - t_oracle:.1f} s, "
          f"self-test {time.perf_counter() - t_selftest:.1f} s", file=sys.stderr)
    for name, ok, detail in selftest:
        if not ok:
            print(f"oracle self-test failed: {name}: {detail}", file=sys.stderr)
    checker = Checker(plan, ref)

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - t_start)

    setup_s = []
    for _ in range(SETUP_ONLY_SPAWNS):
        res, t0 = spawn(plan_path, "--setup-only", timeout=remaining())
        if res is not None:
            setup_s.append((res["setup_done"] - t0) * speed_factor(res["probes"], None))

    # untraced rounds only, or untraced and traced rounds in turn
    kinds = ("plain", "traced") if args.trace else ("plain",)
    rounds = {"plain": [], "traced": []}
    t_rounds = time.perf_counter()
    n_units = 0
    while True:
        for kind in kinds:
            flags = []
            if kind == "traced":
                spans = run_dir / f"spans-{len(rounds['traced'])}.jsonl"
                flags = ["--spans", str(spans)]
            res, _ = spawn(plan_path, *flags, timeout=remaining())
            for i in range(len(plan["sweeps"])):
                checker.sweep(i, res["sweeps"][i] if res else None)
            if res is not None:
                res["spans"] = flags[-1] if flags else None
                rounds[kind].append(res)
        n_units += 1
        elapsed = time.perf_counter() - t_rounds
        per_unit = elapsed / n_units
        if n_units * len(kinds) >= MIN_ROUNDS and (
                elapsed + per_unit > args.seconds or remaining() < 2.0 * per_unit):
            break

    def sweep_seconds(kind):
        return [s for res in rounds[kind] for s in scaled_sweep_seconds(res, plan)]

    def rows_per_s(kind):
        rows = sum(len(parse_csv(s["stdout"]) or []) for res in rounds[kind] for s in res["sweeps"])
        secs = sum(sweep_seconds(kind))
        return rows / secs if secs > 0.0 else 0.0

    # every round's sweep times and probes, for checking the speed scaling
    (run_dir / "rounds.json").write_text(json.dumps(
        {kind: [{"seconds": [s["seconds"] for s in res["sweeps"]], "probes": res["probes"]}
                for res in rs] for kind, rs in rounds.items()}))
    if args.trace:
        traced = [(res["spans"], speed_factors(res, plan)) for res in rounds["traced"]]
        layer, span_s = tracing.summarize(traced)
        plain_per_round = sum(sweep_seconds("plain")) / max(1, len(rounds["plain"]))
        plain_rate, traced_rate = rows_per_s("plain"), rows_per_s("traced")
        metrics = {k: {"value": v, "unit": tracing_unit(k)} for k, v in layer.items()}
        metrics["src.sloc"] = {"value": sloc(), "unit": "lines"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (1.0 - traced_rate / plain_rate) if plain_rate else 0.0, "unit": "%"}
        metrics["trace.span_excess_pct"] = {
            "value": 100.0 * (span_s / plain_per_round - 1.0) if plain_per_round else 0.0, "unit": "%"}
        metrics["machine.probe_ms"] = {"value": 1e3 * statistics.median(
            [sum(p) for res in rounds["plain"] + rounds["traced"] for p in res["probes"]] or [0.0]),
            "unit": "ms"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s) if setup_s else 0.0, "unit": "s"},
            "rows_per_s": {"value": rows_per_s("plain"), "unit": "rows/s"},
            "sweep_s_p50": {"value": sweep_p50(rounds["plain"], plan), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                [res["rss_kb"] / 1024.0 for res in rounds["plain"]] or [0.0]), "unit": "MB"},
        }
    for reason, n in sorted(checker.reasons.items()):
        print(f"failed rows: {n} ({reason})", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds['plain'])} plain + "
          f"{len(rounds['traced'])} traced rounds, {time.perf_counter() - t_start:.1f} s",
          file=sys.stderr)
    # a run is correct only if the oracle passed its self-test and every row its checks
    correct = all(ok for _, ok, _ in selftest) and checker.failed == 0
    print(json.dumps({"correct": correct,
                      "attempted": checker.attempted, "failed": checker.failed,
                      "metrics": metrics}))
    return 0


def tracing_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms_p50") or name.endswith("_ms_tail"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
