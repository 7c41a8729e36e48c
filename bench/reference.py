"""Reference figures for the layers, printed as a markdown table.

    python3 bench/reference.py            # about a minute
    python3 bench/reference.py --tier1    # adds one timed run of the test suite

Re-measures the baseline table of the roadmap: outage_df cold (empty clamp
cache) and warm, outage_af per row over the preset rate grid, Monte Carlo
at 1e7 draws, Philox gamma draws per 2**21 at mu = 1 and mu = 2, and the SNR
chain per 2**21 (simulate_outage self time from the tracer).  These are
single measurements for orientation, not benchmark metrics.
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import fdrelay  # noqa: E402
from fdrelay import fading, mcsim  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402
from workloads import PRESET_POWERS, PRESETS, RATES, grid_values  # noqa: E402


def timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def ms_range(values):
    return f"{min(values) * 1e3:.2f}–{max(values) * 1e3:.2f} ms"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--tier1", action="store_true", help="also time the test suite once")
    args = p.parse_args()
    rows = []
    rates = grid_values(*RATES)
    cold, warm, af = [], [], []
    for name in PRESETS:
        for power in PRESET_POWERS:
            cfgs = [fdrelay.preset_config(name, source_power=power, target_rate=r) for r in rates]
            fading._CLAMP_CACHE.clear()
            cold.append(timed(fdrelay.outage_df, cfgs[0]))
            warm += [timed(fdrelay.outage_df, c) for c in cfgs[1:]]
            af += [timed(fdrelay.outage_af, c) for c in cfgs]
    rows.append(("outage_df, warm", ms_range(warm)))
    rows.append(("outage_df, cold (one clamp search)", ms_range(cold)))
    rows.append(("outage_af per row, median", f"{statistics.median(af) * 1e3:.1f} ms"))
    rows.append(("outage_af per row, range", ms_range(af)))

    for name in PRESETS:
        cfg = fdrelay.preset_config(name, source_power=10.0, target_rate=2.0)
        for mode in ("df", "af"):
            rows.append((f"MC 1e7 draws, {name} {mode}",
                         f"{timed(fdrelay.simulate_outage, cfg, mode, 10_000_000, 42):.2f} s"))

    n = 1 << 21
    rng = np.random.Generator(np.random.Philox(42))
    for mu in (1.0, 2.0):
        t = statistics.median(timed(rng.gamma, mu, 1.0, n) for _ in range(5))
        rows.append((f"Philox gamma draws per 2^21, mu={mu:g}", f"{t * 1e3:.1f} ms"))

    tracer = Tracer()
    tracer.install()
    cfg = fdrelay.preset_config("nakagami", source_power=10.0, target_rate=2.0)
    spans = ROOT / "bench" / "out" / "reference-spans.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    for mode in ("df", "af"):
        tracer.spans.clear()
        for _ in range(5):
            mcsim.simulate_outage(cfg, mode, n, 42)
        tracer.write(spans)
        layer, _ = summarize([(str(spans), [1.0] * 5)])
        rows.append((f"SNR chain + count per 2^21, {mode} (nakagami)",
                     f"{layer['mcsim.chain_count_s'] / 5 * 1e3:.1f} ms"))
    spans.unlink()

    if args.tier1:
        t0 = time.perf_counter()
        code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                              stdout=subprocess.DEVNULL,
                              cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src"),
                                             "PATH": "/usr/bin:/bin"}).returncode
        rows.append(("Tier-1 test suite wall time", f"{time.perf_counter() - t0:.0f} s (exit {code})"))

    print("| Layer | Time |\n|---|---|")
    for k, v in rows:
        print(f"| {k} | {v} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
