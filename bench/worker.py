"""One round of a workload in a fresh interpreter.

Usage: python3 bench/worker.py PLAN.json [--setup-only] [--spans FILE]

Imports ``fdrelay`` from the checkout's ``src``, writes the round's
scenario files, then calls ``fdrelay.cli.main`` once per sweep, in order,
with stdout and stderr captured.  ``--spans`` wraps the layers first (see
tracing.py) and writes the spans when the round ends.  Prints one JSON
line: the monotonic time at which set-up finished, each sweep's exit code,
wall time and stdout, the speed probes taken before and after each sweep,
and the peak resident memory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import resource
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_PROBES = 3   # a set-up time is scaled by their median, since one probe is noisy


def speed_probe(rng):
    """Seconds taken by fixed scalar math, and by fixed numpy gamma draws.

    The speed of this machine drifts by up to 50% within a minute (shared
    cores); the probe, run between sweeps, measures that drift so that the
    benchmark can take it out of the sweep times.
    """
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1, 30_001):
        s += math.log(i) * math.exp(-i * 1e-4)
    t1 = time.perf_counter()
    rng.gamma(1.5, 1.0, 1 << 16)
    return t1 - t0, time.perf_counter() - t1


def peak_rss_kb() -> int:
    """Peak resident memory of this interpreter.

    ru_maxrss would do, but on Linux it keeps the parent's peak across fork
    and exec, and the parent holds scipy; VmHWM belongs to this image alone.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("plan")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans")
    args = p.parse_args()

    if not (SRC / "fdrelay" / "__init__.py").is_file():
        print(f"error: no fdrelay package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fdrelay.cli
    import numpy

    if pathlib.Path(fdrelay.cli.__file__).resolve().parent != SRC / "fdrelay":
        print(f"error: fdrelay imported from {fdrelay.cli.__file__}", file=sys.stderr)
        return 2
    with open(args.plan) as fh:
        plan = json.load(fh)
    for sweep in plan["sweeps"]:
        if sweep["file"]:
            with open(ROOT / sweep["file"]["path"], "w") as fh:
                json.dump(sweep["file"]["content"], fh)
    argvs = [sweep["argv"] for sweep in plan["sweeps"]]
    setup_done = time.perf_counter()
    probe_rng = numpy.random.Generator(numpy.random.Philox(0))
    if args.setup_only:
        probes = [speed_probe(probe_rng) for _ in range(SETUP_PROBES)]
        print(json.dumps({"setup_done": setup_done, "probes": probes}))
        return 0

    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    sweeps = []
    probes = [speed_probe(probe_rng)]
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = fdrelay.cli.main(argv)
            except SystemExit as exc:      # argparse rejects the flags
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:              # a traceback: the CLI would exit 1
                traceback.print_exc()
                rc = 1
        seconds = time.perf_counter() - t0
        probes.append(speed_probe(probe_rng))
        sweeps.append({"rc": rc, "seconds": seconds, "stdout": out.getvalue(),
                       "stderr_tail": err.getvalue()[-2000:] if rc else ""})
    rss_kb = peak_rss_kb()
    if tracer is not None:
        tracer.write(args.spans)
    print(json.dumps({"setup_done": setup_done, "sweeps": sweeps, "probes": probes,
                      "rss_kb": rss_kb}))
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
