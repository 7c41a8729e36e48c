"""Spans and counters around the cross-module entry points of each layer.

``install`` replaces every module attribute under ``fdrelay`` that is bound
to a listed function, including names bound by ``from ... import``, with a
wrapper.  Span wrappers record (name, start, end, parent, extra) in memory;
count wrappers only count, for the leaf functions called too often for a
span each.  ``Tracer.write`` stores everything when the run ends, and
``summarize`` turns the files of the traced rounds into per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, function)
SPANS = {
    "cli.main": ("fdrelay.cli", "main"),
    "cli.compute_rows": ("fdrelay.cli", "compute_rows"),
    "cli.emit": ("fdrelay.cli", "emit"),
    "outage.df": ("fdrelay.outage", "outage_df"),
    "outage.af": ("fdrelay.outage", "outage_af"),
    "fading.fz": ("fdrelay.fading", "_cdf_product_meijer"),
    "fading.clamp": ("fdrelay.fading", "product_arg_clamp"),
    "fading.sample": ("fdrelay.fading", "sample_envelope"),
    "specfun.g2131": ("fdrelay.specfun", "_g2131_eval"),
    "specfun.series": ("fdrelay.specfun", "_g_series_noninteger"),
    "specfun.log_series": ("fdrelay.specfun", "_g_series_integer"),
    "specfun.near_int_quad": ("fdrelay.specfun", "_g_kernel_quadrature"),
    "specfun.complement": ("fdrelay.specfun", "_g_complement"),
    "specfun.kernel_tail": ("fdrelay.specfun", "_kernel_tail"),
    "quadrature.adaptive": ("fdrelay.quadrature", "integrate_adaptive"),
    "quadrature.to_infinity": ("fdrelay.quadrature", "integrate_to_infinity"),
    "mcsim.simulate": ("fdrelay.mcsim", "simulate_outage"),
    "relaysys.derive_constants": ("fdrelay.relaysys", "derive_constants"),
}

# counter name -> (module, function)
COUNTS = {
    "fading.cdf_power": ("fdrelay.fading", "cdf_power"),
    "fading.pdf_power": ("fdrelay.fading", "pdf_power"),
    "specfun.reg_lower_gamma": ("fdrelay.specfun", "reg_lower_gamma"),
    "specfun.bessel_k": ("fdrelay.specfun", "bessel_k"),
    "specfun.bessel_k_scaled": ("fdrelay.specfun", "_bessel_k_scaled"),
    "quadrature.panels": ("fdrelay.quadrature", "gauss_kronrod"),
}

GK_NODES = 15  # integrand evaluations per Gauss-Kronrod panel


def _rebind(target, wrapper):
    """Point every fdrelay module attribute bound to ``target`` at ``wrapper``."""
    sites = 0
    for name, mod in list(sys.modules.items()):
        if not (name == "fdrelay" or name.startswith("fdrelay.")) or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is target:
                setattr(mod, attr, wrapper)
                sites += 1
    return sites


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index, extra or None]
        self.stack = []
        self.counts = Counter()
        self.quad_panels = []  # panel counters of the open integrate_adaptive calls
        self.bessel_depth = 0

    def _span(self, name, fn, extra_fn=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None   # stays None if fn raises; the extra is recorded anyway
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if extra_fn is not None:
                    rec[4] = extra_fn(args, kwargs, result)
                stack.pop()
                rec[2] = clock()
        return wrapper

    def _quad(self, fn):
        """integrate_adaptive: a span, its panel count, and its integrand time.

        The integrand is the caller's closure, so its time is timed here and
        handed back to the calling layer by ``summarize``.
        """
        frames, clock = self.quad_panels, time.perf_counter
        inner = self._span("quadrature.adaptive", fn, self._quad_extra)

        def wrapper(f, *args, **kwargs):
            frame = [0, 0.0]   # panels, integrand seconds

            def timed(x):
                t0 = clock()
                try:
                    return f(x)
                finally:
                    frame[1] += clock() - t0

            frames.append(frame)
            try:
                return inner(timed, *args, **kwargs)
            finally:
                frames.pop()
        return wrapper

    def _quad_extra(self, args, kwargs, result):
        a, b = args[1], args[2]
        bps = kwargs.get("breakpoints", args[4] if len(args) > 4 else ())
        initial = 0 if a == b else 1 + sum(1 for p in bps if a < p < b)
        panels, integrand_s = self.quad_panels[-1]
        return {"panels": panels, "initial": initial, "integrand_s": integrand_s,
                "converged": result is not None and bool(result[2])}

    def _count(self, key, fn):
        counts = self.counts
        frames = self.quad_panels if key == "quadrature.panels" else None

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if frames:
                frames[-1][0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _bessel(self, fn):
        counts, tracer = self.counts, self

        def wrapper(*args, **kwargs):
            counts["specfun.bessel_k"] += 1
            tracer.bessel_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.bessel_depth -= 1
        return wrapper

    def _bessel_scaled(self, fn):
        counts, tracer = self.counts, self

        def wrapper(*args, **kwargs):
            if tracer.bessel_depth == 0:   # not already counted by bessel_k
                counts["specfun.bessel_k_scaled"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        def size_of(pos, key):
            def extra(args, kwargs, result):
                return {"draws": int(kwargs.get(key, args[pos] if len(args) > pos else 1))}
            return extra

        for name, (modname, fname) in {**SPANS, **COUNTS}.items():
            target = getattr(importlib.import_module(modname), fname)
            if name == "quadrature.adaptive":
                wrapper = self._quad(target)
            elif name == "specfun.bessel_k":
                wrapper = self._bessel(target)
            elif name == "specfun.bessel_k_scaled":
                wrapper = self._bessel_scaled(target)
            elif name in COUNTS:
                wrapper = self._count(name, target)
            elif name == "fading.sample":
                wrapper = self._span(name, target, size_of(2, "size"))
            elif name == "mcsim.simulate":
                wrapper = self._span(name, target, size_of(2, "n"))
            else:
                wrapper = self._span(name, target)
            if _rebind(target, wrapper) == 0:
                raise LookupError(f"no binding of {modname}.{fname} to wrap")

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def load(path):
    with open(path) as fh:
        head = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    return head["counts"], spans


def _tail(values):
    """The highest percentile with ten samples beyond it; the maximum below 40 samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 40 else ordered[-1]


def summarize(traced):
    """Per-layer metrics per traced round.

    ``traced`` lists (span file, speed factors) per traced round, one factor
    per root span (per sweep); every time in a root's tree is multiplied by
    its factor (see run.py).
    """
    rounds = max(1, len(traced))
    counts = Counter()
    calls = Counter()
    total = defaultdict(float)
    self_time = defaultdict(float)
    af_ms = []
    draws = Counter()
    quad = Counter()
    fz_clamped = 0
    root_s = 0.0
    for path, root_factors in traced:
        c, spans = load(path)
        counts.update(c)
        roots = iter(root_factors)
        factors = []   # a span's parent always precedes it
        for _, _, _, parent, _ in spans:
            factors.append(factors[parent] if parent >= 0 else next(roots))
        child_time = [0.0] * len(spans)
        child_names = [set() for _ in spans]
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += (end - start) * factors[i]
                child_names[parent].add(name)
        for i, (name, start, end, parent, extra) in enumerate(spans):
            factor = factors[i]
            dur = (end - start) * factor
            calls[name] += 1
            total[name] += dur
            if name == "quadrature.adaptive":
                # every child span runs inside the integrand, which belongs
                # to the nearest caller outside the quadrature layer
                self_time[name] += dur - extra["integrand_s"] * factor
                owner = parent
                while owner >= 0 and spans[owner][0].startswith("quadrature."):
                    owner = spans[owner][3]
                if owner >= 0:
                    self_time[spans[owner][0]] += extra["integrand_s"] * factor - child_time[i]
            else:
                self_time[name] += dur - child_time[i]
            if parent < 0:
                root_s += dur
            if name == "outage.af":
                af_ms.append(dur * 1e3)
            elif name == "fading.fz" and "specfun.g2131" not in child_names[i]:
                fz_clamped += 1
            elif name in ("fading.sample", "mcsim.simulate"):
                draws[name] += extra["draws"]
            elif name == "quadrature.adaptive":
                # a call that raised may stop before its initial panels
                quad["subdivisions"] += max(0, extra["panels"] - extra["initial"]) // 2
                quad["unconverged"] += not extra["converged"]

    def per_round(x):
        return x / rounds

    def rate(n, s):
        return n / s if s > 0.0 else 0.0

    m = {
        "cli.compute_rows_s": per_round(total["cli.compute_rows"]),
        "cli.emit_s": per_round(total["cli.emit"]),
        "cli.self_s": per_round(sum(self_time[n] for n in ("cli.main", "cli.compute_rows", "cli.emit"))),
        "outage.df_calls": per_round(calls["outage.df"]),
        "outage.df_s": per_round(total["outage.df"]),
        "outage.af_calls": per_round(calls["outage.af"]),
        "outage.af_s": per_round(total["outage.af"]),
        "outage.af_ms_p50": statistics.median(af_ms) if af_ms else 0.0,
        "outage.af_ms_tail": _tail(af_ms),
        "outage.af_self_s": per_round(self_time["outage.af"]),
        "fading.fz_calls": per_round(calls["fading.fz"]),
        "fading.fz_s": per_round(total["fading.fz"]),
        "fading.fz_clamped_calls": per_round(fz_clamped),
        "fading.clamp_calls": per_round(calls["fading.clamp"]),
        "fading.clamp_s": per_round(total["fading.clamp"]),
        "fading.cdf_power_calls": per_round(counts["fading.cdf_power"]),
        "fading.pdf_power_calls": per_round(counts["fading.pdf_power"]),
        "fading.sample_calls": per_round(calls["fading.sample"]),
        "fading.sample_s": per_round(total["fading.sample"]),
        "fading.sample_draws_per_s": rate(draws["fading.sample"], total["fading.sample"]),
        "specfun.g2131_calls": per_round(calls["specfun.g2131"]),
    }
    for route in ("series", "log_series", "near_int_quad", "complement"):
        m[f"specfun.{route}_calls"] = per_round(calls[f"specfun.{route}"])
        m[f"specfun.{route}_s"] = per_round(total[f"specfun.{route}"])
    m.update({
        "specfun.kernel_tail_calls": per_round(calls["specfun.kernel_tail"]),
        "specfun.kernel_tail_s": per_round(total["specfun.kernel_tail"]),
        "specfun.bessel_evals": per_round(counts["specfun.bessel_k"] + counts["specfun.bessel_k_scaled"]),
        "specfun.reg_lower_gamma_calls": per_round(counts["specfun.reg_lower_gamma"]),
        "quadrature.calls": per_round(calls["quadrature.adaptive"]),
        "quadrature.integrand_evals": per_round(GK_NODES * counts["quadrature.panels"]),
        "quadrature.subdivisions": per_round(quad["subdivisions"]),
        "quadrature.unconverged_calls": per_round(quad["unconverged"]),
        "quadrature.self_s": per_round(self_time["quadrature.adaptive"] + self_time["quadrature.to_infinity"]),
        "mcsim.simulate_calls": per_round(calls["mcsim.simulate"]),
        "mcsim.draws": per_round(draws["mcsim.simulate"]),
        "mcsim.draws_per_s": rate(draws["mcsim.simulate"], total["mcsim.simulate"]),
        "mcsim.chain_count_s": per_round(self_time["mcsim.simulate"]),
        "relaysys.derive_constants_calls": per_round(calls["relaysys.derive_constants"]),
        "relaysys.derive_constants_s": per_round(total["relaysys.derive_constants"]),
    })
    return m, per_round(root_s)
