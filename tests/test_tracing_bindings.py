"""The benchmark tracer rebinds fdrelay functions by (module, attribute) name.

A name missing from the package makes every traced benchmark row fail, so
each one is resolved here, without installing the tracer.  A name the
package stops calling through its module reads 0 instead, so two AF rows
also run under the installed tracer, in a fresh interpreter.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fdrelay.presets import preset_config

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _bindings():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {**tracing.SPANS, **tracing.COUNTS}


BINDINGS = _bindings()


@pytest.mark.parametrize("name", sorted(BINDINGS))
def test_traced_name_resolves(name):
    module, attr = BINDINGS[name]
    assert callable(getattr(importlib.import_module(module), attr, None)), name


# run in a fresh interpreter, since installing the tracer rebinds the package
_REACH = """
import collections, json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer
from fdrelay import cli
tracer = Tracer()
tracer.install()
for argv in (["--preset", "nakagami", "--mode", "af", "--method", "analytic", "--rate", "2"],
             ["--config", sys.argv[2], "--mode", "af", "--method", "analytic"]):
    assert cli.main(argv) == 0
spans = collections.Counter(rec[0] for rec in tracer.spans)
print(json.dumps({**tracer.counts, **spans}))
"""

# each must stay non-zero: a refactor that calls a traced function by
# another name silently zeroes its layer's metrics
REACHED = ("fading.fz", "specfun.g2131", "specfun.log_series", "specfun.series",
           "specfun.complement", "specfun.kernel_tail", "quadrature.panels",
           "fading.pdf_power", "specfun.bessel_k_scaled")


def test_tracer_reaches_every_layer_of_an_af_row(tmp_path):
    cfg = preset_config("rayleigh", source_power=10.0, target_rate=2.0)
    doc = {"id": "two-branch", "config": {
        **{k: getattr(cfg, k) for k in ("source_power", "hop1_distance", "hop2_distance",
                                        "hop1_pathloss", "hop2_pathloss", "noise_antenna_var",
                                        "noise_conversion_var", "noise_dest_var",
                                        "eh_efficiency", "eh_time_fraction", "target_rate")},
        "hop1_fading": {"alpha": 2.0, "mu": 1.3, "r_hat": 1.0},
        "hop2_fading": {"alpha": 2.0, "mu": 1.8, "r_hat": 1.0},
        "lbi_fading": {"alpha": 2.0, "mu": 1.0, "r_hat": 1.0}}}
    scenario = tmp_path / "two-branch.json"
    scenario.write_text(json.dumps(doc))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", _REACH, str(_TRACING.parent), str(scenario)],
                         capture_output=True, text=True, env=env, timeout=120, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    missing = [name for name in REACHED if not seen.get(name)]
    assert not missing, missing
