import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def disable(monkeypatch):
    """disable(module, names): the named functions raise, wherever fdrelay binds them.

    Names bound by ``from ... import`` in other fdrelay modules are replaced
    too, so a call from any layer reaches the raising stand-in.
    """
    def apply(module, names):
        for name in names:
            target = getattr(module, name)

            def raising(*args, _name=f"{module.__name__}.{name}", **kwargs):
                raise AssertionError(f"{_name} called")

            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "fdrelay" or mod_name.startswith("fdrelay.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        monkeypatch.setattr(mod, attr, raising)
    return apply
