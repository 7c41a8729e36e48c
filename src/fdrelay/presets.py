"""Named evaluation scenarios.

Three presets pin the fading family on all three branches (both hops and
the residual loop-back channel):

* ``rayleigh``   alpha=2, mu=1
* ``weibull``    alpha=3, mu=1
* ``nakagami``   alpha=2, mu=2

Shared baseline: 5 m hops with path-loss exponent 2, relay and destination
noise power 1e-4 W (the relay's split equally between antenna and
conversion stages), unit harvesting efficiency, half-block harvesting, unit
root-mean channel gains.  The loop-back envelope scale is set apart from
the hops (``lbi_fading.r_hat``, the CLI's ``--lbi-r-hat``) because residual
self-interference after cancellation is a hardware figure, not a
propagation one.
"""

from __future__ import annotations

from .errors import ScenarioError
from .fading import AlphaMuParams
from .relaysys import SystemConfig

PRESET_FADING = {
    "rayleigh": (2.0, 1.0),
    "weibull": (3.0, 1.0),
    "nakagami": (2.0, 2.0),
}

PRESET_NAMES = tuple(sorted(PRESET_FADING))


def preset_config(name: str, *,
                  source_power: float = 1.0,
                  target_rate: float = 1.0) -> SystemConfig:
    """Build the named preset at the given source power and target rate."""
    try:
        a, base_mu = PRESET_FADING[name]
    except KeyError:
        raise ScenarioError(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}") from None
    fading = AlphaMuParams(alpha=a, mu=base_mu, r_hat=1.0)
    return SystemConfig(
        source_power=source_power,
        hop1_distance=5.0,
        hop2_distance=5.0,
        hop1_pathloss=2.0,
        hop2_pathloss=2.0,
        hop1_fading=fading,
        hop2_fading=fading,
        lbi_fading=fading,
        noise_antenna_var=5e-5,
        noise_conversion_var=5e-5,
        noise_dest_var=1e-4,
        eh_efficiency=1.0,
        eh_time_fraction=0.5,
        target_rate=target_rate,
    )
