"""Outage analysis of an energy-harvesting full-duplex relay link.

A dual-hop link whose relay is powered purely by harvested RF energy and
operates full duplex over generalized alpha-mu fading.  The package pairs
closed-form outage expressions with an independent Monte Carlo simulator so
each can validate the other, and ships a CLI for parameter sweeps.
"""

from .errors import DomainError, ScenarioError
from .fading import AlphaMuParams, ProductDistParams, cdf_power, pdf_power
from .mcsim import McEstimate, simulate_grid, simulate_outage
from .outage import OutageResult, outage_af, outage_df, outage_high_snr
from .presets import PRESET_NAMES, preset_config
from .relaysys import DerivedConstants, SystemConfig, derive_constants

__version__ = "0.1.0"

__all__ = [
    # engines
    "McEstimate",
    "OutageResult",
    "outage_af",
    "outage_df",
    "outage_high_snr",
    "simulate_grid",
    "simulate_outage",
    # distributions
    "AlphaMuParams",
    "ProductDistParams",
    "cdf_power",
    "pdf_power",
    # config
    "DerivedConstants",
    "SystemConfig",
    "derive_constants",
    # presets
    "PRESET_NAMES",
    "preset_config",
    # errors
    "DomainError",
    "ScenarioError",
]
