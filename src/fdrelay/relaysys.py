"""Dual-hop full-duplex relay with time-switched RF energy harvesting.

Each block of duration T splits into a harvesting slot (fraction eta) and a
data slot.  The relay has no battery: it retransmits with whatever power the
first-hop signal delivered, so the relay power is proportional to the
instantaneous first-hop channel gain.  The energy harvested over eta T is
spent over (1 - eta) T, so T cancels out of every SNR.  Because the relay
listens while it transmits, a residual loop-back channel survives
interference cancellation and caps the relay-side SNR.

This module holds the immutable scenario description and the constants
derived from it; the effective SNR of both relay strategies is
``mcsim.gamma_eff``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .fading import AlphaMuParams


@dataclass(frozen=True)
class SystemConfig:
    """Full scenario: geometry, powers, noise, fading, harvesting, rate."""

    source_power: float                 # W
    hop1_distance: float                # m
    hop2_distance: float                # m
    hop1_pathloss: float                # exponent
    hop2_pathloss: float                # exponent
    hop1_fading: AlphaMuParams
    hop2_fading: AlphaMuParams
    lbi_fading: AlphaMuParams           # residual loop-back channel
    noise_antenna_var: float            # W
    noise_conversion_var: float         # W
    noise_dest_var: float               # W
    eh_efficiency: float                # (0, 1]
    eh_time_fraction: float             # (0, 1)
    target_rate: float                  # bits/s/Hz

    def __post_init__(self):
        positives = {
            "source_power": self.source_power,
            "hop1_distance": self.hop1_distance,
            "hop2_distance": self.hop2_distance,
            "hop1_pathloss": self.hop1_pathloss,
            "hop2_pathloss": self.hop2_pathloss,
            "noise_antenna_var": self.noise_antenna_var,
            "noise_conversion_var": self.noise_conversion_var,
            "noise_dest_var": self.noise_dest_var,
            "target_rate": self.target_rate,
        }
        for name, v in positives.items():
            if not v > 0.0:
                raise DomainError(f"{name} must be positive, got {v}")
        if not 0.0 < self.eh_efficiency <= 1.0:
            raise DomainError(
                f"eh_efficiency must be in (0, 1], got {self.eh_efficiency}")
        if not 0.0 < self.eh_time_fraction < 1.0:
            raise DomainError(
                f"eh_time_fraction must be in (0, 1), got {self.eh_time_fraction}")


@dataclass(frozen=True)
class DerivedConstants:
    """Scenario constants computed once: conversion factor, threshold, SNR terms."""

    kappa: float      # eh_efficiency * eta / (1 - eta)
    nu: float         # SNR threshold supporting the target rate
    dest_coef: float  # kappa P_S / (path sigma_D^2), path = d1^m1 d2^m2
    beta1: float      # source power
    beta2: float      # kappa * source power
    beta3: float      # path * (antenna + conversion noise variance)
    beta4: float      # beta3 / kappa

    @property
    def v_star(self) -> float:
        """Loop-back threshold 1/(kappa nu): above it the relay SNR is below nu.

        A property, not a field, so that constants differing only in nu stay
        equal after ``replace(c, nu=0.0)``.
        """
        return 1.0 / (self.kappa * self.nu)


def derive_constants(cfg: SystemConfig) -> DerivedConstants:
    """Evaluate the scenario constants used throughout the outage formulas."""
    eta = cfg.eh_time_fraction
    kappa = cfg.eh_efficiency * eta / (1.0 - eta)
    x = cfg.target_rate / (1.0 - eta)
    nu = 2.0 ** x - 1.0 if x < 1024.0 else math.inf
    if not 0.0 < nu < math.inf:
        raise DomainError(
            f"target_rate / (1 - eh_time_fraction) = {x:g} puts the SNR threshold "
            f"2^x - 1 = {nu:g} outside the double range; x must be below 1024 "
            f"and above about 1.6e-16")
    try:
        path = (cfg.hop1_distance ** cfg.hop1_pathloss
                * cfg.hop2_distance ** cfg.hop2_pathloss)
    except OverflowError:
        path = math.inf
    if not 0.0 < path < math.inf:
        raise DomainError(
            f"path-loss product d1^m1 d2^m2 = {path:g} must be finite and above 0 "
            f"in double precision")
    beta3 = path * (cfg.noise_antenna_var + cfg.noise_conversion_var)
    return DerivedConstants(
        kappa=kappa,
        nu=nu,
        dest_coef=kappa * cfg.source_power / (path * cfg.noise_dest_var),
        beta1=cfg.source_power,
        beta2=kappa * cfg.source_power,
        beta3=beta3,
        beta4=beta3 / kappa,
    )
