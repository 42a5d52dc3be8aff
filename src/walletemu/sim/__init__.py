"""Deterministic discrete-event scale-out simulator."""

from .engine import BootType, SimConfig, SimStats, simulate
from .oracle import oracle_simulate
from .profiles import BootDist, VariantProfile, default_profiles

__all__ = [
    "BootDist",
    "BootType",
    "SimConfig",
    "SimStats",
    "VariantProfile",
    "default_profiles",
    "oracle_simulate",
    "simulate",
]
