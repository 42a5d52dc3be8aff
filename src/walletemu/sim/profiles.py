"""Variant boot-time profiles for the scale-out simulator.

Cold-boot means for CVM (8.3 s), VM (3.7 s), Container (1.93 s) and the
partitioned runtime "Wallet" (cold 2.38 s, fork-based lukewarm 10.3 ms,
warm 0.5 ms) follow the measured platform numbers; boot distributions
default to point masses at those means, with optional log-normal jitter.
Warm-boot means for the conventional variants are not published; the
defaults here (CVM 10 ms > VM 5 ms > Container/MicroVM 2 ms) preserve the
measured warm-start ranking and are plainly tunable.

Per-function memory: CVM 336 MiB (168 GB / 500 functions) and MicroVM
17 MiB (8.5 GB / 500); VM and Container values are unpublished defaults.
The CVM per-node instance cap reflects the 509 available encryption keys.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

MIB = 1048576


class BootType(str, Enum):
    COLD = "cold"
    LUKEWARM = "lukewarm"
    WARM = "warm"


@dataclass(frozen=True)
class BootDist:
    """Boot-duration distribution: point mass, or mean-preserving log-normal."""

    mean_ms: float
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.mean_ms < 0 or self.sigma < 0:
            raise ValueError("boot distribution parameters must be >= 0")

    @property
    def is_point_mass(self) -> bool:
        """True when every sample is ``mean_ms`` and sampling draws no rng."""
        return self.sigma == 0.0 or self.mean_ms == 0.0

    def sample(self, rng: random.Random) -> float:
        if self.is_point_mass:
            return self.mean_ms
        # mu chosen so the log-normal mean equals mean_ms.
        mu = math.log(self.mean_ms) - self.sigma ** 2 / 2.0
        return rng.lognormvariate(mu, self.sigma)


@dataclass(frozen=True)
class VariantProfile:
    """Scheduling-relevant parameters of one deployment variant."""

    name: str
    cold_boot: BootDist
    warm_boot: BootDist
    lukewarm_boot: Optional[BootDist] = None
    per_function_memory: int = 0
    per_node_instance_cap: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.lukewarm_boot is not None) != (self.name == "Wallet"):
            raise ValueError(
                "the lukewarm tier exists exactly for the Wallet variant")

    def with_jitter(self, sigma: float) -> "VariantProfile":
        def jitter(dist: Optional[BootDist]) -> Optional[BootDist]:
            if dist is None:
                return None
            return BootDist(dist.mean_ms, sigma)

        return VariantProfile(self.name, jitter(self.cold_boot),
                              jitter(self.warm_boot),
                              jitter(self.lukewarm_boot),
                              self.per_function_memory,
                              self.per_node_instance_cap)

    def scaled(self, factor: float) -> "VariantProfile":
        """Pointwise-scale all boot means (used by dominance tests)."""
        def scale(dist: Optional[BootDist]) -> Optional[BootDist]:
            if dist is None:
                return None
            return BootDist(dist.mean_ms * factor, dist.sigma)

        return VariantProfile(self.name, scale(self.cold_boot),
                              scale(self.warm_boot),
                              scale(self.lukewarm_boot),
                              self.per_function_memory,
                              self.per_node_instance_cap)


def default_profiles() -> dict[str, VariantProfile]:
    return {
        "CVM": VariantProfile(
            "CVM",
            cold_boot=BootDist(8300.0),
            warm_boot=BootDist(10.0),
            per_function_memory=336 * MIB,
            per_node_instance_cap=509,
        ),
        "VM": VariantProfile(
            "VM",
            cold_boot=BootDist(3700.0),
            warm_boot=BootDist(5.0),
            per_function_memory=128 * MIB,
        ),
        "Container": VariantProfile(
            "Container",
            cold_boot=BootDist(1930.0),
            warm_boot=BootDist(2.0),
            per_function_memory=48 * MIB,
        ),
        "MicroVM": VariantProfile(
            "MicroVM",
            cold_boot=BootDist(800.0),
            warm_boot=BootDist(2.0),
            per_function_memory=17 * MIB,
        ),
        "Wallet": VariantProfile(
            "Wallet",
            cold_boot=BootDist(2380.0),
            warm_boot=BootDist(0.5),
            lukewarm_boot=BootDist(10.3),
            per_function_memory=60 * 1024,
        ),
    }
