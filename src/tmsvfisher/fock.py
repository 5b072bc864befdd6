"""Truncated two-mode Fock space: the per-mode cutoff and the index convention.

Index convention (fixed package-wide): the joint basis is signal-major,
joint index = n_s * d + n_i with d = max_photons + 1. A pure two-mode state
is stored as a (d, d) complex amplitude array c[n_s, n_i]; its flattened
C-order vector follows the same convention.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class FockCutoff:
    """Per-mode photon-number truncation; dimension per mode is max_photons + 1."""

    max_photons: int

    def __post_init__(self):
        if self.max_photons < 1:
            raise ConfigError(f"max_photons must be >= 1, got {self.max_photons}")

    @property
    def dim(self) -> int:
        return self.max_photons + 1

    @property
    def joint_dim(self) -> int:
        return self.dim * self.dim


def signal_photon_numbers(cutoff: FockCutoff) -> np.ndarray:
    """n_s for each joint index (signal-major flattening)."""
    d = cutoff.dim
    return np.repeat(np.arange(d), d)
