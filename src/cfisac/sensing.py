"""False-alarm thresholds of the fused GLRT statistic."""

from __future__ import annotations

import numpy as np
from scipy.special import gammainccinv

from .channel import complex_normal


def calibrate_threshold(total_rank: int, sigma_z2: float, target_pfa: float) -> float:
    """Analytic false-alarm threshold for the fused statistic.

    Under the noise-only hypothesis the statistic is a sum of ``total_rank``
    squared magnitudes of independent complex Gaussians, i.e. Gamma(rank,
    sigma_z2), so the threshold is the upper tail quantile at target_pfa.
    """
    if not 0.0 < target_pfa < 1.0:
        raise ValueError("target_pfa must lie in (0, 1)")
    if total_rank < 1:
        raise ValueError("total_rank must be >= 1")
    return sigma_z2 * float(gammainccinv(total_rank, target_pfa))


def calibrate_threshold_mc(
    total_rank: int,
    sigma_z2: float,
    target_pfa: float,
    n_draws: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo cross-check: empirical quantile of noise-only statistics."""
    if not 0.0 < target_pfa < 1.0:
        raise ValueError("target_pfa must lie in (0, 1)")
    z = complex_normal(rng, (n_draws, total_rank))
    stats = sigma_z2 * (np.abs(z) ** 2).sum(axis=1)
    return float(np.quantile(stats, 1.0 - target_pfa))
