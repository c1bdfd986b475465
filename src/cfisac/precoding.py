"""Per-AP downlink power split and the zero-forcing fallback tolerance."""

from __future__ import annotations

from typing import Optional

# a projected ZF beam with norm at most this times sqrt(N) falls back to MF
ZF_FALLBACK_TOL = 1e-9


def allocate_power(
    p_max: float, n_served: int, sensing_active: bool, rho: Optional[float] = None
) -> tuple[float, float]:
    """Split the per-AP budget over the served UEs and the sensing beam.

    Default is an equal share per beam. With ``rho`` set, the sensing beam
    takes rho * p_max and the UEs split the remainder equally. Returns
    (per-UE power, sensing power); the sensing power absorbs the floating
    point residual so the budget closes exactly.
    """
    if p_max <= 0:
        raise ValueError("p_max must be positive")
    if n_served == 0 and not sensing_active:
        return 0.0, 0.0
    if not sensing_active:
        return p_max / n_served, 0.0
    if n_served == 0:
        return 0.0, p_max
    if rho is None:
        per_ue = p_max / (n_served + 1)
    else:
        per_ue = (1.0 - rho) * p_max / n_served
    return per_ue, max(p_max - n_served * per_ue, 0.0)
