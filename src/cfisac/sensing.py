"""Receive-AP observables, detection dictionaries, GLRT and sensing SNR."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.special import gammainccinv

from .channel import ChannelRealization, composite_target_channel, complex_normal
from .deployment import RangeCell


@dataclass
class Dictionary:
    """Signal dictionary of one (inspected cell, receive AP) pair.

    ``columns`` holds one column per cluster transmit AP (built at the cell
    center, so it carries the footnoted cell/target mismatch by design);
    ``basis`` the left singular vectors with singular value above
    rank_tol * sigma_max (``build_dictionary``'s argument, 1e-10 by default),
    an orthonormal basis of the column space.
    """

    cell: Optional[RangeCell]
    rx_ap: int
    columns: np.ndarray  # (N, n_tx)
    basis: np.ndarray  # (N, rank)
    singular_values: np.ndarray
    rank: int


@dataclass
class DetectionOutcome:
    """Fused test result for one cell inspection."""

    cell: Optional[RangeCell]
    statistic: float
    threshold: float
    decision: bool
    alpha_hat: dict = field(default_factory=dict)
    sensing_snr_db: float = float("-inf")


def simulate_rx_observable(
    channels: ChannelRealization,
    tx_signals: dict[int, np.ndarray],
    presence: Sequence[int],
    rx_ap: int,
    subtract_direct: bool,
    sigma_z2: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Received vector at one receive AP for the current epoch.

    Sums the echoes of every present target (at its true position, over all
    transmit APs), the direct AP-to-AP term, and thermal noise; with
    ``subtract_direct`` the direct term is removed exactly, modelling the
    perfectly known inter-AP channels.
    """
    n_ant = next(iter(tx_signals.values())).shape[0]
    y = np.zeros(n_ant, dtype=complex)
    for (l, m, mp), link in channels.target_links.items():
        if m != rx_ap or mp not in tx_signals:
            continue
        if presence[l]:
            y += composite_target_channel(link) @ tx_signals[mp]
    if not subtract_direct:
        for mp, s in tx_signals.items():
            y += channels.G[(mp, rx_ap)] @ s
    if sigma_z2 > 0.0 and rng is not None:
        y += math.sqrt(sigma_z2) * complex_normal(rng, n_ant)
    return y


def assemble_dictionary_columns(
    a_rx: np.ndarray, sqrt_betas: np.ndarray, tx_projections: np.ndarray
) -> np.ndarray:
    """Columns sqrt(beta_{m'}) (a_tx^H s_{m'}) a_rx for every cluster transmit AP."""
    return a_rx[:, None] * (sqrt_betas * tx_projections)[None, :]


def svd_basis(columns: np.ndarray, rank_tol: float = 1e-10):
    """Thin SVD basis of the column space, truncated at rank_tol relative.

    Only the op-level oracle builds general dictionaries; the batched engine
    uses their closed rank-one form and has no rank cut.
    """
    if columns.size == 0 or not np.any(columns):
        n = columns.shape[0]
        return np.zeros((n, 0), dtype=complex), np.zeros(0), 0
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    rank = int(np.sum(s > rank_tol * s[0]))
    return u[:, :rank], s, rank


def build_dictionary(
    cell: RangeCell,
    rx_ap: int,
    tx_aps: Sequence[int],
    layout,
    tx_signals: dict[int, np.ndarray],
    geom,
    f_ghz: float,
    rank_tol: float = 1e-10,
) -> Dictionary:
    """Dictionary for one (cell, receive AP): geometry evaluated at the cell center.

    Column m' is sqrt(beta_{l,m,m'}) a_rx(cell) (a_tx(cell)^H s_{m'}), with beta
    the product of the two one-way line-of-sight power gains via the cell
    center: the amplitude scale of the echo ``composite_target_channel`` draws.
    """
    from .channel import ArrayGeometry, linear_gain, pathloss_db, steering_vector
    from .deployment import angles_from

    center = cell.center
    rx_pos = layout.aps[rx_ap]
    g_rx = linear_gain(pathloss_db(float(np.linalg.norm(center - rx_pos)), "ap_target_los", f_ghz))
    rx_geom = ArrayGeometry(geom.n_antennas, geom.spacing_wavelengths, layout.broadsides[rx_ap])
    a_rx = steering_vector(rx_geom, *angles_from(rx_pos, center))

    sqrt_betas = np.zeros(len(tx_aps))
    projections = np.zeros(len(tx_aps), dtype=complex)
    for j, mp in enumerate(tx_aps):
        tx_pos = layout.aps[mp]
        g_tx = linear_gain(
            pathloss_db(float(np.linalg.norm(center - tx_pos)), "ap_target_los", f_ghz)
        )
        sqrt_betas[j] = math.sqrt(g_tx * g_rx)
        tx_geom = ArrayGeometry(geom.n_antennas, geom.spacing_wavelengths, layout.broadsides[mp])
        a_tx = steering_vector(tx_geom, *angles_from(tx_pos, center))
        projections[j] = a_tx.conj() @ tx_signals[mp]

    columns = assemble_dictionary_columns(a_rx, sqrt_betas, projections)
    basis, singular_values, rank = svd_basis(columns, rank_tol)
    return Dictionary(
        cell=cell,
        rx_ap=rx_ap,
        columns=columns,
        basis=basis,
        singular_values=singular_values,
        rank=rank,
    )


def glrt_statistic(dicts: Sequence[Dictionary], observables: Sequence[np.ndarray]) -> float:
    """Fused GLRT statistic: sum over receive APs of ||U^H y||^2."""
    if len(dicts) != len(observables):
        raise ValueError("one observable per receive AP is required")
    total = 0.0
    for d, y in zip(dicts, observables):
        if d.basis.shape[0] != y.shape[0]:
            raise ValueError("observable dimension does not match the dictionary")
        total += float(np.linalg.norm(d.basis.conj().T @ y) ** 2)
    return total


def ml_alpha_estimate(dictionary: Dictionary, y: np.ndarray) -> np.ndarray:
    """Closed-form ML reflectivity estimate (D^H D)^-1 D^H y.

    Rank-deficient dictionaries fall back to the minimum-norm least-squares
    solution.
    """
    return np.linalg.lstsq(dictionary.columns, y, rcond=None)[0]


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


def sensing_snr(
    dicts: Sequence[Dictionary],
    rcs_covariances: Sequence[np.ndarray],
    sigma_z2: float,
    rank_denominator: bool = False,
) -> float:
    """Receive sensing SNR of the inspected cell.

    Ratio of the expected projected echo power, sum_m trace(D_m^H D_m R_m),
    to |M_rx| N sigma_z^2. ``rank_denominator`` swaps N for the per-AP basis
    rank (the thin-basis alternative, reported for diagnostics only).
    """
    num = 0.0
    den = 0.0
    for d, r in zip(dicts, rcs_covariances):
        gram = d.columns.conj().T @ d.columns
        num += float(np.real(np.trace(gram @ r)))
        den += (d.rank if rank_denominator else d.columns.shape[0]) * sigma_z2
    return num / den if den > 0 else 0.0


def detect(statistic: float, threshold: float) -> bool:
    """Declare a target only above the threshold (strict inequality)."""
    return statistic > threshold


def evaluate_cell_detection(
    dicts: Sequence[Dictionary],
    observables: Sequence[np.ndarray],
    sigma_z2: float,
    target_pfa: float,
    rcs_covariances: Sequence[np.ndarray],
) -> DetectionOutcome:
    """Run the fused test for one cell and package the outcome."""
    statistic = glrt_statistic(dicts, observables)
    total_rank = sum(d.rank for d in dicts)
    threshold = calibrate_threshold(max(total_rank, 1), sigma_z2, target_pfa)
    snr = sensing_snr(dicts, rcs_covariances, sigma_z2)
    return DetectionOutcome(
        cell=dicts[0].cell if dicts else None,
        statistic=statistic,
        threshold=threshold,
        decision=detect(statistic, threshold),
        alpha_hat={d.rx_ap: ml_alpha_estimate(d, y) for d, y in zip(dicts, observables)},
        sensing_snr_db=10.0 * math.log10(snr) if snr > 0 else float("-inf"),
    )
