"""Scalar reference model that the tests compare the batched engine against.

One link, one AP or one UE at a time, with explicit dict maps and plain
loops: the half-open containment test of a region or cell footprint, the
view angles and steering vectors, the AP-AP and target channels,
the correlated RCS draw, the per-AP beams and transmit vectors, every link's
fading channel, the law stream that runs an arm on given channels, the
detection dictionary with its GLRT and sensing SNR, and the downlink SINR.
The library never calls any of it (tests/test_reference.py checks that no
``cfisac`` module grows a name defined here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from cfisac.channel import (
    ArrayGeometry,
    complex_normal,
    linear_gain,
    pathloss_db,
    psd_sqrt,
    view_angle_kernel,
)
from cfisac.deployment import RangeCell
from cfisac.harness import ZF_FALLBACK_TOL, allocate_power

# --- footprints -------------------------------------------------------------


def contains_xy(bounds: tuple[float, float, float, float], x: float, y: float) -> bool:
    """Whether (x, y) lies in the half-open footprint [x0, x1) x [y0, y1).

    ``bounds`` is (x0, y0, x1, y1), as ``RangeCell.bounds`` gives it.
    """
    x0, y0, x1, y1 = bounds
    return (x0 <= x < x1) and (y0 <= y < y1)


# --- view angles and steering ----------------------------------------------


def wrap_angle(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = (angle + np.pi) % (2.0 * np.pi) - np.pi
    if wrapped <= -np.pi:
        wrapped += 2.0 * np.pi
    return wrapped


def angles_from(array_pos: np.ndarray, target_pos: np.ndarray) -> tuple[float, float]:
    """Azimuth/elevation of ``target_pos`` as seen from an array at ``array_pos``.

    Azimuth is measured in the horizontal plane from the x axis (the common
    broadside reference); elevation from the horizontal. Both in (-pi, pi].
    """
    delta = np.asarray(target_pos, dtype=float) - np.asarray(array_pos, dtype=float)
    if float(np.linalg.norm(delta)) < 1e-9:
        raise ValueError("coincident array and target positions have no view angle")
    azimuth = math.atan2(delta[1], delta[0])
    elevation = math.atan2(delta[2], math.hypot(delta[0], delta[1]))
    return wrap_angle(azimuth), wrap_angle(elevation)


def steering_vector(geom: ArrayGeometry, azimuth: float, elevation: float) -> np.ndarray:
    """ULA response for a plane wave from (azimuth, elevation).

    Entry i is exp(j 2 pi spacing i sin(az - broadside) cos(el)); entries are
    unit modulus so the squared norm is exactly N.
    """
    phase = (
        2.0
        * np.pi
        * geom.spacing_wavelengths
        * math.sin(azimuth - geom.broadside_azimuth)
        * math.cos(elevation)
    )
    return np.exp(1j * phase * np.arange(geom.n_antennas))


def steering_to(geom: ArrayGeometry, array_pos: np.ndarray, point: np.ndarray) -> np.ndarray:
    return steering_vector(geom, *angles_from(array_pos, point))


# --- channels ----------------------------------------------------------------


@dataclass
class RcsModel:
    """Swerling-I reflectivity: complex Gaussian with a Gaussian angular kernel.

    ``variance`` is the per-link RCS variance in m^2 (linear);
    ``angular_corr_std`` the kernel width in radians over view-angle offsets.
    """

    variance: float = 10.0
    angular_corr_std: float = math.radians(10.0)


@dataclass
class TargetLink:
    """One (target, rx AP, tx AP) reflection path."""

    alpha: complex
    beta: float  # product of the two one-way linear path gains
    tx_steering: np.ndarray
    rx_steering: np.ndarray


@dataclass
class ChannelRealization:
    """All propagation quantities of one coherence interval (explicit maps).

    h[(k, m)]            UE k to AP m channel vector, length N.
    G[(m_tx, m_rx)]      direct AP-to-AP N x N matrix.
    target_links[(l, m_rx, m_tx)]  reflection paths off target l.
    """

    h: dict = field(default_factory=dict)
    G: dict = field(default_factory=dict)
    target_links: dict = field(default_factory=dict)


def draw_ap_ap_channel(
    large_scale: float,
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    tx_pos: np.ndarray,
    rx_pos: np.ndarray,
    rician_k: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Rician AP-AP matrix mapping the tx array onto the rx array.

    G = sqrt(gain) (sqrt(K/(K+1)) a_rx a_tx^H + sqrt(1/(K+1)) W) with W
    i.i.d. unit variance and the LoS component set by the inter-AP geometry.
    """
    if rician_k < 0:
        raise ValueError("rician_k must be >= 0")
    a_rx = steering_to(rx_geom, rx_pos, tx_pos)
    a_tx = steering_to(tx_geom, tx_pos, rx_pos)
    los = np.outer(a_rx, a_tx.conj())
    w = complex_normal(rng, (rx_geom.n_antennas, tx_geom.n_antennas))
    return math.sqrt(large_scale) * (
        math.sqrt(rician_k / (rician_k + 1.0)) * los + math.sqrt(1.0 / (rician_k + 1.0)) * w
    )


def rcs_pair_covariance(
    point: np.ndarray,
    rx_positions: np.ndarray,
    tx_positions: np.ndarray,
    model: RcsModel,
) -> np.ndarray:
    """Full covariance over (rx, tx) pairs, rx-major ordering.

    Cov[(m, m'), (n, n')] = variance * exp(-(psi_rx^2 + psi_tx^2)/(2 std^2)),
    the product of the receive-side and transmit-side angular kernels.
    """
    k_rx = view_angle_kernel(point, rx_positions, model.angular_corr_std)
    k_tx = view_angle_kernel(point, tx_positions, model.angular_corr_std)
    return model.variance * np.kron(k_rx, k_tx)


def draw_correlated_rcs(
    point: np.ndarray,
    tx_aps: Sequence[int],
    rx_aps: Sequence[int],
    ap_positions: np.ndarray,
    model: RcsModel,
    rng: np.random.Generator,
) -> dict[tuple[int, int], complex]:
    """Jointly Gaussian reflectivities for every (rx, tx) AP pair.

    Zero mean, per-entry variance ``model.variance``, correlated across pairs
    through the Gaussian view-angle kernel; realized by applying the matrix
    square root of the full pair covariance to i.i.d. draws. Keys are
    (m_rx, m_tx).
    """
    if len(tx_aps) == 0 or len(rx_aps) == 0:
        raise ValueError("tx and rx AP sets must be nonempty")
    rx_pos = np.asarray(ap_positions)[list(rx_aps)]
    tx_pos = np.asarray(ap_positions)[list(tx_aps)]
    cov = rcs_pair_covariance(point, rx_pos, tx_pos, model)
    flat = psd_sqrt(cov) @ complex_normal(rng, cov.shape[0])
    alphas = {}
    for i, m in enumerate(rx_aps):
        for j, mp in enumerate(tx_aps):
            alphas[(m, mp)] = complex(flat[i * len(tx_aps) + j])
    return alphas


def composite_target_channel(link: TargetLink) -> np.ndarray:
    """Rank-one two-hop channel alpha sqrt(beta) a_rx a_tx^H."""
    return link.alpha * math.sqrt(link.beta) * np.outer(link.rx_steering, link.tx_steering.conj())


# --- beams and transmit vectors ------------------------------------------------


@dataclass
class BeamformingPlan:
    """One coherence interval's beams and powers.

    comm_beams[(k, m)]  unit-norm beam of AP m toward UE k.
    sense_beams[m]      unit-norm sensing beam of transmit AP m.
    powers[(k, m)]      downlink power of AP m for UE k, watts.
    sense_powers[m]     sensing power of AP m, watts (0 if not sensing).
    zf_fallbacks        count of degenerate projections replaced by MF beams.
    """

    comm_beams: dict = field(default_factory=dict)
    sense_beams: dict = field(default_factory=dict)
    powers: dict = field(default_factory=dict)
    sense_powers: dict = field(default_factory=dict)
    zf_fallbacks: int = 0

    def ap_power(self, m: int) -> float:
        total = self.sense_powers.get(m, 0.0)
        for (k, ap), eta in self.powers.items():
            if ap == m:
                total += eta
        return total


def mf_comm_beam(h_km: np.ndarray) -> np.ndarray:
    """Conjugate-matched unit-norm beam w = h / ||h||."""
    norm = float(np.linalg.norm(h_km))
    if norm == 0.0:
        raise ValueError("cannot match a zero channel")
    return h_km / norm


def mf_sense_beam(
    geom: ArrayGeometry, cell_center: np.ndarray, ap_pos: np.ndarray
) -> np.ndarray:
    """Channel-matched sensing beam: the cell-center steering vector, normalized."""
    return steering_to(geom, ap_pos, cell_center) / math.sqrt(geom.n_antennas)


def zf_sense_beam(
    geom: ArrayGeometry,
    cell_center: np.ndarray,
    ap_pos: np.ndarray,
    ue_channels: Sequence[np.ndarray],
    k_zf: int,
    gains: Optional[Sequence[float]] = None,
) -> tuple[np.ndarray, bool]:
    """Partial zero-forcing sensing beam.

    Projects the matched sensing beam onto the orthogonal complement of the
    k_zf served-UE channels with the largest large-scale gains (annulling
    their sensing leakage), then renormalizes. Returns (beam, fallback); a
    numerically vanishing projection falls back to the MF beam and is
    flagged instead of raising.
    """
    if k_zf < 0:
        raise ValueError("k_zf must be >= 0")
    if k_zf > geom.n_antennas - 1:
        raise ValueError("k_zf must leave at least one free dimension (k_zf <= N-1)")
    if k_zf > len(ue_channels):
        raise ValueError("k_zf exceeds the number of served-UE channels")
    a = steering_to(geom, ap_pos, cell_center)
    if k_zf == 0:
        return a / math.sqrt(geom.n_antennas), False
    if gains is not None:
        order = np.argsort(-np.asarray(gains, dtype=float), kind="stable")
        chosen = [ue_channels[i] for i in order[:k_zf]]
    else:
        chosen = list(ue_channels)[:k_zf]
    basis = np.linalg.qr(np.column_stack(chosen))[0]
    w = a - basis @ (basis.conj().T @ a)
    norm = float(np.linalg.norm(w))
    if norm <= ZF_FALLBACK_TOL * math.sqrt(geom.n_antennas):
        return a / math.sqrt(geom.n_antennas), True
    return w / norm, False


def transmit_vector(
    plan: BeamformingPlan, m: int, data_symbols: dict[int, complex], sense_symbol: complex
) -> np.ndarray:
    """Superimpose the AP's weighted beams: s_m = sum_k sqrt(eta) w x + sqrt(eta0) w0 x0."""
    s = None
    for (k, ap), eta in plan.powers.items():
        if ap != m or eta == 0.0:
            continue
        term = math.sqrt(eta) * plan.comm_beams[(k, m)] * data_symbols[k]
        s = term if s is None else s + term
    eta0 = plan.sense_powers.get(m, 0.0)
    if eta0 > 0.0:
        term = math.sqrt(eta0) * plan.sense_beams[m] * sense_symbol
        s = term if s is None else s + term
    if s is None:
        n = len(next(iter(plan.comm_beams.values()))) if plan.comm_beams else 1
        return np.zeros(n, dtype=complex)
    return s


def build_plan(
    h: dict[tuple[int, int], np.ndarray],
    large_scale: np.ndarray,
    assignment,
    geom: ArrayGeometry,
    ap_positions: np.ndarray,
    cells_by_region: Sequence[np.ndarray],
    p_max: float,
    beamformer: str = "MF",
    k_zf: int = 0,
    rho: Optional[float] = None,
) -> BeamformingPlan:
    """Assemble the full per-AP plan for one coherence interval.

    ``cells_by_region[l]`` is the center of the cell currently inspected in
    region l; transmit APs with a sensing role beam toward the cell of their
    pointing region.
    """
    plan = BeamformingPlan()
    for m in assignment.tx_aps:
        served = assignment.served[m]
        sensing = assignment.pointing[m] >= 0
        per_ue, eta0 = allocate_power(p_max, len(served), sensing, rho=rho)
        for k in served:
            plan.comm_beams[(int(k), int(m))] = mf_comm_beam(h[(int(k), int(m))])
            plan.powers[(int(k), int(m))] = per_ue
        plan.sense_powers[int(m)] = eta0
        if sensing:
            cell_center = cells_by_region[assignment.pointing[m]]
            if beamformer == "ZF" and k_zf > 0 and len(served) > 0:
                n_null = min(k_zf, len(served), geom.n_antennas - 1)
                channels = [h[(int(k), int(m))] for k in served]
                gains = [large_scale[int(k), int(m)] for k in served]
                beam, fallback = zf_sense_beam(
                    geom, cell_center, ap_positions[m], channels, n_null, gains=gains
                )
                plan.zf_fallbacks += int(fallback)
            else:
                beam = mf_sense_beam(geom, cell_center, ap_positions[m])
            plan.sense_beams[int(m)] = beam
    return plan


def law_normals(
    h: dict[tuple[int, int], np.ndarray],
    large_scale: np.ndarray,
    assignment,
    plan: BeamformingPlan,
) -> np.ndarray:
    """One realization's law stream from which a bank arm rebuilds the channels h.

    First h_km / sqrt(g_km) for every served link, ordered by (UE, serving
    slot), N values each. Then AP by AP in ascending order, for each AP with
    a bank U (the conjugated comm beams of its served UEs, then its
    conjugated sensing beam if it senses), min(b_m, N) values per unserved
    UE in ascending order: L^-1 U h_km / sqrt(g_km) with L the lower
    Cholesky factor of U U^H, or h_km / sqrt(g_km) where b_m >= N.
    """
    values = []
    for k, aps in enumerate(assignment.serving):
        for m in aps:
            values.append(h[(k, int(m))] / math.sqrt(large_scale[k, m]))
    for m, served in enumerate(assignment.served):
        served = [int(k) for k in served]
        rows = [plan.comm_beams[(k, m)].conj() for k in served]
        if assignment.pointing[m] >= 0:
            rows.append(plan.sense_beams[m].conj())
        if not rows:
            continue
        bank = np.array(rows)
        n_ant = bank.shape[1]
        lower = np.linalg.cholesky(bank @ bank.conj().T) if len(rows) < n_ant else None
        for k in range(len(assignment.serving)):
            if k in served:
                continue
            h_km = h[(k, m)] if lower is None else np.linalg.solve(lower, bank @ h[(k, m)])
            values.append(h_km / math.sqrt(large_scale[k, m]))
    return np.concatenate(values)


# the purpose of the per-drop streams from which the engine once drew a dense
# fading tensor: it seeds none of them now, and the tests draw every link's
# reference channel from them
DENSE_PURPOSE = 3


def fading_tensor(
    seed: int, drop: int, gains: np.ndarray, n_fading: int, n_ant: int
) -> np.ndarray:
    """Every link's channel, (F, K, M, N): realization f is CN(0, I_N) per link
    from the stream (seed, drop, DENSE_PURPOSE, f), scaled by sqrt(g_km)."""
    sqrt_g = np.sqrt(gains)[:, :, None]
    shape = (*gains.shape, n_ant)
    return np.stack(
        [
            complex_normal(np.random.default_rng([seed, drop, DENSE_PURPOSE, f]), shape) * sqrt_g
            for f in range(n_fading)
        ]
    )


# --- observables, dictionaries, GLRT and sensing SNR -------------------------


@dataclass
class Dictionary:
    """Signal dictionary of one (inspected cell, receive AP) pair.

    ``columns`` holds one column per cluster transmit AP (built at the cell
    center, so it carries the footnoted cell/target mismatch by design);
    ``basis`` the left singular vectors with singular value above
    rank_tol * sigma_max, an orthonormal basis of the column space.
    """

    cell: Optional[RangeCell]
    rx_ap: int
    columns: np.ndarray  # (N, n_tx)
    basis: np.ndarray  # (N, rank)
    singular_values: np.ndarray
    rank: int


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


def svd_basis(columns: np.ndarray, rank_tol: float = 1e-10):
    """Thin SVD basis of the column space, truncated at rank_tol relative.

    The engine uses the closed rank-one form of its dictionaries instead and
    has no rank cut.
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

    def gain_and_steering(m):
        pos = layout.aps[m]
        g = linear_gain(pathloss_db(float(np.linalg.norm(cell.center - pos)), "ap_target_los", f_ghz))
        m_geom = ArrayGeometry(geom.n_antennas, geom.spacing_wavelengths, layout.broadsides[m])
        return g, steering_to(m_geom, pos, cell.center)

    g_rx, a_rx = gain_and_steering(rx_ap)
    sqrt_betas = np.zeros(len(tx_aps))
    projections = np.zeros(len(tx_aps), dtype=complex)
    for j, mp in enumerate(tx_aps):
        g_tx, a_tx = gain_and_steering(mp)
        sqrt_betas[j] = math.sqrt(g_tx * g_rx)
        projections[j] = a_tx.conj() @ tx_signals[mp]

    columns = a_rx[:, None] * (sqrt_betas * projections)[None, :]
    basis, singular_values, rank = svd_basis(columns, rank_tol)
    return Dictionary(cell, rx_ap, columns, basis, singular_values, rank)


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


def sensing_snr(
    dicts: Sequence[Dictionary], rcs_covariances: Sequence[np.ndarray], sigma_z2: float
) -> float:
    """Receive sensing SNR of the inspected cell.

    Ratio of the expected projected echo power, sum_m trace(D_m^H D_m R_m),
    to |M_rx| N sigma_z^2.
    """
    num = 0.0
    den = 0.0
    for d, r in zip(dicts, rcs_covariances):
        gram = d.columns.conj().T @ d.columns
        num += float(np.real(np.trace(gram @ r)))
        den += d.columns.shape[0] * sigma_z2
    return num / den if den > 0 else 0.0


# --- downlink SINR and rate ----------------------------------------------------


def communication_sinr(
    channels: ChannelRealization,
    plan: BeamformingPlan,
    assignment,
    ue: int,
    sigma_z2: float,
) -> float:
    """Downlink SINR of one UE with coherent combining across its serving APs.

    Useful power |sum_{m in M_k} sqrt(eta) h^H w|^2 against the same coherent
    sums toward every other UE, the sensing-beam leakage of every transmit
    AP, and thermal noise.
    """
    signal = 0.0 + 0.0j
    for m in assignment.serving[ue]:
        key = (ue, int(m))
        signal += math.sqrt(plan.powers[key]) * (
            channels.h[key].conj() @ plan.comm_beams[key]
        )
    interference = 0.0
    for j in range(len(assignment.serving)):
        if j == ue:
            continue
        cross = 0.0 + 0.0j
        for m in assignment.serving[j]:
            cross += math.sqrt(plan.powers[(j, int(m))]) * (
                channels.h[(ue, int(m))].conj() @ plan.comm_beams[(j, int(m))]
            )
        interference += abs(cross) ** 2
    sensing = 0.0
    for m, eta0 in plan.sense_powers.items():
        if eta0 > 0.0:
            sensing += eta0 * abs(channels.h[(ue, m)].conj() @ plan.sense_beams[m]) ** 2
    return abs(signal) ** 2 / (interference + sensing + sigma_z2)


def rate_bps(sinr: float, bandwidth_hz: float) -> float:
    """Shannon rate B log2(1 + SINR)."""
    if sinr < 0:
        raise ValueError("sinr must be non-negative")
    return bandwidth_hz * math.log2(1.0 + sinr)
