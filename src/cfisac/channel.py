"""Propagation draws: pathloss, fading, steering vectors, correlated target RCS."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .deployment import angles_from

LINK_KINDS = ("ue_ap_nlos", "ap_ap_los", "ap_target_los")


@dataclass
class ArrayGeometry:
    """Uniform linear array: element count, spacing in wavelengths, broadside."""

    n_antennas: int = 8
    spacing_wavelengths: float = 0.5
    broadside_azimuth: float = 0.0


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
    large_scale[(k, m)]  linear power gain of the UE-AP link.
    target_links[(l, m_rx, m_tx)]  reflection paths off target l.
    """

    h: dict = field(default_factory=dict)
    G: dict = field(default_factory=dict)
    large_scale: dict = field(default_factory=dict)
    target_links: dict = field(default_factory=dict)


# --- large-scale -----------------------------------------------------------


def pathloss_db(
    distance_3d: float | np.ndarray, link: str, f_ghz: float = 2.0
) -> float | np.ndarray:
    """Micro-urban pathloss in dB, deterministic part only.

    NLoS (UE-AP links): 36.7 log10(d) + 22.7 + 26 log10(f_GHz)
    LoS (AP-AP and AP-target links): 22.0 log10(d) + 28.0 + 20 log10(f_GHz)
    Distances are clamped below at 1 m; a distance array gives an array.
    """
    if link not in LINK_KINDS:
        raise ValueError(f"unknown link kind {link!r}, expected one of {LINK_KINDS}")
    d = np.maximum(distance_3d, 1.0)
    if link == "ue_ap_nlos":
        return 36.7 * np.log10(d) + 22.7 + 26.0 * np.log10(f_ghz)
    return 22.0 * np.log10(d) + 28.0 + 20.0 * np.log10(f_ghz)


def linear_gain(
    pathloss_db_value: float | np.ndarray, shadowing_db: float | np.ndarray = 0.0
) -> float | np.ndarray:
    return 10.0 ** (-(pathloss_db_value + shadowing_db) / 10.0)


# --- steering --------------------------------------------------------------


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
    az, el = angles_from(array_pos, point)
    return steering_vector(geom, az, el)


def steering_bank(
    geom: ArrayGeometry,
    array_positions: np.ndarray,
    broadsides: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """Steering vectors of every array toward every point, shape (P, M, N)."""
    delta = points[:, None, :] - array_positions[None, :, :]  # (P, M, 3)
    horiz = np.hypot(delta[..., 0], delta[..., 1])
    az = np.arctan2(delta[..., 1], delta[..., 0])
    el = np.arctan2(delta[..., 2], horiz)
    sincos = np.sin(az - broadsides[None, :]) * np.cos(el)
    phase = 2.0 * np.pi * geom.spacing_wavelengths * sincos
    return np.exp(1j * phase[..., None] * np.arange(geom.n_antennas))


# --- small-scale -----------------------------------------------------------


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly-symmetric complex Gaussian, unit variance per entry.

    Draws the real parts, then the imaginary parts, and scales each straight
    into one complex array (bitwise the same as ``(re + 1j*im) / sqrt(2)``).
    """
    scale = 1.0 / math.sqrt(2.0)
    out = np.empty(shape, dtype=complex)
    draw = rng.standard_normal(shape)
    np.multiply(draw, scale, out=out.real)
    rng.standard_normal(out=draw)
    np.multiply(draw, scale, out=out.imag)
    return out


def draw_ue_ap_channel(
    large_scale: float, geom: ArrayGeometry, rng: np.random.Generator
) -> np.ndarray:
    """Rayleigh UE-AP channel: sqrt(gain) times i.i.d. unit-variance entries."""
    if large_scale < 0:
        raise ValueError("large_scale must be non-negative")
    return math.sqrt(large_scale) * complex_normal(rng, geom.n_antennas)


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


# --- correlated RCS --------------------------------------------------------


def view_angle_kernel(
    point: np.ndarray, ap_positions: np.ndarray, angular_corr_std: float
) -> np.ndarray:
    """Gaussian correlation kernel over the APs' view angles from ``point``.

    K[i, j] = exp(-psi_ij^2 / (2 std^2)) where psi_ij is the angle between
    the directions from the point toward APs i and j.
    """
    diff = np.asarray(ap_positions, dtype=float) - np.asarray(point, dtype=float)[None, :]
    norms = np.linalg.norm(diff, axis=1)
    if np.any(norms < 1e-9):
        raise ValueError("an AP coincides with the evaluated position")
    units = diff / norms[:, None]
    cosines = np.clip(units @ units.T, -1.0, 1.0)
    psi = np.arccos(cosines)
    return np.exp(-(psi**2) / (2.0 * angular_corr_std**2))


def psd_sqrt(matrix: np.ndarray, jitter: float = 1e-12) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Slightly negative eigenvalues from roundoff are clipped; anything worse
    than the jitter tolerance is a genuine non-PSD input and raises.
    """
    eigvals, eigvecs = np.linalg.eigh(matrix)
    scale = max(float(eigvals[-1]), 1.0)
    if eigvals[0] < -jitter * scale * matrix.shape[0]:
        raise ValueError("covariance matrix is not positive semidefinite")
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.T


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
    square root of the pair covariance to i.i.d. draws. Keys are (m_rx, m_tx).
    """
    if len(tx_aps) == 0 or len(rx_aps) == 0:
        raise ValueError("tx and rx AP sets must be nonempty")
    rx_pos = np.asarray(ap_positions)[list(rx_aps)]
    tx_pos = np.asarray(ap_positions)[list(tx_aps)]
    cov = rcs_pair_covariance(point, rx_pos, tx_pos, model)
    root = psd_sqrt(cov)
    flat = root @ complex_normal(rng, cov.shape[0])
    alphas = {}
    for i, m in enumerate(rx_aps):
        for j, mp in enumerate(tx_aps):
            alphas[(m, mp)] = complex(flat[i * len(tx_aps) + j])
    return alphas


def draw_correlated_rcs_factored(
    k_rx_sqrt: np.ndarray,
    k_tx_sqrt: np.ndarray,
    variance: float,
    rng: np.random.Generator,
    n_draws: int = 1,
) -> np.ndarray:
    """Fast path for the same distribution using the kernel's product form.

    Because the pair covariance is variance * kron(K_rx, K_tx), its symmetric
    square root is sqrt(variance) * kron(sqrt(K_rx), sqrt(K_tx)), so mixing an
    i.i.d. matrix as S_rx G S_tx draws from the identical law. Returns
    (n_draws, n_rx, n_tx).
    """
    n_rx, n_tx = k_rx_sqrt.shape[0], k_tx_sqrt.shape[0]
    g = complex_normal(rng, (n_draws, n_rx, n_tx))
    return math.sqrt(variance) * np.einsum(
        "ab,fbc,cd->fad", k_rx_sqrt, g, k_tx_sqrt, optimize=True
    )


# --- composite target channel ----------------------------------------------


def composite_target_channel(link: TargetLink) -> np.ndarray:
    """Rank-one two-hop channel alpha sqrt(beta) a_rx a_tx^H."""
    return link.alpha * math.sqrt(link.beta) * np.outer(link.rx_steering, link.tx_steering.conj())
