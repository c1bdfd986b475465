"""Propagation draws: pathloss, fading, steering vectors, view-angle RCS kernels."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LINK_KINDS = ("ue_ap_nlos", "ap_target_los")


@dataclass
class ArrayGeometry:
    """Uniform linear array: element count, spacing in wavelengths, broadside."""

    n_antennas: int = 8
    spacing_wavelengths: float = 0.5
    broadside_azimuth: float = 0.0


# --- large-scale -----------------------------------------------------------


def pathloss_db(
    distance_3d: float | np.ndarray, link: str, f_ghz: float = 2.0
) -> float | np.ndarray:
    """Micro-urban pathloss in dB, deterministic part only.

    NLoS (UE-AP links): 36.7 log10(d) + 22.7 + 26 log10(f_GHz)
    LoS (AP-target and AP-AP links, both "ap_target_los"):
        22.0 log10(d) + 28.0 + 20 log10(f_GHz)
    Distances are clamped below at 1 m; a distance array gives an array.
    """
    if link not in LINK_KINDS:
        raise ValueError(f"unknown link kind {link!r}, expected one of {LINK_KINDS}")
    d = np.maximum(distance_3d, 1.0)
    if link == "ue_ap_nlos":
        return 36.7 * np.log10(d) + 22.7 + 26.0 * np.log10(f_ghz)
    return 22.0 * np.log10(d) + 28.0 + 20.0 * np.log10(f_ghz)


def linear_gain(pathloss_db_value: float | np.ndarray) -> float | np.ndarray:
    return 10.0 ** (-pathloss_db_value / 10.0)


# --- steering --------------------------------------------------------------


def steering_bank(
    geom: ArrayGeometry,
    array_positions: np.ndarray,
    broadsides: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """Steering vectors of every array toward every point, shape (P, M, N).

    Entry n is exp(j 2 pi spacing n sin(az - broadside) cos(el)) for the
    point's azimuth (from the x axis) and elevation seen from the array, so
    entries are unit modulus and each vector has squared norm N.
    """
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


# --- RCS correlation --------------------------------------------------------


def view_angle_kernel(
    point: np.ndarray, ap_positions: np.ndarray, angular_corr_std: float
) -> np.ndarray:
    """Gaussian correlation kernel over the APs' view angles from ``point``.

    K[i, j] = exp(-psi_ij^2 / (2 std^2)) where psi_ij is the angle between
    the directions from the point toward APs i and j. A stack of points
    (..., 3), with one AP set (M, 3) or one per point (..., M, 3), gives a
    stack of kernels (..., M, M).
    """
    diff = np.asarray(ap_positions, dtype=float) - np.asarray(point, dtype=float)[..., None, :]
    norms = np.linalg.norm(diff, axis=-1)
    if np.any(norms < 1e-9):
        raise ValueError("an AP coincides with the evaluated position")
    units = diff / norms[..., None]
    # one (..., M, M) buffer from the cosines to the kernel: a stack over every
    # range cell can be hundreds of MB
    kernel = units @ units.swapaxes(-1, -2)
    np.clip(kernel, -1.0, 1.0, out=kernel)
    np.arccos(kernel, out=kernel)
    np.square(kernel, out=kernel)
    kernel /= -2.0 * angular_corr_std**2
    return np.exp(kernel, out=kernel)


def psd_sqrt(matrix: np.ndarray, jitter: float = 1e-12) -> np.ndarray:
    """Hermitian PSD square root of a matrix, or of each of a stack (..., n, n).

    Slightly negative eigenvalues from roundoff are clipped, so a singular
    Gram has a root too; a matrix with one below the jitter tolerance is a
    genuine non-PSD input and raises.
    """
    eigvals, eigvecs = np.linalg.eigh(matrix)
    scale = np.maximum(eigvals[..., -1], 1.0)
    if np.any(eigvals[..., 0] < -jitter * scale * matrix.shape[-1]):
        raise ValueError("covariance matrix is not positive semidefinite")
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(eigvals)[..., None, :]) @ eigvecs.swapaxes(-1, -2).conj()
