"""Hot numeric kernels of the batched engine.

Three reductions over the fading batch: the UE-to-UE cross-gain matrix
behind the downlink SINR, the sensing-beam leakage term, and the
accumulation of target echoes at the receive APs. Each is one dense numpy
contraction. They are not where most of a drop goes: on the ``utc-mf``
benchmark workload the Gaussian fading draw (``harness._fill_fading``),
split over both cores of a 2-core host, still takes about half of each
drop (30–39 of 59–73 ms).

When every AP serves at most N UEs, the first two come instead from per-AP
beam banks: ``bank_gains`` multiplies each AP's few beams by that AP's
channels, and ``bank_signals`` sums them with their symbols into the
transmit signals. A bank is three arrays: ``rows`` (F, L, N) holds the
conjugated beams, ``aps`` (L,) the AP of each row in ascending order, and
``columns`` (L,) the output column, or symbol, of each row.
"""

from __future__ import annotations

import numpy as np


def cross_gains(h: np.ndarray, w_conj: np.ndarray) -> np.ndarray:
    """Effective cross gains between every (observing UE, served UE) pair.

    a[f, k, j] = sum_m conj(h[f, k, m, :]) . w_amp[f, j, m, :], where w_amp
    already carries sqrt(eta) and is zero outside the serving sets. The
    beams come conjugated, w_conj = conj(w_amp), so that a is the conjugate
    of h . w_conj and h itself is never conjugated (negating an imaginary
    part is exact).
    """
    n_fading, n_ues, n_aps, n_ant = h.shape
    hf = h.reshape(n_fading, n_ues, n_aps * n_ant)
    wf = w_conj.reshape(n_fading, n_ues, n_aps * n_ant)
    a = hf @ wf.transpose(0, 2, 1)
    return np.conjugate(a, out=a)


def sense_leakage(h: np.ndarray, w0_amp: np.ndarray) -> np.ndarray:
    """Total sensing-beam interference power received by every UE.

    s[f, k] = sum_m |conj(h[f, k, m, :]) . w0_amp[f, m, :]|^2, with w0_amp
    zero for APs without a sensing beam. One batched matmul gives every
    AP's (K, N) channels times its beam, (F, M, K, 1); the squared
    magnitudes are then summed over M. The small (F, M, N) operand is the
    one conjugated: |conj(h) . w| = |h . conj(w)| bitwise, and h is never
    copied.
    """
    g = np.matmul(h.transpose(0, 2, 1, 3), w0_amp.conj()[..., None])
    return (np.abs(g[..., 0]) ** 2).sum(axis=1)


def _ap_segments(aps: np.ndarray) -> np.ndarray:
    """Start of each AP's run of rows in an ascending row-to-AP map."""
    return np.flatnonzero(np.diff(aps, prepend=-1))


def bank_gains(
    h: np.ndarray, rows: np.ndarray, aps: np.ndarray, columns: np.ndarray, n_columns: int
) -> np.ndarray:
    """Every bank row's gain toward every UE, summed into the row's column.

    g[c, f, k] = sum over rows i with columns[i] == c of
    h[f, k, aps[i], :] . rows[f, i, :], one batched matmul per AP. With rows
    the conjugated beams, g[j, f, k] is conj(a[f, k, j]) of ``cross_gains``
    for a UE column j, and |g[c, f, k]|^2 the leakage of a sensing beam
    that has a column of its own.
    """
    n_fading, n_ues = h.shape[:2]
    g = np.zeros((n_columns, n_fading, n_ues), dtype=complex)
    starts = _ap_segments(aps)
    for lo, hi in zip(starts, [*starts[1:], len(aps)]):
        gains = rows[:, lo:hi] @ h[:, :, aps[lo], :].transpose(0, 2, 1)
        g[columns[lo:hi]] += gains.transpose(1, 0, 2)
    return g


def bank_signals(
    rows: np.ndarray, aps: np.ndarray, columns: np.ndarray, symbols: np.ndarray, n_aps: int
) -> np.ndarray:
    """Transmit signal of every AP from its bank rows and their symbols.

    s[f, m, :] = sum over rows i of AP m of conj(rows[f, i, :]) *
    symbols[f, columns[i]], zero for an AP without rows.
    """
    s = np.zeros((rows.shape[0], n_aps, rows.shape[2]), dtype=complex)
    terms = rows * symbols[:, columns].conj()[:, :, None]
    starts = _ap_segments(aps)
    s[:, aps[starts]] = np.add.reduceat(terms, starts, axis=1).conj()
    return s


def echo_mix(a_rx: np.ndarray, ab: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Superpose all target echoes at the receive APs, one echo per snapshot.

    echo[j, f, r, :] = sum_t a_rx[t, r, :] * sum_i ab[f, t, r, i] * c[f, t, i, j]

    a_rx: (T, R, N) steering of each receive AP toward each true target.
    ab:   (F, T, R, J) reflectivity draws mixed over the receive APs and scaled
          by their amplitude gains, over J, the snapshot axis.
    c:    (F, T, J, J) square root of the snapshot Gram of each transmit side.
    """
    return np.einsum("trn,ftrj->jfrn", a_rx, ab @ c, optimize=True)
