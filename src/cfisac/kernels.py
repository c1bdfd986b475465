"""Hot numeric kernels of the batched engine.

The Monte Carlo loop spends most of its time in three reductions over the
fading batch: the UE-to-UE cross-gain matrix behind the downlink SINR, the
sensing-beam leakage term, and the accumulation of target echoes at the
receive APs. Each is one dense numpy contraction.
"""

from __future__ import annotations

import numpy as np


def cross_gains(h: np.ndarray, w_amp: np.ndarray) -> np.ndarray:
    """Effective cross gains between every (observing UE, served UE) pair.

    a[f, k, j] = sum_m conj(h[f, k, m, :]) . w_amp[f, j, m, :], where w_amp
    already carries sqrt(eta) and is zero outside the serving sets.
    """
    n_fading, n_ues, n_aps, n_ant = h.shape
    hc = h.conj().reshape(n_fading, n_ues, n_aps * n_ant)
    wf = w_amp.reshape(n_fading, n_ues, n_aps * n_ant)
    return hc @ wf.transpose(0, 2, 1)


def sense_leakage(h: np.ndarray, w0_amp: np.ndarray) -> np.ndarray:
    """Total sensing-beam interference power received by every UE.

    s[f, k] = sum_m |conj(h[f, k, m, :]) . w0_amp[f, m, :]|^2, with w0_amp
    zero for APs without a sensing beam. The small (F, M, N) operand is the
    one conjugated: |conj(h) . w| = |h . conj(w)| bitwise.
    """
    g = np.einsum("fkmn,fmn->fkm", h, w0_amp.conj(), optimize=True)
    return (np.abs(g) ** 2).sum(axis=2)


def echo_mix(a_rx: np.ndarray, ab: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Superpose all target echoes at the receive APs.

    echo[f, r, :] = sum_t a_rx[t, r, :] * sum_p ab[f, t, r, p] * c[f, t, p]

    a_rx: (T, R, N) steering of each receive AP toward each true target.
    ab:   (F, T, R, P) reflectivities scaled by the two-way amplitude gains.
    c:    (F, T, P) projections of each transmit signal on the target path.
    """
    if ab.shape[1] == 0:
        return np.zeros((ab.shape[0], ab.shape[2], a_rx.shape[2]), dtype=np.complex128)
    weights = np.einsum("ftrp,ftp->ftr", ab, c, optimize=True)
    return np.einsum("trn,ftr->frn", a_rx, weights, optimize=True)
