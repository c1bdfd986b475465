"""Hot numeric kernels of the batched engine.

Three reductions over the fading batch: the UE-to-UE cross-gain matrix
behind the downlink SINR, the sensing-beam leakage term, and the
accumulation of target echoes at the receive APs. Each is one dense numpy
contraction. The first two serve the dense downlink formula (TC/CF when
some AP serves more than N UEs) on the transmit APs' law-stream channels.

The bank formula (UC/UTC) draws each AP's unserved links in law through the
lower Cholesky factor of its bank's Gram, ``cholesky_lower``.

Each realization block of ``harness._run_table`` runs the first two on its
own rows and core, and ``echo_mix`` runs once per arm on all realizations.
In traced perfbench runs (2 cores, BLAS at one thread, ``BENCH_24.json``),
when the first two still ran over all M APs rather than the transmit APs,
they took 3.3 and 1.3 ms of thread time in a 39 ms ``cf-mf`` drop;
``utc-mf`` takes the bank formula, which calls neither, and ``echo_mix``
costs 0.1 ms of its 25 ms drop.
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


# a Cholesky pivot at most this times its diagonal entry counts as zero
PIVOT_TOL = 1e-12


def cholesky_lower(gram: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L (..., b, b) of a stack of Hermitian PSD Grams.

    The factor is computed column by column, so row i of L reads rows 0..i
    of the Gram only. A zero pivot (a row in the span of the rows before
    it) gets a zero column, so a singular Gram gives a factor without NaN,
    and L L^H is still the Gram.
    """
    n_rows = gram.shape[-1]
    lower = np.zeros_like(gram)
    for j in range(n_rows):
        row = lower[..., j, :j]
        diag = gram[..., j, j].real
        pivot = diag - (row.real**2 + row.imag**2).sum(axis=-1)
        kept = pivot > PIVOT_TOL * diag
        root = np.sqrt(np.where(kept, pivot, 0.0))
        lower[..., j, j] = root
        if j + 1 < n_rows:
            col = gram[..., j + 1 :, j] - (lower[..., j + 1 :, :j] * row.conj()[..., None, :]).sum(-1)
            inv = np.divide(1.0, root, out=np.zeros(root.shape), where=kept)
            lower[..., j + 1 :, j] = col * inv[..., None]
    return lower


def echo_mix(a_rx: np.ndarray, ab: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Superpose all target echoes at the receive APs, one echo per snapshot.

    echo[j, f, r, :] = sum_t a_rx[t, r, :] * sum_i ab[f, t, r, i] * c[f, t, i, j]

    a_rx: (T, R, N) steering of each receive AP toward each true target.
    ab:   (F, T, R, J) reflectivity draws mixed over the receive APs and scaled
          by their amplitude gains, over J, the snapshot axis.
    c:    (F, T, J, J) square root of the snapshot Gram of each transmit side.
    """
    return np.einsum("trn,ftrj->jfrn", a_rx, ab @ c, optimize=True)
