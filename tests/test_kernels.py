from types import SimpleNamespace

import numpy as np
import pytest

from cfisac import kernels
from cfisac.channel import complex_normal
from cfisac.harness import _bank_downlink, _bank_tables, _mf_beams
from reference import BeamformingPlan, law_normals, mf_comm_beam


def random_problem(rng, n_fading=3, n_ues=5, n_aps=7, n_ant=4, q=2):
    h = complex_normal(rng, (n_fading, n_ues, n_aps, n_ant))
    w_amp = np.zeros_like(h)
    for k in range(n_ues):
        serving = rng.choice(n_aps, size=q, replace=False)
        w_amp[:, k, serving, :] = complex_normal(rng, (n_fading, q, n_ant))
    return h, w_amp


class TestDispatch:
    """Each kernel against a direct-sum loop over its defining formula."""

    def test_cross_gains_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        h, w_amp = random_problem(rng, n_fading=2, n_ues=3, n_aps=4, n_ant=2)
        got = kernels.cross_gains(h, w_amp.conj())
        for f in range(2):
            for k in range(3):
                for j in range(3):
                    expected = sum(
                        np.vdot(h[f, k, m], w_amp[f, j, m]) for m in range(4)
                    )
                    assert got[f, k, j] == pytest.approx(expected, rel=1e-10)

    def test_sense_leakage_matches_direct_sum(self):
        rng = np.random.default_rng(1)
        h, _ = random_problem(rng)
        w0_amp = complex_normal(rng, (3, 7, 4))
        sensing = [0, 2, 5]
        w0_amp[:, np.setdiff1d(np.arange(7), sensing), :] = 0.0
        got = kernels.sense_leakage(h, w0_amp)
        assert got.shape == (3, 5)
        for f in range(3):
            for k in range(5):
                expected = sum(abs(np.vdot(h[f, k, m], w0_amp[f, m])) ** 2 for m in sensing)
                assert got[f, k] == pytest.approx(expected, rel=1e-10)

    def test_sense_leakage_bitwise_matches_conjugated_channel(self):
        rng = np.random.default_rng(4)
        h, _ = random_problem(rng, n_fading=6, n_ues=9, n_aps=11, n_ant=8)
        w0_amp = complex_normal(rng, (6, 11, 8))
        w0_amp[:, [1, 4, 7], :] = 0.0
        g = np.matmul(h.conj().transpose(0, 2, 1, 3), w0_amp[..., None])  # (F, M, K, 1)
        expected = (np.abs(g[..., 0]) ** 2).sum(axis=1)
        got = kernels.sense_leakage(h, w0_amp)
        assert np.array_equal(got.view(np.float64), expected.view(np.float64))

    def test_echo_mix_matches_direct_sum(self):
        rng = np.random.default_rng(2)
        n_fading, n_targets, n_rx, n_snap, n_ant = 5, 4, 3, 2, 6
        a_rx = complex_normal(rng, (n_targets, n_rx, n_ant))
        ab = complex_normal(rng, (n_fading, n_targets, n_rx, n_snap))
        c = complex_normal(rng, (n_fading, n_targets, n_snap, n_snap))
        got = kernels.echo_mix(a_rx, ab, c)
        assert got.shape == (n_snap, n_fading, n_rx, n_ant)
        for j in range(n_snap):
            for f in range(n_fading):
                for r in range(n_rx):
                    expected = np.zeros(n_ant, dtype=complex)
                    for t in range(n_targets):
                        weight = sum(ab[f, t, r, i] * c[f, t, i, j] for i in range(n_snap))
                        expected += a_rx[t, r] * weight
                    np.testing.assert_allclose(got[j, f, r], expected, rtol=1e-10, atol=1e-12)

    def test_zero_targets_echo(self):
        out = kernels.echo_mix(
            np.zeros((0, 2, 4), dtype=complex),
            np.zeros((3, 0, 2, 1), dtype=complex),
            np.zeros((3, 0, 1, 1), dtype=complex),
        )
        np.testing.assert_array_equal(out, np.zeros((1, 3, 2, 4)))


class TestCholesky:
    """The bank factor: L L^H is the Gram, and row i reads rows 0..i only."""

    @staticmethod
    def grams(rng, shape, n_rows, n_ant=8):
        rows = complex_normal(rng, (*shape, n_rows, n_ant))
        return rows, rows @ rows.conj().swapaxes(-1, -2)

    def test_matches_lapack_on_full_rank_grams(self):
        _, gram = self.grams(np.random.default_rng(0), (5, 3), 4)
        lower = kernels.cholesky_lower(gram)
        np.testing.assert_allclose(lower, np.linalg.cholesky(gram), rtol=1e-12, atol=1e-12)

    def test_rows_do_not_read_later_rows(self):
        # the sensing row comes last: changing it leaves every other row's bits
        rng = np.random.default_rng(1)
        rows, gram = self.grams(rng, (6,), 5)
        rows[:, -1] = complex_normal(rng, (6, 8))
        other = rows @ rows.conj().swapaxes(-1, -2)
        a, b = kernels.cholesky_lower(gram), kernels.cholesky_lower(other)
        assert np.array_equal(a[:, :-1].view(np.float64), b[:, :-1].view(np.float64))
        assert not np.array_equal(a[:, -1], b[:, -1])

    def test_singular_grams_give_a_factor_without_nan(self):
        # a zero row and a row in the span of the rows before it
        rng = np.random.default_rng(2)
        rows = complex_normal(rng, (4, 5, 8))
        rows[:, 1] = 0.0
        rows[:, 3] = 2.0 * rows[:, 0] - 1j * rows[:, 2]
        gram = rows @ rows.conj().swapaxes(-1, -2)
        with np.errstate(all="raise"):
            lower = kernels.cholesky_lower(gram)
        assert np.isfinite(lower).all()
        np.testing.assert_allclose(np.abs(lower[:, [1, 3], [1, 3]]), 0.0, atol=1e-6)
        scale = np.abs(gram).max()
        np.testing.assert_allclose(
            lower @ lower.conj().swapaxes(-1, -2), gram, rtol=0, atol=1e-12 * scale
        )


class TestBeamBank:
    """The per-AP bank path against the dense beams it replaces."""

    def test_bank_matches_dense_path(self):
        # on the law stream that rebuilds a full tensor, the bank path gives the
        # dense kernels' cross gains, leakage and transmit signals: AP 2 only
        # senses, AP 3 is idle, AP 1 serves and does not sense, and AP 4's bank
        # has b = N + 1
        rng = np.random.default_rng(8)
        n_fading, n_ues, n_aps, n_ant = 4, 7, 6, 3
        serving = [np.array(aps) for aps in ([0, 1], [4], [1, 5], [4, 0], [5], [4, 1], [0])]
        served = [np.array([k for k, aps in enumerate(serving) if m in aps]) for m in range(n_aps)]
        pointing = np.array([0, -1, 0, -1, 0, -1])
        gains = rng.uniform(0.5, 2.0, (n_ues, n_aps))
        h = complex_normal(rng, (n_fading, n_ues, n_aps, n_ant)) * np.sqrt(gains)[..., None]
        ue_amp = rng.uniform(0.5, 2.0, n_aps)
        sqrt_eta0 = np.where(pointing >= 0, rng.uniform(0.5, 2.0, n_aps), 0.0)
        amp = np.zeros((n_ues, n_aps))
        for k, aps in enumerate(serving):
            amp[k, aps] = ue_amp[aps]
        ctx = SimpleNamespace(
            amp=amp,
            ue_amp=ue_amp,
            sqrt_eta0=sqrt_eta0,
            gains=gains,
            assignment=SimpleNamespace(serving=serving, served=served, pointing=pointing),
        )
        w0 = np.zeros((n_fading, n_aps, n_ant), dtype=complex)
        w0[:, pointing >= 0] = complex_normal(rng, (n_fading, 3, n_ant))
        w0 /= np.maximum(np.linalg.norm(w0, axis=2, keepdims=True), 1e-300)
        ues = np.repeat(np.arange(n_ues), [len(aps) for aps in serving])
        link_aps = np.concatenate(serving)
        h_links = h[:, ues, link_aps]

        x = np.exp(2j * np.pi * rng.random((n_fading, n_ues)))
        x0 = np.exp(2j * np.pi * rng.random((n_fading, n_aps)))
        normals = []
        for f in range(n_fading):
            plan = BeamformingPlan(
                comm_beams={(k, m): mf_comm_beam(h[f, k, m]) for k, m in zip(ues, link_aps)},
                sense_beams={m: w0[f, m] for m in np.flatnonzero(pointing >= 0)},
            )
            h_f = {(k, m): h[f, k, m] for k in range(n_ues) for m in range(n_aps)}
            normals.append(law_normals(h_f, gains, ctx.assignment, plan))
        bank = _bank_tables(ctx, n_ant)
        power, leak, s_tx = _bank_downlink(bank, h_links, w0, np.array(normals), [(x, x0)])

        w0_amp = sqrt_eta0[None, :, None] * w0
        w_conj = _mf_beams(h, amp)
        np.testing.assert_allclose(
            power, np.abs(kernels.cross_gains(h, w_conj)) ** 2, rtol=1e-12
        )
        np.testing.assert_allclose(leak, kernels.sense_leakage(h, w0_amp), rtol=1e-12)

        expected = np.einsum("fkmn,fk->fmn", w_conj.conj(), x) + w0_amp * x0[:, :, None]
        np.testing.assert_allclose(s_tx[0], expected, rtol=1e-12)
        assert not s_tx[0, :, 3].any()
