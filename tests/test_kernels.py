import numpy as np
import pytest

from cfisac import kernels
from cfisac.channel import complex_normal


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
        got = kernels.cross_gains(h, w_amp)
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

    def test_echo_mix_matches_direct_sum(self):
        rng = np.random.default_rng(2)
        n_fading, n_targets, n_rx, n_tx, n_ant = 5, 4, 3, 8, 6
        a_rx = complex_normal(rng, (n_targets, n_rx, n_ant))
        ab = complex_normal(rng, (n_fading, n_targets, n_rx, n_tx))
        c = complex_normal(rng, (n_fading, n_targets, n_tx))
        got = kernels.echo_mix(a_rx, ab, c)
        assert got.shape == (n_fading, n_rx, n_ant)
        for f in range(n_fading):
            for r in range(n_rx):
                expected = np.zeros(n_ant, dtype=complex)
                for t in range(n_targets):
                    weight = sum(ab[f, t, r, p] * c[f, t, p] for p in range(n_tx))
                    expected += a_rx[t, r] * weight
                np.testing.assert_allclose(got[f, r], expected, rtol=1e-10, atol=1e-12)

    def test_zero_targets_echo(self):
        out = kernels.echo_mix(
            np.zeros((0, 2, 4), dtype=complex),
            np.zeros((3, 0, 2, 5), dtype=complex),
            np.zeros((3, 0, 5), dtype=complex),
        )
        np.testing.assert_array_equal(out, np.zeros((3, 2, 4)))
