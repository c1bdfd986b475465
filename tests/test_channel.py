import math

import numpy as np
import pytest

from cfisac.channel import (
    ArrayGeometry,
    complex_normal,
    linear_gain,
    pathloss_db,
    psd_sqrt,
    steering_bank,
    view_angle_kernel,
)
from reference import (
    RcsModel,
    TargetLink,
    composite_target_channel,
    draw_ap_ap_channel,
    draw_correlated_rcs,
    rcs_pair_covariance,
    steering_vector,
)

GEOM = ArrayGeometry(n_antennas=8, spacing_wavelengths=0.5)


class TestPathloss:
    def test_los_closed_form(self):
        # independent evaluation: 22 log10(100) + 28 + 20 log10(2)
        expected = 22.0 * math.log10(100.0) + 28.0 + 20.0 * math.log10(2.0)
        assert pathloss_db(100.0, "ap_target_los", 2.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(78.0206, abs=1e-4)

    def test_nlos_closed_form(self):
        expected = 36.7 * math.log10(100.0) + 22.7 + 26.0 * math.log10(2.0)
        assert pathloss_db(100.0, "ue_ap_nlos", 2.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(103.9268, abs=1e-4)

    def test_clamping_below_one_meter(self):
        assert pathloss_db(0.5, "ap_target_los") == pathloss_db(1.0, "ap_target_los")

    def test_unknown_link_kind(self):
        with pytest.raises(ValueError):
            pathloss_db(10.0, "satellite")

    def test_linear_gain(self):
        assert linear_gain(30.0) == pytest.approx(1e-3)


class TestSteering:
    def test_broadside_is_all_ones(self):
        np.testing.assert_allclose(steering_vector(GEOM, 0.0, 0.0), np.ones(8))

    def test_unit_modulus_and_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            az = rng.uniform(-np.pi, np.pi)
            el = rng.uniform(-np.pi / 2, np.pi / 2)
            a = steering_vector(GEOM, az, el)
            np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)
            assert np.linalg.norm(a) ** 2 == pytest.approx(8.0, abs=1e-12)

    def test_quarter_turn_phases(self):
        # sin(az) cos(el) = 0.5 with half-wavelength spacing walks the phase
        # through multiples of pi/2: 1, j, -1, -j, ...
        a = steering_vector(GEOM, math.asin(0.5), 0.0)
        expected = np.exp(1j * (np.pi / 2) * np.arange(8))
        np.testing.assert_allclose(a, expected, atol=1e-12)

    def test_broadside_offset(self):
        geom = ArrayGeometry(8, 0.5, broadside_azimuth=0.7)
        np.testing.assert_allclose(steering_vector(geom, 0.7, 0.0), np.ones(8))

    def test_bank_matches_scalar_path(self):
        rng = np.random.default_rng(1)
        aps = rng.uniform(0, 100, (3, 3))
        points = rng.uniform(0, 100, (5, 3))
        broadsides = rng.uniform(-np.pi, np.pi, 3)
        bank = steering_bank(GEOM, aps, broadsides, points)
        from reference import angles_from

        for p in range(5):
            for m in range(3):
                geom = ArrayGeometry(8, 0.5, broadsides[m])
                expected = steering_vector(geom, *angles_from(aps[m], points[p]))
                np.testing.assert_allclose(bank[p, m], expected, atol=1e-12)


class TestFadingDraws:
    def test_zero_gain_gives_zero_vector(self):
        h = math.sqrt(0.0) * complex_normal(np.random.default_rng(0), GEOM.n_antennas)
        np.testing.assert_array_equal(h, np.zeros(8))

    def test_rayleigh_second_moment(self):
        rng = np.random.default_rng(2)
        n = 100_000
        h = complex_normal(rng, (n, GEOM.n_antennas))
        total = float((np.abs(h) ** 2).sum())
        assert total / n == pytest.approx(8.0, rel=0.01)

    def test_scaled_second_moment(self):
        rng = np.random.default_rng(4)
        draws = math.sqrt(0.25) * complex_normal(rng, (20_000, GEOM.n_antennas))
        assert float((np.abs(draws) ** 2).sum(axis=1).mean()) == pytest.approx(2.0, rel=0.02)

    @pytest.mark.parametrize("shape", [(3, 5, 7, 4), 8])
    def test_complex_normal_bitwise_matches_complex_sum(self, shape):
        got = complex_normal(np.random.default_rng(11), shape)
        g = np.random.default_rng(11)
        expected = (g.standard_normal(shape) + 1j * g.standard_normal(shape)) / math.sqrt(2.0)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.float64), expected.view(np.float64))

    def test_draw_determinism(self):
        a = math.sqrt(2.5) * complex_normal(np.random.default_rng(42), GEOM.n_antennas)
        b = math.sqrt(2.5) * complex_normal(np.random.default_rng(42), GEOM.n_antennas)
        np.testing.assert_array_equal(a, b)

    def test_rician_infinite_k_is_rank_one(self):
        tx_pos = np.array([0.0, 0.0, 10.0])
        rx_pos = np.array([200.0, 40.0, 10.0])
        g = draw_ap_ap_channel(0.5, GEOM, GEOM, tx_pos, rx_pos, 1e12, np.random.default_rng(0))
        s = np.linalg.svd(g, compute_uv=False)
        assert s[1] / s[0] < 1e-5
        assert np.linalg.norm(g, "fro") == pytest.approx(math.sqrt(0.5) * 8.0, rel=1e-4)

    def test_rician_k0_frobenius_moment(self):
        tx_pos = np.array([0.0, 0.0, 10.0])
        rx_pos = np.array([200.0, 40.0, 10.0])
        rng = np.random.default_rng(3)
        total = 0.0
        n = 20_000
        for _ in range(n):
            g = draw_ap_ap_channel(1.0, GEOM, GEOM, tx_pos, rx_pos, 0.0, rng)
            total += np.linalg.norm(g, "fro") ** 2
        assert total / n == pytest.approx(64.0, rel=0.01)

    def test_zero_large_scale(self):
        g = draw_ap_ap_channel(
            0.0, GEOM, GEOM, np.zeros(3), np.array([9.0, 0, 0]), 10.0, np.random.default_rng(0)
        )
        np.testing.assert_array_equal(g, np.zeros((8, 8)))

    def test_negative_rician_k_rejected(self):
        with pytest.raises(ValueError):
            draw_ap_ap_channel(
                1.0, GEOM, GEOM, np.zeros(3), np.ones(3), -1.0, np.random.default_rng(0)
            )


class TestCorrelatedRcs:
    MODEL = RcsModel(variance=10.0, angular_corr_std=math.radians(10.0))

    def test_single_pair_variance(self):
        # sigma_RCS^2 = 10 dBsm = 10 m^2 linear
        aps = np.array([[100.0, 0.0, 10.0], [0.0, 100.0, 10.0]])
        # the law of draw_correlated_rcs(np.zeros(3), [1], [0], aps, ...), 100 000 draws at once
        cov = rcs_pair_covariance(np.zeros(3), aps[[0]], aps[[1]], self.MODEL)
        g = complex_normal(np.random.default_rng(0), (cov.shape[0], 100_000))
        draws = (psd_sqrt(cov) @ g)[0]
        assert float(np.mean(np.abs(draws) ** 2)) == pytest.approx(10.0, rel=0.02)
        assert abs(np.mean(draws)) < 0.05

    def test_identical_view_angles_fully_correlated(self):
        # two tx APs on the same ray from the target: kernel at zero offset
        aps = np.array([[100.0, 0.0, 10.0], [200.0, 0.0, 20.0], [0.0, 100.0, 10.0]])
        target = np.zeros(3)
        # place tx1 exactly on the ray through tx0
        aps[1] = 2.0 * aps[0]
        alphas = draw_correlated_rcs(target, [0, 1], [2], aps, self.MODEL, np.random.default_rng(1))
        assert alphas[(2, 0)] == pytest.approx(alphas[(2, 1)], rel=1e-9)

    def test_orthogonal_views_decorrelate(self):
        # 90 degrees separation with a 10 degree kernel: exp(-(pi/2)^2 / (2 (pi/18)^2))
        expected = math.exp(-((math.pi / 2) ** 2) / (2.0 * (math.pi / 18.0) ** 2))
        assert expected < 1e-17
        aps = np.array([[100.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
        kernel = view_angle_kernel(np.zeros(3), aps, math.radians(10.0))
        assert kernel[0, 1] == pytest.approx(expected, rel=1e-9)

    def test_empirical_covariance_matches_kernel(self):
        # fixed 3-AP geometry: 1 rx, 2 tx -> 2 correlated entries
        aps = np.array([[100.0, 0.0, 10.0], [90.0, 30.0, 10.0], [0.0, 100.0, 10.0]])
        target = np.zeros(3)
        cov = rcs_pair_covariance(target, aps[2:3], aps[:2], self.MODEL)
        rng = np.random.default_rng(5)
        draws = np.zeros((10_000, 2), dtype=complex)
        for i in range(10_000):
            alphas = draw_correlated_rcs(target, [0, 1], [2], aps, self.MODEL, rng)
            draws[i] = [alphas[(2, 0)], alphas[(2, 1)]]
        emp = draws.conj().T @ draws / len(draws)
        np.testing.assert_allclose(np.abs(emp), np.abs(cov), rtol=0.05)

    def test_psd_sqrt_rejects_indefinite(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_psd_sqrt_of_a_hermitian_stack(self):
        # Gram matrices of 3 complex vectors in C^2: Hermitian, PSD and of rank 2
        rng = np.random.default_rng(3)
        vectors = complex_normal(rng, (5, 2, 3))
        gram = vectors.conj().swapaxes(-1, -2) @ vectors
        assert np.linalg.matrix_rank(gram[0]) == 2
        root = psd_sqrt(gram)
        np.testing.assert_allclose(root, root.conj().swapaxes(-1, -2), atol=1e-12)
        np.testing.assert_allclose(root @ root, gram, atol=1e-12)
        for one, stacked in zip(gram, root):
            np.testing.assert_allclose(psd_sqrt(one), stacked, atol=1e-12)

    def test_psd_sqrt_checks_each_matrix_of_a_stack(self):
        # the tolerance scales with each matrix's own largest eigenvalue
        stack = np.array([np.diag([1e6, 1e6]), np.diag([1.0, -1e-3])])
        with pytest.raises(ValueError):
            psd_sqrt(stack)
        assert psd_sqrt(np.zeros((0, 3, 3))).shape == (0, 3, 3)

    def test_view_angle_kernel_of_a_point_stack(self):
        aps = np.array([[100.0, 0.0, 10.0], [50.0, 80.0, 10.0], [0.0, 100.0, 10.0]])
        points = np.array([[10.0, 5.0, 60.0], [-30.0, 40.0, 90.0]])
        corr = math.radians(10.0)
        stacked = view_angle_kernel(points, aps, corr)
        per_point_aps = view_angle_kernel(points, np.stack([aps, aps[::-1]]), corr)
        np.testing.assert_array_equal(stacked[0], view_angle_kernel(points[0], aps, corr))
        np.testing.assert_array_equal(stacked[1], view_angle_kernel(points[1], aps, corr))
        np.testing.assert_array_equal(
            per_point_aps[1], view_angle_kernel(points[1], aps[::-1], corr)
        )
        assert view_angle_kernel(np.zeros((0, 3)), aps, corr).shape == (0, 3, 3)

    def test_empty_ap_sets_rejected(self):
        with pytest.raises(ValueError):
            draw_correlated_rcs(
                np.zeros(3), [], [0], np.ones((1, 3)), self.MODEL, np.random.default_rng(0)
            )


class TestCompositeChannel:
    def _link(self, alpha=1.5 - 0.5j, beta=4.0):
        rng = np.random.default_rng(0)
        a_tx = steering_vector(GEOM, rng.uniform(-1, 1), rng.uniform(-1, 1))
        a_rx = steering_vector(GEOM, rng.uniform(-1, 1), rng.uniform(-1, 1))
        return TargetLink(alpha=alpha, beta=beta, tx_steering=a_tx, rx_steering=a_rx)

    def test_zero_alpha(self):
        h = composite_target_channel(self._link(alpha=0.0))
        np.testing.assert_array_equal(h, np.zeros((8, 8)))

    def test_rank_one_minors(self):
        h = composite_target_channel(self._link())
        scale = np.abs(h).max()
        for i in range(7):
            for j in range(7):
                minor = h[i, j] * h[i + 1, j + 1] - h[i, j + 1] * h[i + 1, j]
                assert abs(minor) <= 1e-10 * scale**2

    def test_frobenius_norm(self):
        # outer product of two norm-sqrt(N) vectors: |alpha| sqrt(beta) N
        link = self._link(alpha=2.0 + 1.0j, beta=9.0)
        h = composite_target_channel(link)
        assert np.linalg.norm(h, "fro") == pytest.approx(abs(link.alpha) * 3.0 * 8.0, rel=1e-12)

    def test_scaling_linearity(self):
        link = self._link()
        h1 = composite_target_channel(link)
        link.alpha *= 3.0
        np.testing.assert_allclose(composite_target_channel(link), 3.0 * h1, atol=1e-12)
