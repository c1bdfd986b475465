import math

import numpy as np
import pytest

from cfisac.channel import (
    ArrayGeometry,
    complex_normal,
    linear_gain,
    pathloss_db,
    psd_sqrt,
    view_angle_kernel,
)
from cfisac.cli import calibrate_threshold_mc
from cfisac.config import ExperimentConfig
from cfisac.deployment import generate_layout
from cfisac.harness import calibrate_threshold
from reference import (
    ChannelRealization,
    Dictionary,
    RcsModel,
    TargetLink,
    build_dictionary,
    glrt_statistic,
    sensing_snr,
    simulate_rx_observable,
    steering_to,
    svd_basis,
)

GEOM = ArrayGeometry(n_antennas=8, spacing_wavelengths=0.5)


def random_dictionary(rng, n_ant=8, n_tx=6):
    cols = complex_normal(rng, (n_ant, n_tx))
    basis, sv, rank = svd_basis(cols)
    return Dictionary(
        cell=None, rx_ap=0, columns=cols, basis=basis, singular_values=sv, rank=rank
    )


def projection_oracle(columns, y):
    """Normal-equations quadratic form: y^H D (D^H D)^-1 D^H y.

    This is the minimized form of the per-AP GLRT cost with the closed-form
    reflectivity estimate substituted back in.
    """
    gram = columns.conj().T @ columns
    rhs = columns.conj().T @ y
    return float(np.real(rhs.conj() @ np.linalg.solve(gram, rhs)))


class TestObservable:
    def _setup(self, n_targets=1, n_tx=2):
        rng = np.random.default_rng(0)
        channels = ChannelRealization()
        tx_signals = {}
        for mp in range(n_tx):
            tx_signals[mp] = complex_normal(rng, 8)
            channels.G[(mp, 10)] = complex_normal(rng, (8, 8))
            for l in range(n_targets):
                channels.target_links[(l, 10, mp)] = TargetLink(
                    alpha=complex(complex_normal(rng, ())),
                    beta=rng.uniform(0.5, 2.0),
                    tx_steering=steering_to(GEOM, rng.uniform(0, 100, 3), rng.uniform(0, 100, 3)),
                    rx_steering=steering_to(GEOM, rng.uniform(0, 100, 3), rng.uniform(0, 100, 3)),
                )
        return channels, tx_signals

    def test_no_targets_perfect_subtraction_is_zero(self):
        channels, tx_signals = self._setup(n_targets=0)
        y = simulate_rx_observable(channels, tx_signals, [], 10, True, 0.0)
        np.testing.assert_array_equal(y, np.zeros(8))

    def test_direct_term_matches_definition(self):
        channels, tx_signals = self._setup(n_targets=0)
        y = simulate_rx_observable(channels, tx_signals, [], 10, False, 0.0)
        expected = sum(channels.G[(mp, 10)] @ s for mp, s in tx_signals.items())
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_single_target_single_tx_matches_composite_channel(self):
        from reference import composite_target_channel

        channels, tx_signals = self._setup(n_targets=1, n_tx=1)
        y = simulate_rx_observable(channels, tx_signals, [1], 10, True, 0.0)
        h = composite_target_channel(channels.target_links[(0, 10, 0)])
        np.testing.assert_allclose(y, h @ tx_signals[0], atol=1e-12)

    def test_absent_target_contributes_nothing(self):
        channels, tx_signals = self._setup(n_targets=2)
        y_all = simulate_rx_observable(channels, tx_signals, [1, 0], 10, True, 0.0)
        channels2 = ChannelRealization(target_links={
            k: v for k, v in channels.target_links.items() if k[0] == 0
        })
        y_first = simulate_rx_observable(channels2, tx_signals, [1], 10, True, 0.0)
        np.testing.assert_allclose(y_all, y_first, atol=1e-12)


class TestDictionary:
    def _layout(self):
        cfg = ExperimentConfig(m_aps=8, k_ues=2, t_targets=0, l_regions=1, cell_extent_m=250.0)
        return cfg, generate_layout(cfg, np.random.default_rng(1))

    def test_single_tx_ap_basis(self):
        cfg, layout = self._layout()
        cell = layout.regions[0].cells[0]
        tx_signals = {3: complex_normal(np.random.default_rng(2), 8)}
        d = build_dictionary(cell, 0, [3], layout, tx_signals, GEOM, 2.0)
        assert d.columns.shape == (8, 1)
        assert d.rank == 1
        np.testing.assert_allclose(
            np.abs(d.basis[:, 0]), np.abs(d.columns[:, 0]) / np.linalg.norm(d.columns[:, 0]),
            atol=1e-12,
        )

    def test_duplicate_geometry_gives_rank_one(self):
        cfg, layout = self._layout()
        layout.aps[4] = layout.aps[3]  # identical tx geometry
        cell = layout.regions[0].cells[1]
        s = complex_normal(np.random.default_rng(3), 8)
        d = build_dictionary(cell, 0, [3, 4], layout, {3: s, 4: s.copy()}, GEOM, 2.0)
        assert d.columns.shape == (8, 2)
        assert d.rank == 1

    def test_beta_is_product_of_one_way_gains(self):
        cfg, layout = self._layout()
        cell = layout.regions[0].cells[2]
        s = np.ones(8, dtype=complex)
        d = build_dictionary(cell, 1, [5], layout, {5: s}, GEOM, 2.0)
        g_rx = linear_gain(
            pathloss_db(float(np.linalg.norm(cell.center - layout.aps[1])), "ap_target_los", 2.0)
        )
        g_tx = linear_gain(
            pathloss_db(float(np.linalg.norm(cell.center - layout.aps[5])), "ap_target_los", 2.0)
        )
        a_rx = steering_to(GEOM, layout.aps[1], cell.center)
        a_tx = steering_to(GEOM, layout.aps[5], cell.center)
        # amplitude scale sqrt(beta), as composite_target_channel draws the echo
        expected = math.sqrt(g_rx * g_tx) * (a_tx.conj() @ s) * a_rx
        np.testing.assert_allclose(d.columns[:, 0], expected, rtol=1e-12)

    def test_svd_basis_orthonormal_and_reconstructs(self):
        rng = np.random.default_rng(4)
        cols = complex_normal(rng, (8, 6))
        basis, sv, rank = svd_basis(cols)
        assert rank == 6
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(6), atol=1e-10)
        u, s, vh = np.linalg.svd(cols, full_matrices=False)
        np.testing.assert_allclose(u @ np.diag(s) @ vh, cols, atol=1e-9 * s[0])

    def test_zero_columns_degenerate(self):
        basis, sv, rank = svd_basis(np.zeros((8, 3), dtype=complex))
        assert rank == 0
        assert basis.shape == (8, 0)


class TestGlrt:
    def test_in_space_observable(self):
        rng = np.random.default_rng(5)
        d = random_dictionary(rng)
        y = d.columns @ complex_normal(rng, 6)
        assert glrt_statistic([d], [y]) == pytest.approx(np.linalg.norm(y) ** 2, rel=1e-12)

    def test_orthogonal_observable(self):
        rng = np.random.default_rng(6)
        d = random_dictionary(rng, n_tx=3)
        y = complex_normal(rng, 8)
        y -= d.basis @ (d.basis.conj().T @ y)
        assert glrt_statistic([d], [y]) == pytest.approx(0.0, abs=1e-18)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = random_dictionary(rng)
            y = complex_normal(rng, 8)
            oracle = projection_oracle(d.columns, y)
            assert glrt_statistic([d], [y]) == pytest.approx(oracle, rel=1e-9)

    def test_sum_over_receive_aps(self):
        rng = np.random.default_rng(8)
        dicts = [random_dictionary(rng) for _ in range(3)]
        ys = [complex_normal(rng, 8) for _ in range(3)]
        total = glrt_statistic(dicts, ys)
        parts = [glrt_statistic([d], [y]) for d, y in zip(dicts, ys)]
        assert total == pytest.approx(sum(parts), rel=1e-12)
        # adding a receive AP never decreases the statistic
        assert total >= glrt_statistic(dicts[:2], ys[:2])

    def test_column_space_invariance(self):
        rng = np.random.default_rng(9)
        d = random_dictionary(rng)
        y = complex_normal(rng, 8)
        t = complex_normal(rng, (6, 6)) + 3.0 * np.eye(6)
        cols2 = d.columns @ t
        basis2, sv2, rank2 = svd_basis(cols2)
        d2 = Dictionary(None, 0, cols2, basis2, sv2, rank2)
        assert glrt_statistic([d2], [y]) == pytest.approx(glrt_statistic([d], [y]), rel=1e-9)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(10)
        d = random_dictionary(rng)
        with pytest.raises(ValueError):
            glrt_statistic([d], [complex_normal(rng, 5)])
        with pytest.raises(ValueError):
            glrt_statistic([d], [])


class TestThreshold:
    def test_rank_one_closed_form(self):
        # exponential tail: P(stat > delta) = exp(-delta) at unit noise power
        assert calibrate_threshold(1, 1.0, 0.01) == pytest.approx(math.log(100.0), rel=1e-10)

    def test_limit_pfa_to_one(self):
        assert calibrate_threshold(1, 1.0, 0.999999) < 1e-4

    def test_scales_with_noise_power(self):
        assert calibrate_threshold(3, 2.0, 0.05) == pytest.approx(
            2.0 * calibrate_threshold(3, 1.0, 0.05), rel=1e-12
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            calibrate_threshold(1, 1.0, 0.0)
        with pytest.raises(ValueError):
            calibrate_threshold(0, 1.0, 0.5)

    def test_rank_array_matches_scalar_calls(self):
        # the engine thresholds a whole (F, L) table of ranks in one call
        ranks = np.array([[1, 2, 2], [12, 1, 4]])
        table = calibrate_threshold(ranks, 2.0, 0.01)
        assert table.shape == ranks.shape
        scalar = [[calibrate_threshold(int(r), 2.0, 0.01) for r in row] for row in ranks]
        assert table.tolist() == scalar
        assert type(calibrate_threshold(4, 2.0, 0.01)) is float
        with pytest.raises(ValueError):
            calibrate_threshold(np.array([1, 0]), 1.0, 0.5)

    def test_monte_carlo_agrees_with_analytic(self):
        analytic = calibrate_threshold(12, 1.0, 0.01)
        mc = calibrate_threshold_mc(12, 1.0, 0.01, 1_000_000, np.random.default_rng(14))
        assert abs(mc - analytic) / analytic < 0.01


class TestSensingSnr:
    def test_single_column_scalar_form(self):
        # gamma = ||d||^2 sigma_rcs^2 / (N sigma_z^2)
        rng = np.random.default_rng(15)
        col = complex_normal(rng, (8, 1))
        basis, sv, rank = svd_basis(col)
        d = Dictionary(None, 0, col, basis, sv, rank)
        sigma_rcs2 = 10.0
        got = sensing_snr([d], [np.array([[sigma_rcs2]])], 2.0)
        expected = np.linalg.norm(col) ** 2 * sigma_rcs2 / (8 * 2.0)
        assert got == pytest.approx(float(expected), rel=1e-12)

    def test_zero_columns_zero_snr(self):
        basis, sv, rank = svd_basis(np.zeros((8, 2), dtype=complex))
        d = Dictionary(None, 0, np.zeros((8, 2), dtype=complex), basis, sv, rank)
        assert sensing_snr([d], [np.eye(2)], 1.0) == 0.0

    def test_monte_carlo_expectation_oracle(self):
        # statistical oracle: average ||D alpha||^2 over correlated draws
        # (the thin basis spans the columns, so ||U^H D a|| = ||D a||)
        rng = np.random.default_rng(16)
        aps = rng.uniform(0, 500, (5, 3))
        target = np.array([250.0, 250.0, 100.0])
        model = RcsModel(variance=10.0, angular_corr_std=math.radians(10.0))
        r_mat = model.variance * view_angle_kernel(target, aps[2:], model.angular_corr_std)
        cols = complex_normal(rng, (8, 3)) * 1e-3
        basis, sv, rank = svd_basis(cols)
        d = Dictionary(None, 0, cols, basis, sv, rank)
        sigma_z2 = 1e-5
        closed = sensing_snr([d], [r_mat], sigma_z2)
        alphas = psd_sqrt(r_mat) @ complex_normal(rng, (3, 100_000))
        echo_power = float(np.mean((np.abs(cols @ alphas) ** 2).sum(axis=0)))
        mc = echo_power / (8 * sigma_z2)
        assert closed == pytest.approx(mc, rel=0.02)

    def test_closed_form_matches_simulated_echo_energy(self):
        # one Swerling-I target at the inspected cell center: the dictionary's
        # closed-form SNR equals E||y_echo||^2 / (N sigma_z^2) of the echo that
        # simulate_rx_observable draws through TargetLink
        cfg = ExperimentConfig(m_aps=8, k_ues=2, t_targets=1, l_regions=1, cell_extent_m=250.0)
        layout = generate_layout(cfg, np.random.default_rng(21))
        cell = layout.regions[0].cells[4]
        rng = np.random.default_rng(22)
        tx_aps = [2, 3, 4]
        rx_ap = 0
        tx_signals = {mp: complex_normal(rng, 8) for mp in tx_aps}
        d = build_dictionary(cell, rx_ap, tx_aps, layout, tx_signals, GEOM, 2.0)
        r_mat = cfg.sigma_rcs2_m2 * view_angle_kernel(
            cell.center, layout.aps[tx_aps], cfg.angular_corr_rad
        )
        sigma_z2 = cfg.sigma_z2_w
        closed = sensing_snr([d], [r_mat], sigma_z2)

        def gain(m):
            dist = float(np.linalg.norm(cell.center - layout.aps[m]))
            return linear_gain(pathloss_db(dist, "ap_target_los", 2.0))

        paths = {
            mp: TargetLink(
                alpha=0j,
                beta=gain(rx_ap) * gain(mp),
                tx_steering=steering_to(GEOM, layout.aps[mp], cell.center),
                rx_steering=steering_to(GEOM, layout.aps[rx_ap], cell.center),
            )
            for mp in tx_aps
        }
        n_draws = 40_000
        alphas = psd_sqrt(r_mat) @ complex_normal(rng, (len(tx_aps), n_draws))
        channels = ChannelRealization(
            target_links={(0, rx_ap, mp): link for mp, link in paths.items()}
        )
        energy = 0.0
        for i in range(n_draws):
            for j, mp in enumerate(tx_aps):
                paths[mp].alpha = complex(alphas[j, i])
            y = simulate_rx_observable(channels, tx_signals, [1], rx_ap, True, 0.0)
            energy += float(np.vdot(y, y).real)
        simulated = energy / n_draws / (8 * sigma_z2)
        assert closed == pytest.approx(simulated, rel=0.02)

class TestEndToEndCell:
    def test_target_at_cell_center_noiseless_alignment(self):
        # with the target exactly at the hypothesized center and no noise the
        # echo lies inside the dictionary column space: statistic = ||y||^2
        cfg = ExperimentConfig(m_aps=8, k_ues=2, t_targets=1, l_regions=1, cell_extent_m=250.0)
        layout = generate_layout(cfg, np.random.default_rng(18))
        cell = layout.regions[0].cells[5]
        rng = np.random.default_rng(19)
        tx_aps = [2, 3, 4]
        rx_ap = 0
        tx_signals = {mp: complex_normal(rng, 8) for mp in tx_aps}
        d = build_dictionary(cell, rx_ap, tx_aps, layout, tx_signals, GEOM, 2.0)
        channels = ChannelRealization()
        alphas = {mp: complex(complex_normal(rng, ())) for mp in tx_aps}
        for mp in tx_aps:
            g_tx = linear_gain(
                pathloss_db(
                    float(np.linalg.norm(cell.center - layout.aps[mp])), "ap_target_los", 2.0
                )
            )
            g_rx = linear_gain(
                pathloss_db(
                    float(np.linalg.norm(cell.center - layout.aps[rx_ap])), "ap_target_los", 2.0
                )
            )
            channels.target_links[(0, rx_ap, mp)] = TargetLink(
                alpha=alphas[mp],
                beta=g_tx * g_rx,
                tx_steering=steering_to(GEOM, layout.aps[mp], cell.center),
                rx_steering=steering_to(GEOM, layout.aps[rx_ap], cell.center),
            )
        y = simulate_rx_observable(channels, tx_signals, [1], rx_ap, True, 0.0)
        stat = glrt_statistic([d], [y])
        assert stat == pytest.approx(float(np.linalg.norm(y) ** 2), rel=1e-9)
