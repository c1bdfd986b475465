import math

import numpy as np
import pytest

from cfisac.channel import (
    ArrayGeometry,
    ChannelRealization,
    TargetLink,
    complex_normal,
    psd_sqrt,
    steering_bank,
    view_angle_kernel,
)
from cfisac.clustering import build_assignment
from cfisac.config import ConfigError, ExperimentConfig, apply_overrides, parse_config_text
from cfisac.deployment import build_scan_schedule, generate_layout
from cfisac.harness import (
    _S_FADING,
    _S_LAYOUT,
    _S_NOISE,
    _S_RCS,
    _S_SCHED,
    _S_SHADOW,
    _S_SYMBOL,
    _DropContext,
    _aggregate,
    _comm_beams,
    _sense_beams,
    _stream,
    preset_beamformer_comparison,
    preset_mode_comparison,
    preset_rx_sweep,
    run_drop,
    run_experiment,
    ue_ap_gains,
)
from cfisac.metrics import communication_sinr, rate_bps
from cfisac.precoding import build_plan, transmit_vector
from cfisac.sensing import (
    build_dictionary,
    calibrate_threshold,
    glrt_statistic,
    sensing_snr,
    simulate_rx_observable,
)

TINY = dict(
    m_aps=10,
    k_ues=3,
    t_targets=2,
    l_regions=1,
    n_antennas=4,
    q_serving=2,
    m_tx_per_region=3,
    m_rx_per_region=2,
    cell_extent_m=500.0,
    n_drops=2,
    n_fading=3,
    seed=5,
)


class TestRunDrop:
    def test_baseline_sample_counts(self):
        cfg = ExperimentConfig(n_fading=2)
        dr = run_drop(cfg, 0)
        # 32 rate samples and 4 sensing records per fading realization
        assert dr.rates_bps.shape == (2, 32)
        assert dr.statistics.shape == (2, 4)
        assert dr.decisions.shape == (2, 4)

    def test_no_targets_no_truth(self):
        cfg = ExperimentConfig(**{**TINY, "t_targets": 0, "k_ues": 2})
        dr = run_drop(cfg, 0)
        assert dr.rates_bps.shape == (3, 2)
        assert not dr.truths.any()

    def test_bit_identical_reruns(self):
        cfg = ExperimentConfig(**TINY)
        a = run_drop(cfg, 1)
        b = run_drop(cfg, 1)
        np.testing.assert_array_equal(a.rates_bps, b.rates_bps)
        np.testing.assert_array_equal(a.statistics, b.statistics)
        np.testing.assert_array_equal(a.sensing_snr_db, b.sensing_snr_db)

    def test_seed_changes_samples_not_shapes(self):
        cfg = ExperimentConfig(**TINY)
        a = run_drop(cfg, 0)
        b = run_drop(cfg.replace(seed=6), 0)
        assert a.rates_bps.shape == b.rates_bps.shape
        assert not np.array_equal(a.rates_bps, b.rates_bps)

    def test_common_random_numbers_across_modes(self):
        cfg = ExperimentConfig(**TINY)
        layouts = {}
        for mode in ("UTC", "CF"):
            dr = run_drop(cfg.replace(mode=mode, m_tx_per_region=3), 0)
            layouts[mode] = (dr.layout.aps, dr.layout.ues, dr.layout.targets)
        np.testing.assert_array_equal(layouts["UTC"][0], layouts["CF"][0])
        np.testing.assert_array_equal(layouts["UTC"][1], layouts["CF"][1])
        np.testing.assert_array_equal(layouts["UTC"][2], layouts["CF"][2])

    def test_decision_consistent_with_threshold(self):
        dr = run_drop(ExperimentConfig(**TINY), 0)
        np.testing.assert_array_equal(dr.decisions, dr.statistics > dr.thresholds)


class TestRunExperiment:
    def test_sample_count_bookkeeping(self):
        cfg = ExperimentConfig(n_drops=2, n_fading=3)
        rs = run_experiment(cfg)
        assert rs.rates_bps.shape == (2, 3, 32)
        assert rs.rates_bps.size == 2 * 3 * 32
        rows = list(rs.sample_rows())
        assert sum(1 for r in rows if r[2] == "rate_bps") == 192

    def test_aggregate_rejects_missing_drops(self):
        cfg = ExperimentConfig(**TINY)  # n_drops=2
        with pytest.raises(RuntimeError, match="expected"):
            _aggregate(cfg, "short", [run_drop(cfg, 0)])

    def test_presets_share_layouts(self):
        cfg = ExperimentConfig(**TINY)
        arms = preset_rx_sweep(cfg, [1, 2])
        assert set(arms) == {"rx1", "rx2"}
        assert arms["rx1"].config.m_tx_per_region == 4
        assert arms["rx2"].config.m_tx_per_region == 3

    def test_rx_sweep_rejects_degenerate_counts(self):
        cfg = ExperimentConfig(**TINY)
        with pytest.raises(ConfigError):
            preset_rx_sweep(cfg, [0])
        with pytest.raises(ConfigError):
            preset_rx_sweep(cfg, [5])  # cluster size 5 leaves no transmit AP

    def test_beamformer_preset_rejects_large_kzf(self):
        cfg = ExperimentConfig(**TINY)
        with pytest.raises(ConfigError):
            preset_beamformer_comparison(cfg, [4])  # N - 1 = 3

    def test_mode_preset_arm_labels(self):
        cfg = ExperimentConfig(**{**TINY, "n_drops": 1, "n_fading": 1})
        arms = preset_mode_comparison(cfg)
        assert set(arms) == {"UTC", "UC", "TC", "CF"}


class TestConfigHandling:
    def test_text_roundtrip(self):
        cfg = ExperimentConfig(seed=9, mode="TC", sensing_power_fraction=0.3)
        parsed = parse_config_text(cfg.to_text())
        assert parsed == cfg

    def test_overrides(self):
        cfg = apply_overrides(ExperimentConfig(), {"seed": "7", "mode": "CF", "p_max_w": "1.5"})
        assert cfg.seed == 7 and cfg.mode == "CF" and cfg.p_max_w == 1.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(ExperimentConfig(), {"bogus": "1"})

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="MEGA").validate()

    def test_invalid_pfa_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(pfa_target=0.0).validate()

    @pytest.mark.parametrize(
        "changes",
        [{"angular_corr_deg": 0.0}, {"angular_corr_deg": -5.0}, {"target_height_min_m": 300.0}],
    )
    def test_degenerate_target_model_rejected(self, changes):
        with pytest.raises(ConfigError, match=next(iter(changes))):
            ExperimentConfig(**changes).validate()

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# comment\n\nseed=3  # trailing\n")
        assert cfg.seed == 3

    def test_noise_power(self):
        cfg = ExperimentConfig()
        assert cfg.sigma_z2_w == pytest.approx(10 ** (-20.4) * 20e6, rel=1e-12)


class TestBatchedPipelineMatchesOps:
    """Re-derive one realization through the op-level API and compare.

    This pins the batched Monte Carlo path to the documented per-operation
    contracts: same beams, same powers, same dictionaries, same statistic,
    threshold, sensing SNR and UE rates.
    """

    @pytest.mark.parametrize(
        "mode,beamformer,k_zf", [("UTC", "MF", 0), ("UTC", "ZF", 1), ("CF", "MF", 0)]
    )
    def test_single_realization_equivalence(self, mode, beamformer, k_zf):
        cfg = ExperimentConfig(
            **{**TINY, "mode": mode, "beamformer": beamformer, "k_zf": k_zf}
        )
        drop = 0
        dr = run_drop(cfg, drop)

        layout = generate_layout(cfg, _stream(cfg, drop, _S_LAYOUT))
        gains = ue_ap_gains(layout, cfg, _stream(cfg, drop, _S_SHADOW))
        assignment = build_assignment(layout, gains, cfg)
        schedule = build_scan_schedule(layout.regions, _stream(cfg, drop, _S_SCHED))
        geom = ArrayGeometry(cfg.n_antennas, cfg.spacing_wavelengths)
        n_fading, k_ues, m_aps, n_ant = cfg.n_fading, cfg.k_ues, cfg.m_aps, cfg.n_antennas

        h = np.sqrt(gains)[None, :, :, None] * complex_normal(
            _stream(cfg, drop, _S_FADING), (n_fading, k_ues, m_aps, n_ant)
        )
        sym = _stream(cfg, drop, _S_SYMBOL)
        x = np.exp(2j * np.pi * sym.random((n_fading, k_ues)))
        x0 = np.exp(2j * np.pi * sym.random((n_fading, m_aps)))
        noise = math.sqrt(cfg.sigma_z2_w) * complex_normal(
            _stream(cfg, drop, _S_NOISE), (n_fading, m_aps, n_ant)
        )

        rx_all = assignment.rx_aps
        tx_all = assignment.tx_aps
        corr = cfg.angular_corr_rad
        alphas = []
        for t in range(cfg.t_targets):
            s_rx = psd_sqrt(view_angle_kernel(layout.targets[t], layout.aps[rx_all], corr))
            s_tx = psd_sqrt(view_angle_kernel(layout.targets[t], layout.aps[tx_all], corr))
            g = complex_normal(_stream(cfg, drop, _S_RCS, t), (n_fading, len(rx_all), len(tx_all)))
            alphas.append(
                math.sqrt(cfg.sigma_rcs2_m2)
                * np.einsum("ab,fbc,cd->fad", s_rx, g, s_tx, optimize=True)
            )

        a_tgt = steering_bank(geom, layout.aps, layout.broadsides, layout.targets)
        d_tgt = np.linalg.norm(layout.targets[:, None, :] - layout.aps[None, :, :], axis=2)
        g_tgt = 10 ** (
            -(22.0 * np.log10(np.maximum(d_tgt, 1.0)) + 28.0 + 20.0 * np.log10(cfg.carrier_ghz))
            / 10.0
        )

        for f in range(n_fading):
            epoch = f % schedule.n_epochs
            cells = [layout.regions[l].cells[schedule.epochs[epoch, l]] for l in range(1)]
            h_dict = {(k, m): h[f, k, m] for k in range(k_ues) for m in range(m_aps)}
            plan = build_plan(
                h_dict,
                gains,
                assignment,
                geom,
                layout.aps,
                [c.center for c in cells],
                cfg.p_max_w,
                beamformer=beamformer,
                k_zf=k_zf,
            )
            tx_signals = {
                int(m): transmit_vector(plan, int(m), {k: x[f, k] for k in range(k_ues)}, x0[f, m])
                for m in tx_all
            }

            # UE rates through the op-level SINR
            channels = ChannelRealization(h=h_dict)
            for k in range(k_ues):
                sinr = communication_sinr(channels, plan, assignment, k, cfg.sigma_z2_w)
                assert rate_bps(sinr, cfg.bandwidth_hz) == pytest.approx(
                    dr.rates_bps[f, k], rel=1e-9
                )

            # fused detection through the op-level sensing chain
            for t in range(cfg.t_targets):
                for ri, m in enumerate(rx_all):
                    for pi, mp in enumerate(tx_all):
                        channels.target_links[(t, int(m), int(mp))] = TargetLink(
                            alpha=complex(alphas[t][f, ri, pi]),
                            beta=float(g_tgt[t, m] * g_tgt[t, mp]),
                            tx_steering=a_tgt[t, mp],
                            rx_steering=a_tgt[t, m],
                        )
            tx_cluster, rx_cluster = assignment.sensing_clusters[0]
            dicts = []
            ys = []
            for m in rx_cluster:
                dicts.append(
                    build_dictionary(
                        cells[0],
                        int(m),
                        [int(mp) for mp in tx_cluster],
                        layout,
                        tx_signals,
                        geom,
                        cfg.carrier_ghz,
                    )
                )
                y = simulate_rx_observable(
                    channels, tx_signals, [1] * cfg.t_targets, int(m), True, 0.0
                )
                ys.append(y + noise[f, m])
            stat = glrt_statistic(dicts, ys)
            assert stat == pytest.approx(dr.statistics[f, 0], rel=1e-9)
            total_rank = sum(d.rank for d in dicts)
            thr = calibrate_threshold(max(total_rank, 1), cfg.sigma_z2_w, cfg.pfa_target)
            assert thr == pytest.approx(dr.thresholds[f, 0], rel=1e-12)
            r_mat = cfg.sigma_rcs2_m2 * view_angle_kernel(
                cells[0].center, layout.aps[tx_cluster], corr
            )
            snr = sensing_snr(dicts, [r_mat] * len(rx_cluster), cfg.sigma_z2_w)
            assert 10 * math.log10(snr) == pytest.approx(dr.sensing_snr_db[f, 0], rel=1e-9)


def _drop_context(cfg, drop=0):
    """The engine's per-drop context and fading tensor, drawn as run_drop does."""
    layout = generate_layout(cfg, _stream(cfg, drop, _S_LAYOUT))
    gains = ue_ap_gains(layout, cfg, _stream(cfg, drop, _S_SHADOW))
    assignment = build_assignment(layout, gains, cfg)
    schedule = build_scan_schedule(layout.regions, _stream(cfg, drop, _S_SCHED))
    ctx = _DropContext(cfg, layout, assignment, schedule, gains)
    h = np.sqrt(gains)[None, :, :, None] * complex_normal(
        _stream(cfg, drop, _S_FADING), (cfg.n_fading, cfg.k_ues, cfg.m_aps, cfg.n_antennas)
    )
    return ctx, h


class TestBeams:
    @pytest.mark.parametrize("mode", ["UTC", "CF"])
    def test_comm_beams_bitwise_match_normalized_channel(self, mode):
        ctx, h = _drop_context(ExperimentConfig(**{**TINY, "mode": mode, "n_fading": 6}))
        expected = (h / np.linalg.norm(h, axis=3, keepdims=True)) * ctx.amp[None, :, :, None]
        got = _comm_beams(h, ctx.amp)
        assert np.array_equal(got.view(np.float64), expected.view(np.float64))

    def test_zf_partial_fallback(self):
        # realizations 1 and 4 give every ZF AP an annulled channel equal to
        # its cell steering vector, so the projection vanishes there and only
        # there; the other realizations keep their projected beams
        cfg = ExperimentConfig(**{**TINY, "beamformer": "ZF", "k_zf": 2, "n_fading": 6})
        ctx, h = _drop_context(cfg)
        epoch_cells = ctx.cell_of[np.arange(cfg.n_fading) % ctx.n_epochs]
        zf_aps = [m for m, annul in ctx.annul.items() if annul.size > 0]
        assert zf_aps
        crafted = [1, 4]
        for f in crafted:
            for m in zf_aps:
                cell = epoch_cells[f, ctx.assignment.pointing[m]]
                h[f, ctx.annul[m][0], m] = ctx.a_cell[cell, m]

        w0, diag = _sense_beams(ctx, h, epoch_cells)

        n_ant = cfg.n_antennas
        assert diag.zf_beams == cfg.n_fading * len(zf_aps)
        assert diag.zf_fallbacks == len(crafted) * len(zf_aps)
        ok = np.setdiff1d(np.arange(cfg.n_fading), crafted)
        leak_max = 0.0
        for m in zf_aps:
            cells = epoch_cells[:, ctx.assignment.pointing[m]]
            np.testing.assert_array_equal(
                w0[crafted, m], ctx.a_cell[cells[crafted], m] / math.sqrt(n_ant)
            )
            # the fallback beams leak sqrt(N) onto the crafted channel
            assert np.abs(np.vdot(h[crafted[0], ctx.annul[m][0], m], w0[crafted[0], m])) > 1.0
            h_ann = h[:, ctx.annul[m], m, :]
            leak = np.abs(np.einsum("fan,fn->fa", h_ann[ok].conj(), w0[ok, m], optimize=True))
            assert leak.max() < 1e-9
            leak_max = max(leak_max, float(leak.max()))
        assert diag.zf_leakage_max == leak_max


class TestConfigKnobs:
    def test_direct_residual_perturbs_observables(self):
        cfg = ExperimentConfig(**TINY)
        base = run_drop(cfg, 0)
        exact = run_drop(cfg.replace(direct_residual=0.0), 0)
        np.testing.assert_array_equal(base.statistics, exact.statistics)
        leaky = run_drop(cfg.replace(direct_residual=0.5), 0)
        assert not np.array_equal(base.statistics, leaky.statistics)
        faint = run_drop(cfg.replace(direct_residual=1e-12), 0)
        np.testing.assert_allclose(faint.statistics, base.statistics, rtol=1e-3)
        # an unsubtracted direct path adds energy to the fused statistic
        assert leaky.statistics.mean() > base.statistics.mean()

    @pytest.mark.parametrize("mode", ["UTC", "CF"])
    def test_multi_snapshot_statistic(self, mode):
        # rank-one dictionaries at every receive AP of the cluster: total rank
        # n_rx per snapshot, so the threshold moves to the summed-rank Gamma
        # quantile. Two regions: a UTC cluster has its own 2 receive APs, a
        # CF cluster spans all 4.
        from scipy.special import gammainccinv

        cfg = ExperimentConfig(**{**TINY, "mode": mode, "l_regions": 2})
        n_rx = cfg.m_rx_per_region * (cfg.l_regions if mode == "CF" else 1)
        sigma2 = cfg.sigma_z2_w
        one = run_drop(cfg, 0)
        two = run_drop(cfg.replace(n_snapshots=2), 0)
        assert all(len(rx) == n_rx for _, rx in one.assignment.sensing_clusters)
        np.testing.assert_allclose(
            one.thresholds, sigma2 * float(gammainccinv(n_rx, cfg.pfa_target)), rtol=1e-12
        )
        np.testing.assert_allclose(
            two.thresholds, sigma2 * float(gammainccinv(2 * n_rx, cfg.pfa_target)), rtol=1e-12
        )
        assert two.statistics.mean() > one.statistics.mean()

    def test_sensing_power_fraction_budget(self):
        cfg = ExperimentConfig(**{**TINY, "sensing_power_fraction": 0.5})
        dr = run_drop(cfg, 0)
        assert dr.diagnostics.power_dev_max <= 1e-12

    def test_random_broadside_changes_results(self):
        cfg = ExperimentConfig(**TINY)
        fixed = run_drop(cfg, 0)
        rotated = run_drop(cfg.replace(random_broadside=True), 0)
        assert not np.array_equal(fixed.statistics, rotated.statistics)


class TestGainModel:
    def test_shadowing_toggle(self):
        cfg = ExperimentConfig(**TINY)
        layout = generate_layout(cfg, _stream(cfg, 0, _S_LAYOUT))
        with_shadow = ue_ap_gains(layout, cfg, np.random.default_rng(0))
        without = ue_ap_gains(
            layout, cfg.replace(shadowing_enabled=False), np.random.default_rng(0)
        )
        assert not np.array_equal(with_shadow, without)
        again = ue_ap_gains(layout, cfg.replace(shadowing_enabled=False), np.random.default_rng(5))
        np.testing.assert_array_equal(without, again)

    def test_gain_is_deterministic_pathloss(self):
        cfg = ExperimentConfig(**{**TINY, "shadowing_enabled": False})
        layout = generate_layout(cfg, _stream(cfg, 0, _S_LAYOUT))
        gains = ue_ap_gains(layout, cfg, np.random.default_rng(0))
        d = np.linalg.norm(layout.ues[0] - layout.aps[0])
        expected = 10 ** (
            -(36.7 * math.log10(max(d, 1.0)) + 22.7 + 26.0 * math.log10(2.0)) / 10.0
        )
        assert gains[0, 0] == pytest.approx(expected, rel=1e-12)
