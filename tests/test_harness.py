import collections
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import block_diag

from cfisac import harness
from cfisac.channel import (
    ArrayGeometry,
    complex_normal,
    linear_gain,
    pathloss_db,
    psd_sqrt,
    steering_bank,
    view_angle_kernel,
)
from cfisac.clustering import build_assignment
from cfisac.config import ConfigError, ExperimentConfig, apply_overrides, parse_config_text
from cfisac.deployment import build_scan_schedule, generate_layout
from cfisac.harness import (
    _S_BANK,
    _S_LAYOUT,
    _S_NOISE,
    _S_RCS,
    _S_SCHED,
    _S_SHADOW,
    _S_SYMBOL,
    _DRAW_INPUTS,
    Draw,
    _CellTables,
    _DropContext,
    _direct_path,
    _mf_beams,
    _sense_beams,
    _stream,
    _target_echoes,
    calibrate_threshold,
    preset_beamformer_comparison,
    preset_mode_comparison,
    preset_rx_sweep,
    run_arms,
    run_drop,
    run_experiment,
    ue_ap_gains,
)
from cfisac.metrics import _aggregate
from reference import (
    ChannelRealization,
    RcsModel,
    TargetLink,
    build_dictionary,
    build_plan,
    communication_sinr,
    contains_xy,
    draw_ap_ap_channel,
    fading_tensor,
    glrt_statistic,
    law_normals,
    rate_bps,
    rcs_pair_covariance,
    sensing_snr,
    simulate_rx_observable,
    steering_to,
    transmit_vector,
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

    def test_drawn_fading_is_read_only(self):
        # a block's rows and the whole draw alike; the caller's buffer stays
        # writable, so that the next chunk can be drawn into it
        cfg = ExperimentConfig(**TINY)
        drawn = Draw(cfg, 0)
        block, every = range(1, 3), range(cfg.n_fading)
        for fs, count in ((block, 5), (every, 5), (block, 8)):
            out = np.empty((len(fs), count), dtype=complex)
            with pytest.raises(ValueError, match="read-only"):
                drawn.normals(fs, out)[0, 0] = 0.0
            out[0, 0] = 0.0

    def test_fading_is_drawn_realization_by_realization(self):
        # realization f alone from its law stream (seed, drop, purpose, f),
        # whichever rows a request holds
        cfg = ExperimentConfig(**{**TINY, "n_fading": 5})
        drawn, count = Draw(cfg, 1), 24
        blocks = {
            block: drawn.normals(block, np.empty((len(block), count), dtype=complex))
            for block in (range(3, 5), range(0, 1), range(1, 3))
        }
        z = drawn.normals(range(cfg.n_fading), np.empty((cfg.n_fading, count), dtype=complex))
        for f in range(cfg.n_fading):
            rng = np.random.default_rng([cfg.seed, 1, _S_BANK, f])
            expected = (rng.standard_normal(2 * count) * (1.0 / np.sqrt(2.0))).view(complex)
            np.testing.assert_array_equal(z[f], expected)
        for block, rows in blocks.items():
            np.testing.assert_array_equal(rows, z[block.start : block.stop])

    @pytest.mark.parametrize("n_fading", [1, 3, 7, 64])
    def test_fading_bytes_do_not_depend_on_the_core_count(self, n_fading, monkeypatch):
        # more blocks than cores, and thread switches as often as the interpreter allows
        cfg = ExperimentConfig(**{**TINY, "n_fading": n_fading})
        drawn = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cores in (1, 4, 16):
                monkeypatch.setattr(harness, "_usable_cores", lambda: cores)
                draw = Draw(cfg, 0)
                law = [np.empty((n_fading, count), dtype=complex) for count in (9, 40)]
                for rows in law:
                    harness._in_blocks(
                        n_fading, lambda fs: draw.normals(fs, rows[fs.start : fs.stop])
                    )
                drawn.append(law)
        finally:
            sys.setswitchinterval(interval)
        for arrays in drawn[1:]:
            for got, expected in zip(arrays, drawn[0]):
                np.testing.assert_array_equal(got, expected)

    def test_a_failed_realization_fails_the_draw_and_leaves_no_thread(self, monkeypatch):
        cfg = ExperimentConfig(**{**TINY, "n_fading": 7})
        default_rng = np.random.default_rng

        def rng(key):
            if key == [cfg.seed, 0, _S_BANK, 4]:
                raise FloatingPointError("realization 4")
            return default_rng(key)

        monkeypatch.setattr(harness, "_usable_cores", lambda: 4)
        monkeypatch.setattr(np.random, "default_rng", rng)
        draw = Draw(cfg, 0)
        z = np.empty((cfg.n_fading, 40), dtype=complex)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="realization 4"):
            harness._in_blocks(cfg.n_fading, lambda fs: draw.normals(fs, z[fs.start : fs.stop]))
        assert threading.active_count() == threads

    @pytest.mark.parametrize(
        "mode,banked", [("UTC", True), ("UC", True), ("TC", False), ("CF", False)]
    )
    def test_downlink_path_follows_the_serving_load(self, mode, banked, monkeypatch):
        # baseline K=32 > N=8: UC/UTC cap every AP at N UEs, TC/CF serve all K from each
        # two realization blocks: each asks the draw for its own law stream and
        # runs its downlink on it
        calls = []

        def spy(name, fn):
            def wrapper(*args):
                if isinstance(args[1], range):
                    calls.append((name, args[1].start, args[1].stop))
                else:
                    calls.append((name, len(args[1])))
                return fn(*args)

            return wrapper

        for module, name in (
            (harness, "_bank_downlink"),
            (harness, "_dense_downlink"),
            (harness.Draw, "normals"),
        ):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
        run_drop(ExperimentConfig(mode=mode, n_fading=4), 0)
        # every arm reads its law stream; the serving load picks the formula
        downlink = "_bank_downlink" if banked else "_dense_downlink"
        expected = [("normals", 0, 2), ("normals", 2, 4), (downlink, 2), (downlink, 2)]
        assert sorted(calls) == sorted(expected)

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

    @staticmethod
    def _preset_tables(cfg):
        return [
            preset_mode_comparison(cfg),
            preset_rx_sweep(cfg, [1, 2]),
            preset_beamformer_comparison(cfg, [1, 2]),
        ]

    @staticmethod
    def _assert_bitwise_equal(got, expected):
        for field in (
            "rates_bps",
            "statistics",
            "thresholds",
            "decisions",
            "truths",
            "sensing_snr_db",
        ):
            a, b = getattr(got, field), getattr(expected, field)
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), field
        assert got.diagnostics == expected.diagnostics

    def test_presets_share_layouts(self):
        # a preset draws each drop once for all its arms; every arm must be
        # bitwise the arm that run_experiment draws on its own
        cfg = ExperimentConfig(**TINY)
        presets = [run_arms(table) for table in self._preset_tables(cfg)]
        for arms in presets:
            for rs in arms.values():
                self._assert_bitwise_equal(rs, run_experiment(rs.config))
        arms = presets[1]
        assert set(arms) == {"rx1", "rx2"}
        assert arms["rx1"].config.m_tx_per_region == 4
        assert arms["rx2"].config.m_tx_per_region == 3

    def test_campaign_matches_each_preset(self):
        # the union of the three tables runs each distinct config once; every
        # label still gets bitwise the ResultSet of its own preset
        cfg = ExperimentConfig(**TINY)
        tables = self._preset_tables(cfg)
        campaign = run_arms({key: arm for table in tables for key, arm in table.items()})
        assert len(campaign) == sum(map(len, tables))
        for table in tables:
            for key, rs in run_arms(table).items():
                assert campaign[key].label == rs.label == key.lower()
                assert campaign[key].config == rs.config
                self._assert_bitwise_equal(campaign[key], rs)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every Draw, run_drop and table pass the runner makes, in order."""
        calls = []
        run_table = harness._run_table
        monkeypatch.setattr(
            "cfisac.harness.Draw",
            lambda cfg, d: calls.append(("draw", d)) or Draw(cfg, d),
        )
        monkeypatch.setattr(
            "cfisac.harness.run_drop",
            lambda cfg, d: calls.append((cfg.mode, d)) or run_drop(cfg, d),
        )
        monkeypatch.setattr(
            "cfisac.harness._run_table",
            lambda cfgs, d: calls.append(([c.mode for c in cfgs], d)) or run_table(cfgs, d),
        )
        return calls

    def test_equal_arms_run_once(self, calls):
        cfg = ExperimentConfig(**TINY)
        arms = run_arms({"a": cfg, "b": cfg.replace(), "tc": cfg.replace(mode="TC")})
        drops = range(cfg.n_drops)
        assert calls == [c for d in drops for c in ((["UTC", "TC"], d), ("draw", d))]
        self._assert_bitwise_equal(arms["a"], arms["b"])
        assert (arms["a"].label, arms["b"].label) == ("a", "b")
        # one distinct config under two labels runs through run_drop, once per drop
        calls.clear()
        run_arms({"a": cfg, "b": cfg.replace()})
        assert calls == [c for d in drops for c in (("UTC", d), (["UTC"], d), ("draw", d))]

    def test_rx_sweep_rejects_degenerate_counts(self):
        cfg = ExperimentConfig(**TINY)
        with pytest.raises(ConfigError):
            run_arms(preset_rx_sweep(cfg, [0]))
        with pytest.raises(ConfigError):
            run_arms(preset_rx_sweep(cfg, [5]))  # cluster size 5 leaves no transmit AP

    def test_presets_reject_a_bad_arm_before_the_first_drop(self, calls):
        cfg = ExperimentConfig(**TINY)
        with pytest.raises(ConfigError):
            run_arms(preset_rx_sweep(cfg, [1, 5]))  # rx=5 leaves no transmit AP
        with pytest.raises(ConfigError):
            run_arms(preset_beamformer_comparison(cfg, [1, 4]))  # N - 1 = 3
        # a union table: the bad arm comes last, after every good one
        with pytest.raises(ConfigError):
            run_arms(
                {
                    **preset_mode_comparison(cfg),
                    **preset_rx_sweep(cfg, [1, 2]),
                    **preset_beamformer_comparison(cfg, [1, 4]),
                }
            )
        with pytest.raises(ConfigError, match="no arms"):
            run_arms({})
        # arms that do not share one draw
        with pytest.raises(ConfigError, match="'b' does not share the table's draw: seed"):
            run_arms({"a": cfg, "b": cfg.replace(seed=6, mode="TC")})
        with pytest.raises(ConfigError, match="n_drops differs"):
            run_arms({"a": cfg, "b": cfg.replace(n_drops=1)})
        # the draw holds each snapshot's symbols and noise, and the cell tables
        for name, value in (("n_snapshots", 2), ("spacing_wavelengths", 0.25)):
            with pytest.raises(ConfigError, match=f"'b' does not share the table's draw: {name}"):
                run_arms({"a": cfg, "b": cfg.replace(**{name: value})})
        assert calls == []

    def test_draw_inputs_are_what_draw_reads(self):
        # the runner checks that a table's arms agree on every value the shared
        # draw reads, which include the shape of a realization's dense rows; that
        # list must be exactly what Draw reads
        read = set()

        class Spy:
            def __init__(self, cfg):
                self.cfg = cfg

            def __getattr__(self, name):
                read.add(name)
                return getattr(self.cfg, name)

        for changes in ({}, {"shadowing_enabled": False}, {"bandwidth_matched_cells": True}):
            spy = Spy(ExperimentConfig(**{**TINY, **changes}))
            Draw(spy, 0)
        assert read == set(_DRAW_INPUTS)
        assert {"k_ues", "m_aps", "n_antennas"} <= read

    def test_beamformer_preset_rejects_large_kzf(self):
        cfg = ExperimentConfig(**TINY)
        with pytest.raises(ConfigError):
            run_arms(preset_beamformer_comparison(cfg, [4]))  # N - 1 = 3

    def test_mode_preset_arm_labels(self):
        cfg = ExperimentConfig(**{**TINY, "n_drops": 1, "n_fading": 1})
        arms = run_arms(preset_mode_comparison(cfg))
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

    def test_k_zf_is_checked_for_zf_arms_only(self):
        # one antenna leaves no ZF dimension, but an MF arm never reads k_zf:
        # the default k_zf = 1 runs every mode
        cfg = ExperimentConfig(**{**TINY, "n_antennas": 1, "n_drops": 1, "n_fading": 2})
        assert cfg.beamformer == "MF" and cfg.k_zf == 1
        for rs in run_arms(preset_mode_comparison(cfg)).values():
            assert np.isfinite(rs.rates_bps).all()
        with pytest.raises(ConfigError, match="k_zf"):
            cfg.replace(beamformer="ZF").validate()
        cfg.replace(beamformer="ZF", k_zf=0).validate()

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
        "mode,beamformer,k_zf",
        [
            ("UTC", "MF", 0),
            ("UTC", "ZF", 1),
            ("UTC", "ZF", 2),
            ("UC", "ZF", 3),
            ("CF", "MF", 0),
            ("UC", "MF", 0),
            ("TC", "MF", 0),
        ],
    )
    def test_single_realization_equivalence(self, mode, beamformer, k_zf, monkeypatch):
        # K=5 UEs on N=4 antennas: UC/UTC take the per-AP beam banks, TC/CF the dense
        # beams; every region of two is checked. Every arm reads the law stream
        # that rebuilds this full tensor (reference.law_normals), so both formulas
        # must reproduce the oracle on the same channels. The ZF arms at k_zf = 2
        # and 3 annul sets of sizes [1, 2, 2, 2, 2] and [1, 1, 1, 2, 2, 3]
        cfg = ExperimentConfig(
            **{
                **TINY,
                "k_ues": 5,
                "l_regions": 2,
                "mode": mode,
                "beamformer": beamformer,
                "k_zf": k_zf,
            }
        )
        drop = 0
        layout = generate_layout(cfg, _stream(cfg, drop, _S_LAYOUT))
        gains = ue_ap_gains(layout, cfg, _stream(cfg, drop, _S_SHADOW))
        assignment = build_assignment(layout, gains, cfg)
        schedule = build_scan_schedule(layout.regions, _stream(cfg, drop, _S_SCHED))
        geom = ArrayGeometry(cfg.n_antennas, cfg.spacing_wavelengths)
        n_fading, k_ues, m_aps, n_ant = cfg.n_fading, cfg.k_ues, cfg.m_aps, cfg.n_antennas

        h = fading_tensor(cfg.seed, drop, gains, n_fading, n_ant)
        plans = []
        for f in range(n_fading):
            epoch = f % schedule.n_epochs
            cells = [
                layout.regions[l].cells[schedule.epochs[epoch, l]] for l in range(cfg.l_regions)
            ]
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
            plans.append((cells, h_dict, plan))
        stream = np.array([law_normals(h_f, gains, assignment, plan) for _, h_f, plan in plans])
        requests = []

        def normals(draw, fs, out):
            requests.append(out.shape[1])
            return stream[fs.start : fs.stop]

        monkeypatch.setattr(harness.Draw, "normals", normals)
        dr = run_drop(cfg, drop)
        # every arm reads the whole stream, exactly as long as the reference's
        assert set(requests) == {stream.shape[1]}
        sym = _stream(cfg, drop, _S_SYMBOL)
        x = np.exp(2j * np.pi * sym.random((n_fading, k_ues)))
        x0 = np.exp(2j * np.pi * sym.random((n_fading, m_aps)))
        noise = math.sqrt(cfg.sigma_z2_w) * complex_normal(
            _stream(cfg, drop, _S_NOISE), (n_fading, m_aps, n_ant)
        )

        rx_all = assignment.rx_aps
        tx_all = assignment.tx_aps
        corr = cfg.angular_corr_rad
        sigma = math.sqrt(cfg.sigma_rcs2_m2)
        s_rx = [psd_sqrt(view_angle_kernel(t, layout.aps[rx_all], corr)) for t in layout.targets]
        s_tx = [psd_sqrt(view_angle_kernel(t, layout.aps[tx_all], corr)) for t in layout.targets]
        z = complex_normal(
            _stream(cfg, drop, _S_RCS), (n_fading, cfg.t_targets, len(rx_all), 1)
        )[..., 0]

        a_tgt = steering_bank(geom, layout.aps, layout.broadsides, layout.targets)
        d_tgt = np.linalg.norm(layout.targets[:, None, :] - layout.aps[None, :, :], axis=2)
        g_tgt = 10 ** (
            -(22.0 * np.log10(np.maximum(d_tgt, 1.0)) + 28.0 + 20.0 * np.log10(cfg.carrier_ghz))
            / 10.0
        )

        for f, (cells, h_dict, plan) in enumerate(plans):
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

            # fused detection through the op-level sensing chain; each target's
            # reflectivities are the rank-one realization sigma S_rx z b^H S_tx with
            # b = S_tx u / ||S_tx u||, which the transmit signals see as
            # alpha u = sigma S_rx z ||S_tx u||, the engine's draw
            for t in range(cfg.t_targets):
                u = np.array(
                    [
                        math.sqrt(g_tgt[t, mp]) * (a_tgt[t, mp].conj() @ tx_signals[int(mp)])
                        for mp in tx_all
                    ]
                )
                b = s_tx[t] @ u
                b /= np.linalg.norm(b)
                alpha = sigma * np.outer(s_rx[t] @ z[f, t], b.conj() @ s_tx[t])
                for ri, m in enumerate(rx_all):
                    for pi, mp in enumerate(tx_all):
                        channels.target_links[(t, int(m), int(mp))] = TargetLink(
                            alpha=complex(alpha[ri, pi]),
                            beta=float(g_tgt[t, m] * g_tgt[t, mp]),
                            tx_steering=a_tgt[t, mp],
                            rx_steering=a_tgt[t, m],
                        )
            for l, (tx_cluster, rx_cluster) in enumerate(assignment.sensing_clusters):
                dicts = []
                ys = []
                for m in rx_cluster:
                    dicts.append(
                        build_dictionary(
                            cells[l],
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
                assert stat == pytest.approx(dr.statistics[f, l], rel=1e-9)
                total_rank = sum(d.rank for d in dicts)
                thr = calibrate_threshold(max(total_rank, 1), cfg.sigma_z2_w, cfg.pfa_target)
                assert thr == pytest.approx(dr.thresholds[f, l], rel=1e-12)
                r_mat = cfg.sigma_rcs2_m2 * view_angle_kernel(
                    cells[l].center, layout.aps[tx_cluster], corr
                )
                snr = sensing_snr(dicts, [r_mat] * len(rx_cluster), cfg.sigma_z2_w)
                assert 10 * math.log10(snr) == pytest.approx(dr.sensing_snr_db[f, l], rel=1e-9)


def _drop_context(cfg, drop=0, layout=None, all_cells=False):
    """The engine's per-drop context, from Draw, and every link's reference channel.

    A given ``layout`` replaces the drawn one; it keeps the drawn APs and UEs,
    so the drawn gains and schedule still belong to it. With
    ``all_cells`` the schedule is the whole sweep, so the context's cell
    tables cover every cell and its cell ids are the global ones.
    """
    drawn = Draw(cfg, drop)
    if layout is None:
        layout = drawn.layout
    else:
        np.testing.assert_array_equal(layout.aps, drawn.layout.aps)
        np.testing.assert_array_equal(layout.ues, drawn.layout.ues)
    schedule = drawn.schedule
    if all_cells:
        schedule = build_scan_schedule(layout.regions, _stream(cfg, drop, _S_SCHED))
    assignment = build_assignment(layout, drawn.gains, cfg)
    ctx = _DropContext(cfg, layout, assignment, drawn.gains, _CellTables(cfg, layout, schedule))
    return ctx, fading_tensor(cfg.seed, drop, drawn.gains, cfg.n_fading, cfg.n_antennas)


def _truth_loop(layout):
    """Ground truth per flat cell id through reference.contains_xy, one target at a time."""
    return np.array(
        [
            any(
                contains_xy(cell.bounds, x, y)
                for (x, y, _), t_region in zip(layout.targets, layout.target_regions)
                if t_region == l
            )
            for l, region in enumerate(layout.regions)
            for cell in region.cells
        ]
    )


class TestGroundTruth:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_contains_loop(self, seed):
        cfg = ExperimentConfig(seed=seed, t_targets=3 * seed, n_fading=1)
        ctx, _ = _drop_context(cfg, all_cells=True)
        layout = ctx.layout
        np.testing.assert_array_equal(ctx.truth_cell, _truth_loop(layout))
        assert ctx.truth_cell.sum() <= len(layout.targets)

    @pytest.mark.parametrize("edge", ["lower", "upper"])
    def test_targets_on_cell_edges(self, edge):
        cfg = ExperimentConfig(seed=3, n_fading=1)
        layout = generate_layout(cfg, _stream(cfg, 0, _S_LAYOUT))
        targets, regions, cell_ids, offset = [], [], [], 0
        for l, region in enumerate(layout.regions):
            for ci in (0, len(region.cells) - 1):
                x0, y0, x1, y1 = region.cells[ci].bounds
                targets.append((x0, y0, 30.0) if edge == "lower" else (x1, y1, 30.0))
                regions.append(l)
                cell_ids.append(offset + ci)
            offset += len(region.cells)
        layout = replace(layout, targets=np.array(targets), target_regions=np.array(regions))
        truth = _drop_context(cfg, layout=layout, all_cells=True)[0].truth_cell
        np.testing.assert_array_equal(truth, _truth_loop(layout))
        # [x0, x1) x [y0, y1): a lower corner is inside its cell, an upper corner is not
        inside = truth[cell_ids]
        assert inside.all() if edge == "lower" else not inside.any()

    @pytest.mark.parametrize("mode", ["UTC", "CF"])
    def test_compact_cell_tables_match_full_tables(self, mode):
        # 2 realizations inspect 2 epochs of 4 regions, 8 of the 64 cells: the
        # compact tables hold exactly those, bitwise the full tables' rows
        cfg = ExperimentConfig(mode=mode, t_targets=20, n_fading=2)
        ctx, _ = _drop_context(cfg)
        full, _ = _drop_context(cfg, all_cells=True)
        global_of = full.cell_of[: ctx.n_epochs]
        assert ctx.cell_of.shape == global_of.shape == (2, cfg.l_regions)
        assert len(ctx.a_cell) == len(np.unique(global_of)) == 8
        assert full.truth_cell[global_of].any()
        for table in ("a_cell", "g_cell", "r_cell", "truth_cell"):
            compact, whole = getattr(ctx, table), getattr(full, table)
            assert len(compact) == len(ctx.a_cell)
            np.testing.assert_array_equal(compact[ctx.cell_of], whole[global_of])


class TestBeams:
    @pytest.mark.parametrize("mode", ["UTC", "CF"])
    def test_mf_beams_bitwise_match_scaled_conjugate(self, mode):
        # conj(h) times amp / ||h||, the squared norm summed over the float view
        ctx, h = _drop_context(ExperimentConfig(**{**TINY, "mode": mode, "n_fading": 6}))
        h_re = h.view(np.float64)
        norm = np.sqrt(np.einsum("fkmi,fkmi->fkm", h_re, h_re))
        served = ctx.amp > 0
        assert served.any() and not served.all()
        scale = np.where(served, ctx.amp / norm, 0.0)
        expected = h.conj() * scale[:, :, :, None]
        got = _mf_beams(h, ctx.amp)
        assert np.array_equal(got.view(np.float64), expected.view(np.float64))

    def test_mf_beams_zero_on_unserved_zero_channels(self):
        # an unserved link with a zero channel gets an exact zero beam: no
        # division by its zero norm, no NaN and no floating-point warning
        rng = np.random.default_rng(6)
        h = complex_normal(rng, (4, 5, 6, 3))
        amp = rng.uniform(0.5, 2.0, (5, 6)) * (rng.random((5, 6)) < 0.5)
        amp[0, 0], amp[1, 2] = 0.0, 1.5  # at least one unserved and one served link
        h[:, amp == 0] = 0.0
        with np.errstate(all="raise"):
            w_conj = _mf_beams(h, amp)
        assert np.array_equal(w_conj[:, amp == 0], np.zeros_like(w_conj[:, amp == 0]))
        norms = np.linalg.norm(w_conj, axis=3)
        served = np.broadcast_to(amp > 0, norms.shape)
        expected = np.broadcast_to(amp, norms.shape)[served]
        np.testing.assert_allclose(norms[served], expected, rtol=1e-15, atol=0)

    # sizes [1, 2] and [1, 2, 3] on the bank path, [2] on the dense one
    ZF_ARMS = [("UTC", 2), ("UC", 3), ("CF", 2)]

    @staticmethod
    def _zf_cfg(mode, k_zf):
        return ExperimentConfig(
            **{**TINY, "k_ues": 5, "l_regions": 2, "mode": mode, "beamformer": "ZF", "k_zf": k_zf}
        )

    def test_zf_partial_fallback(self):
        # realizations 1 and 4 give every ZF AP an annulled channel equal to
        # its cell steering vector, and realization 2 does so only for every
        # other AP of the largest size group, so the projection vanishes at
        # exactly those (f, m); every other (f, m) keeps its projected beam
        cfg = self._zf_cfg("UTC", 2).replace(n_fading=6)
        ctx, h = _drop_context(cfg)
        epoch_cells = ctx.cell_of[np.arange(cfg.n_fading) % ctx.n_epochs]
        annul_of = {int(m): row for aps, annul in ctx.zf_sets for m, row in zip(aps, annul)}
        largest = max(ctx.zf_sets, key=lambda group: len(group[0]))[0]
        assert len(largest) >= 3
        crafted = np.zeros((cfg.n_fading, cfg.m_aps), dtype=bool)
        crafted[np.ix_([1, 4], list(annul_of))] = True
        crafted[2, largest[::2]] = True
        for f, m in zip(*np.nonzero(crafted)):
            cell = epoch_cells[f, ctx.assignment.pointing[m]]
            h[f, annul_of[m][0], m] = ctx.a_cell[cell, m]

        f, k, m, n = h.shape
        w0, diag = _sense_beams(ctx, h.reshape(f, k * m, n), np.arange(k * m).reshape(k, m), epoch_cells)

        n_ant = cfg.n_antennas
        assert diag.zf_beams == cfg.n_fading * len(annul_of)
        assert diag.zf_fallbacks == crafted.sum() == 2 * len(annul_of) + len(largest[::2])
        leak_max = 0.0
        for m, annul in annul_of.items():
            cells = epoch_cells[:, ctx.assignment.pointing[m]]
            mf = ctx.a_cell[cells, m] / math.sqrt(n_ant)  # (F, N)
            fell, ok = crafted[:, m], ~crafted[:, m]
            np.testing.assert_array_equal(w0[fell, m], mf[fell])
            # the fallback beams leak sqrt(N) onto the crafted channel
            for f in np.flatnonzero(fell):
                assert np.abs(np.vdot(h[f, annul[0], m], w0[f, m])) > 1.0
            # elsewhere the unit-norm projection of the steering vector
            for f in np.flatnonzero(ok):
                q = np.linalg.qr(h[f, annul, m].T)[0]
                w = mf[f] - q @ (q.conj().T @ mf[f])
                np.testing.assert_allclose(w0[f, m], w / np.linalg.norm(w), rtol=1e-12, atol=1e-14)
            h_ann = h[:, annul, m, :]
            leak = np.abs(np.einsum("fan,fn->fa", h_ann[ok].conj(), w0[ok, m], optimize=True))
            assert leak.max() < 1e-9
            leak_max = max(leak_max, float(leak.max()))
        assert diag.zf_leakage_max == leak_max

    @pytest.mark.parametrize("mode,k_zf", ZF_ARMS)
    def test_zf_sets_group_the_strongest_served_ues(self, mode, k_zf):
        # each sensing AP with a served UE annuls its k_zf strongest served UEs
        # (ties to the lower index); the sets run by size, then by AP
        ctx, _ = _drop_context(self._zf_cfg(mode, k_zf))
        expected = []
        for m in ctx.sensing_tx:
            served = ctx.assignment.served[m]
            strongest = sorted(served, key=lambda k: (-ctx.gains[k, m], k))[:k_zf]
            if strongest:
                expected.append((len(strongest), int(m), strongest))
        got = [
            (annul.shape[1], int(m), row.tolist())
            for aps, annul in ctx.zf_sets
            for m, row in zip(aps, annul)
        ]
        assert got == sorted(expected)

    @pytest.mark.parametrize("mode,k_zf", ZF_ARMS)
    def test_one_qr_per_annulment_size(self, mode, k_zf, monkeypatch):
        # the ZF APs of one annulment size share one batched QR per block
        cfg = self._zf_cfg(mode, k_zf)
        ctx, _ = _drop_context(cfg)
        served = [len(ctx.assignment.served[m]) for m in ctx.sensing_tx]
        aps_of_size = collections.Counter(min(n, k_zf) for n in served if n)
        assert sum(aps_of_size.values()) > len(aps_of_size)
        qr_shapes = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda x: qr_shapes.append(x.shape) or qr(x))
        monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
        run_drop(cfg, 0)
        # 3 realizations in two blocks, which may run in either order
        n_ant, blocks = cfg.n_antennas, [2, 1]
        assert sorted(qr_shapes) == sorted(
            (n_fading, n_aps, n_ant, size)
            for n_fading in blocks
            for size, n_aps in aps_of_size.items()
        )

    def test_direct_bank_matches_scalar_rician(self):
        # at K = 300 dB the scattered part is 1e-15 of the LoS part, so the direct
        # term at every receive AP must equal the sum over the transmit APs of the
        # scalar Rician matrix that maps the tx array onto the rx array, each with
        # its own broadside, times that AP's signal
        cfg = ExperimentConfig(**{**TINY, "rician_k_db": 300.0, "random_broadside": True})
        ctx, _ = _drop_context(cfg)
        layout = ctx.layout
        n_snap, n_ant = 2, cfg.n_antennas
        s_tx = complex_normal(
            np.random.default_rng(1), (n_snap, cfg.n_fading, len(ctx.tx_all), n_ant)
        )
        direct = _direct_path(cfg, ctx, s_tx, np.random.default_rng(2))
        assert direct.shape == (n_snap, cfg.n_fading, len(ctx.rx_all), n_ant)

        def geom(m):
            return ArrayGeometry(n_ant, cfg.spacing_wavelengths, layout.broadsides[m])

        rng = np.random.default_rng(0)
        for r, mr in enumerate(ctx.rx_all):
            for f in range(cfg.n_fading):
                expected = np.zeros((n_snap, n_ant), dtype=complex)
                for p, mt in enumerate(ctx.tx_all):
                    channel = draw_ap_ap_channel(
                        _gain(cfg, layout.aps[mt], layout.aps[mr]),
                        geom(mt),
                        geom(mr),
                        layout.aps[mt],
                        layout.aps[mr],
                        cfg.rician_k_linear,
                        rng,
                    )
                    expected += s_tx[:, f, p] @ channel.T
                scale = np.abs(expected).max()
                np.testing.assert_allclose(
                    direct[:, f, r], expected, rtol=1e-12, atol=1e-12 * scale
                )


def _gain(cfg, a, b):
    """One-way LoS linear gain between two positions."""
    dist = float(np.linalg.norm(a - b))
    return linear_gain(pathloss_db(dist, "ap_target_los", cfg.carrier_ghz))


def _normalized(cov, expected):
    """Both covariances divided by the expected standard deviations."""
    d = np.sqrt(np.real(np.diag(expected)))
    return cov / np.outer(d, d), expected / np.outer(d, d)


class TestEchoLaw:
    """The echo and the direct path drawn in law against their covariances."""

    N_DRAWS = 100_000
    CFG = ExperimentConfig(**{**TINY, "t_targets": 1})

    def _fixed_signals(self, ctx, n_snap):
        """One random transmit signal per snapshot, the same in every draw."""
        shape = (n_snap, 1, len(ctx.tx_all), self.CFG.n_antennas)
        signals = complex_normal(np.random.default_rng(4), shape)
        return np.broadcast_to(signals, (n_snap, self.N_DRAWS, *signals.shape[2:]))

    def _u_and_kernels(self, ctx, s_tx):
        """u = sqrt(g_tx) (a_tx^H s) per snapshot, K_rx, K_tx and sqrt(g_rx) of target 0."""
        cfg, layout, target = self.CFG, ctx.layout, ctx.layout.targets[0]
        tx, rx = ctx.tx_all, ctx.rx_all
        geom = ArrayGeometry(cfg.n_antennas, cfg.spacing_wavelengths)
        u = np.array(
            [
                [
                    math.sqrt(_gain(cfg, target, layout.aps[m]))
                    * (steering_to(geom, layout.aps[m], target).conj() @ s[p])
                    for p, m in enumerate(tx)
                ]
                for s in s_tx[:, 0]
            ]
        ).T  # (P, J)
        corr = cfg.angular_corr_rad
        k_rx = view_angle_kernel(target, layout.aps[rx], corr)
        k_tx = view_angle_kernel(target, layout.aps[tx], corr)
        sqrt_g_rx = np.sqrt([_gain(cfg, target, layout.aps[m]) for m in rx])
        return u, k_rx, k_tx, sqrt_g_rx

    def test_echo_covariance_at_fixed_u(self):
        cfg = self.CFG
        ctx, _ = _drop_context(cfg)
        s_tx = self._fixed_signals(ctx, 1)
        echo = _target_echoes(ctx, s_tx, np.random.default_rng(5))
        w = echo[0, :, :, 0]  # entry 0 of every steering vector is 1
        cov = w.T @ w.conj() / self.N_DRAWS  # E[w_r conj(w_r')]

        u, k_rx, k_tx, sqrt_g_rx = self._u_and_kernels(ctx, s_tx)
        u = u[:, 0]
        d = np.diag(sqrt_g_rx)
        expected = cfg.sigma_rcs2_m2 * (d @ k_rx @ d) * np.real(u.conj() @ k_tx @ u)
        # the same covariance from the oracle's pair covariance, contracted with u
        model = RcsModel(cfg.sigma_rcs2_m2, cfg.angular_corr_rad)
        pair = rcs_pair_covariance(
            ctx.layout.targets[0], ctx.layout.aps[ctx.rx_all], ctx.layout.aps[ctx.tx_all], model
        )
        n_rx, n_tx = len(ctx.rx_all), len(ctx.tx_all)
        contracted = np.einsum(
            "apbq,p,q->ab", pair.reshape(n_rx, n_tx, n_rx, n_tx), u, u.conj()
        )
        np.testing.assert_allclose(d @ contracted @ d, expected, rtol=1e-10)
        got, want = _normalized(cov, expected)
        np.testing.assert_allclose(got, want, atol=0.02)

    def test_echo_power_convention(self):
        # one target and one sending transmit AP: the mean echo power at one
        # receive antenna is the bistatic product sigma g_tx g_rx P |a_tx^H b|^2
        # |a_rx,0|^2, with every gain a one-way LoS power gain and no 4 pi /
        # lambda^2: 10 dBsm acts like -17.5 dBsm in the radar equation at 2 GHz
        cfg = self.CFG
        drawn = Draw(cfg, 0)
        layout, target = drawn.layout, drawn.layout.targets[0]
        assignment = build_assignment(layout, drawn.gains, cfg)
        ctx = _DropContext(cfg, layout, assignment, drawn.gains, drawn.cells)
        m_tx, m_rx = ctx.tx_all[0], ctx.rx_all[0]
        p_tx = 0.5  # W
        beam = complex_normal(np.random.default_rng(8), cfg.n_antennas)
        beam /= np.linalg.norm(beam)
        s_tx = np.zeros((1, 1, len(ctx.tx_all), cfg.n_antennas), dtype=complex)
        s_tx[0, 0, 0] = math.sqrt(p_tx) * beam  # transmit AP m_tx alone sends
        s_tx = np.broadcast_to(s_tx, (1, self.N_DRAWS, *s_tx.shape[2:]))
        echo = _target_echoes(ctx, s_tx, np.random.default_rng(9))
        power = np.mean(np.abs(echo[0, :, 0, 0]) ** 2)  # receive AP m_rx, antenna 0

        geom = ArrayGeometry(cfg.n_antennas, cfg.spacing_wavelengths)
        sigma = 10.0 ** (cfg.sigma_rcs_dbsm / 10.0)  # RCS variance, m^2
        g_tx = _gain(cfg, target, layout.aps[m_tx])
        g_rx = _gain(cfg, target, layout.aps[m_rx])
        tx_array_gain = abs(steering_to(geom, layout.aps[m_tx], target).conj() @ beam) ** 2
        rx_array_gain = abs(steering_to(geom, layout.aps[m_rx], target)[0]) ** 2  # one antenna
        convention = 1.0  # the radar equation's would be 4 pi / lambda^2
        expected = convention * sigma * g_tx * g_rx * p_tx * tx_array_gain * rx_array_gain
        assert rx_array_gain == pytest.approx(1.0, rel=1e-12)
        assert power == pytest.approx(expected, rel=0.02)
        # so the radar equation reads the same power at 10 dBsm - 27.5 dB
        wavelength = 299_792_458.0 / cfg.carrier_hz
        radar_factor_db = 10 * math.log10(4 * math.pi / wavelength**2)
        assert cfg.sigma_rcs_dbsm - radar_factor_db == pytest.approx(-17.5, abs=0.05)

    def test_snapshots_share_the_reflectivities(self):
        # with two snapshots the cross-snapshot covariance is the Gram u_i^H K_tx u_j
        cfg = self.CFG
        ctx, _ = _drop_context(cfg)
        s_tx = self._fixed_signals(ctx, 2)
        echo = _target_echoes(ctx, s_tx, np.random.default_rng(6))
        w = echo[:, :, :, 0].transpose(1, 2, 0).reshape(self.N_DRAWS, -1)  # (F, R J), r-major
        cov = w.T @ w.conj() / self.N_DRAWS

        u, k_rx, k_tx, sqrt_g_rx = self._u_and_kernels(ctx, s_tx)
        gram = u.conj().T @ k_tx @ u
        d = np.diag(sqrt_g_rx)
        expected = np.kron(cfg.sigma_rcs2_m2 * (d @ k_rx @ d), gram.conj())
        assert abs(gram[0, 1]) > 0.1 * np.sqrt(gram[0, 0].real * gram[1, 1].real)
        got, want = _normalized(cov, expected)
        np.testing.assert_allclose(got, want, atol=0.02)

    @pytest.mark.parametrize("n_snap", [1, 2])
    def test_direct_scatter_covariance(self, n_snap):
        # the scattered part of the direct path at receive AP r has covariance
        # sum_p g_pr ||s_p||^2 / (K + 1) I_N, independent across receive APs; over
        # two snapshots each antenna has the Gram sum_p g_pr s_p,i^H s_p,j / (K + 1)
        cfg = self.CFG.replace(direct_residual=0.1)
        ctx, _ = _drop_context(cfg)
        s_tx = self._fixed_signals(ctx, n_snap)
        direct = _direct_path(cfg, ctx, s_tx, np.random.default_rng(7))
        centered = direct - direct.mean(axis=1, keepdims=True)
        x = centered.transpose(1, 2, 3, 0).reshape(self.N_DRAWS, -1)  # (F, R N J), r-major
        cov = x.T @ x.conj() / self.N_DRAWS

        aps = ctx.layout.aps
        signals = s_tx[:, 0]  # (J, P, N)
        blocks = []
        for mr in ctx.rx_all:
            gram = sum(
                _gain(cfg, aps[mt], aps[mr]) * (signals[:, p].conj() @ signals[:, p].T)
                for p, mt in enumerate(ctx.tx_all)
            ) / (cfg.rician_k_linear + 1.0)
            blocks.append(np.kron(np.eye(cfg.n_antennas), gram.conj()))
        expected = block_diag(*blocks)
        got, want = _normalized(cov, expected)
        np.testing.assert_allclose(got, want, atol=0.02)

    def test_more_snapshots_than_transmit_aps(self):
        # 9 snapshots from 8 transmit APs: every target's snapshot Gram is singular
        cfg = ExperimentConfig(**{**TINY, "n_snapshots": 9, "direct_residual": 0.1})
        dr = run_drop(cfg, 0)
        assert len(dr.assignment.tx_aps) < cfg.n_snapshots
        assert np.all(np.isfinite(dr.statistics)) and np.all(dr.statistics > 0)


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
