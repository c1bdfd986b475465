import numpy as np
import pytest

from cfisac.clustering import assign_ap_modes, associate_ues, build_assignment
from cfisac.config import ConfigError, ExperimentConfig
from cfisac.deployment import generate_layout
from cfisac.harness import _S_LAYOUT, _S_SHADOW, _stream, ue_ap_gains
from cfisac.metrics import fronthaul_load


def make_assignment(seed=0, **kw):
    cfg = ExperimentConfig(seed=seed, **kw)
    layout = generate_layout(cfg, _stream(cfg, 0, _S_LAYOUT))
    gains = ue_ap_gains(layout, cfg, _stream(cfg, 0, _S_SHADOW))
    return cfg, layout, gains, build_assignment(layout, gains, cfg)


class TestAssignApModes:
    def test_baseline_cluster_sizes(self):
        _, _, _, assignment = make_assignment(mode="UTC")
        assert len(assignment.rx_aps) == 8
        for tx_c, rx_c in assignment.sensing_clusters:
            assert len(tx_c) == 6 and len(rx_c) == 2

    def test_partition_invariant(self):
        for mode in ("UTC", "UC", "TC", "CF"):
            _, _, _, assignment = make_assignment(mode=mode)
            combined = np.concatenate([assignment.tx_aps, assignment.rx_aps])
            assert sorted(combined) == list(range(64))

    def test_clusters_disjoint_in_target_centric_modes(self):
        for mode in ("UTC", "TC"):
            _, _, _, assignment = make_assignment(mode=mode)
            seen = set()
            for tx_c, rx_c in assignment.sensing_clusters:
                members = set(int(m) for m in tx_c) | set(int(m) for m in rx_c)
                assert not members & seen
                seen |= members

    def test_non_scalable_modes_use_all_aps(self):
        for mode in ("UC", "CF"):
            _, _, _, assignment = make_assignment(mode=mode)
            for tx_c, rx_c in assignment.sensing_clusters:
                assert len(tx_c) == len(assignment.tx_aps)
                assert len(rx_c) == len(assignment.rx_aps)

    def test_zero_rx_rejected(self):
        # assign_ap_modes trusts its sizes: ExperimentConfig.validate checks them
        with pytest.raises(ConfigError, match="m_rx_per_region"):
            ExperimentConfig(m_rx_per_region=0).validate()
        with pytest.raises(ConfigError, match="m_tx_per_region"):
            ExperimentConfig(m_tx_per_region=0).validate()

    def test_insufficient_aps_rejected(self):
        # target-centric regions claim (6 + 2) * 4 = 32 APs
        for mode in ("UTC", "TC"):
            with pytest.raises(ConfigError, match="16 APs cannot satisfy 4 regions"):
                ExperimentConfig(mode=mode, m_aps=16).validate()
        ExperimentConfig(mode="TC", m_aps=32).validate()
        # the others claim 2 * 4 = 8 receive APs and must leave a transmit AP
        with pytest.raises(ConfigError, match="8 APs cannot satisfy 4 regions"):
            ExperimentConfig(mode="CF", m_aps=8).validate()
        ExperimentConfig(mode="CF", m_aps=9).validate()

    def test_single_region_distance_ranking(self):
        # 8 APs on a line, region center at 500: ranking is by hand-sorted
        # distance; the 2 closest receive, the next 6 transmit
        cfg = ExperimentConfig(m_aps=8, k_ues=2, t_targets=0, l_regions=1)
        layout = generate_layout(cfg, np.random.default_rng(0))
        layout.aps[:, 0] = np.array([500.0, 480.0, 520.0, 400.0, 610.0, 300.0, 700.0, 100.0])
        layout.aps[:, 1] = 500.0
        tx, rx, clusters, pointing = assign_ap_modes(layout, "UTC", 6, 2)
        assert sorted(rx) == [0, 1]  # distances 0 and 20
        assert len(clusters[0][0]) == 6
        assert sorted(np.concatenate(clusters[0])) == list(range(8))

    def test_pointing_only_for_sensing_tx(self):
        _, _, _, assignment = make_assignment(mode="UTC")
        sensing = assignment.pointing >= 0
        rx_set = set(int(m) for m in assignment.rx_aps)
        assert not any(int(m) in rx_set for m in np.flatnonzero(sensing))
        assert sensing.sum() == 24  # 4 regions x 6 transmit APs


class TestAssociateUes:
    def test_inverse_relation_brute_force(self):
        rng = np.random.default_rng(1)
        gains = rng.random((32, 64))
        tx_aps = np.arange(8, 64)
        serving, served = associate_ues(gains, tx_aps, 4, "UTC")
        for k in range(32):
            for m in range(64):
                assert (m in serving[k]) == (k in served[m])

    def test_sorted_prefix(self):
        gains = np.linspace(1.0, 0.1, 10).reshape(1, 10)
        serving, _ = associate_ues(gains, np.arange(10), 4, "UTC")
        assert list(serving[0]) == [0, 1, 2, 3]

    def test_ties_broken_by_lower_index(self):
        gains = np.ones((1, 6))
        serving, _ = associate_ues(gains, np.arange(6), 3, "UC")
        assert list(serving[0]) == [0, 1, 2]

    def test_full_q_equals_target_centric(self):
        rng = np.random.default_rng(2)
        gains = rng.random((5, 12))
        tx_aps = np.arange(12)
        utc, _ = associate_ues(gains, tx_aps, 12, "UTC")
        tc, _ = associate_ues(gains, tx_aps, 12, "TC")
        for a, b in zip(utc, tc):
            np.testing.assert_array_equal(a, b)

    def test_non_scalable_serving(self):
        gains = np.random.default_rng(0).random((4, 10))
        tx_aps = np.arange(2, 10)
        serving, served = associate_ues(gains, tx_aps, 3, "CF")
        for aps in serving:
            np.testing.assert_array_equal(aps, tx_aps)
        assert all(len(served[m]) == 4 for m in tx_aps)

    def test_cap_moves_overflow_to_next_ap_with_room(self):
        # all six UEs rank AP 0 first, then 1, 2, 3, 4; UE 0 is strongest
        # everywhere. With cap 3, UEs 0-2 fill APs 0 and 1 and UEs 3-5 move
        # on to APs 2 and 3, the next-strongest APs with room.
        gains = (5.0 - np.arange(5))[None, :] + 0.01 * (6 - np.arange(6))[:, None]
        tx_aps = np.arange(5)
        uncapped, _ = associate_ues(gains, tx_aps, 2, "UTC")
        assert all(list(aps) == [0, 1] for aps in uncapped)
        serving, served = associate_ues(gains, tx_aps, 2, "UTC", cap=3)
        assert [list(aps) for aps in serving] == [[0, 1]] * 3 + [[2, 3]] * 3
        assert max(len(ks) for ks in served) <= 3
        assert all(len(aps) == 2 for aps in serving)
        for k in range(6):
            for m in range(5):
                assert (m in serving[k]) == (k in served[m])

    def test_cap_matches_greedy_over_sorted_pairs(self):
        # reference: visit every (UE, AP) pair by descending gain, ties by
        # lower UE then lower AP index, accept while both have room
        rng = np.random.default_rng(3)
        tx_aps = np.array([9, 2, 7, 4, 0, 5, 3, 8])
        q, cap = 3, 5
        for trial in range(20):
            gains = np.round(rng.random((12, 10)), 1)  # coarse values force ties
            pairs = sorted((-gains[k, m], k, m) for k in range(12) for m in tx_aps)
            held = {k: [] for k in range(12)}
            load = dict.fromkeys(tx_aps.tolist(), 0)
            for _, k, m in pairs:
                if len(held[k]) < q and load[m] < cap:
                    held[k].append(m)
                    load[m] += 1
            serving, served = associate_ues(gains, tx_aps, q, "UC", cap=cap)
            for k in range(12):
                assert list(serving[k]) == sorted(held[k]), (trial, k)
            assert max(len(ks) for ks in served) <= cap

    def test_cap_that_does_not_bind_keeps_strongest_q(self):
        rng = np.random.default_rng(4)
        gains = rng.random((16, 20))
        tx_aps = np.arange(2, 20)
        uncapped, served = associate_ues(gains, tx_aps, 4, "UTC")
        loose = max(len(ks) for ks in served)
        capped, _ = associate_ues(gains, tx_aps, 4, "UTC", cap=loose)
        for a, b in zip(uncapped, capped):
            np.testing.assert_array_equal(a, b)

    def test_infeasible_cap_rejected(self):
        # 5 UEs x q=2 need 10 links, 4 APs x cap 2 offer 8
        gains = np.random.default_rng(5).random((5, 4))
        with pytest.raises(ConfigError, match="cap"):
            associate_ues(gains, np.arange(4), 2, "UTC", cap=2)

    def test_cap_leaves_non_scalable_modes_alone(self):
        gains = np.random.default_rng(6).random((6, 5))
        for mode in ("TC", "CF"):
            serving, served = associate_ues(gains, np.arange(5), 2, mode, cap=1)
            assert all(len(aps) == 5 for aps in serving)
            assert all(len(ks) == 6 for ks in served)

    def test_q_too_large_rejected(self):
        # 64 - 2 * 4 = 56 transmit APs; TC/CF serve from all of them
        for mode in ("UTC", "UC"):
            with pytest.raises(ConfigError, match="q=57 exceeds the 56 available"):
                ExperimentConfig(mode=mode, q_serving=57).validate()
        for mode in ("TC", "CF"):
            ExperimentConfig(mode=mode, q_serving=57).validate()

    def test_too_few_antennas_for_the_cap_rejected_from_config(self):
        # baseline with 2 antennas: 56 transmit APs x cap 2 = 112 < q K = 128
        # links, so no drop fits; the config is rejected before any gains
        for mode in ("UTC", "UC"):
            with pytest.raises(ConfigError, match="n_antennas=2"):
                ExperimentConfig(mode=mode, n_antennas=2).validate()
        ExperimentConfig(mode="UTC", n_antennas=3).validate()  # 3 * 53 >= 128
        for mode in ("TC", "CF"):
            ExperimentConfig(mode=mode, n_antennas=2).validate()

    def test_cap_bound_is_inclusive(self):
        # 12 - 2 = 10 transmit APs, q = 2: n_antennas * 9 >= 2 K
        small = dict(m_aps=12, l_regions=1, m_tx_per_region=3, q_serving=2, n_antennas=2)
        ExperimentConfig(k_ues=9, **small).validate()  # 18 >= 18
        with pytest.raises(ConfigError, match="cannot always give each of 10 UEs"):
            ExperimentConfig(k_ues=10, **small).validate()  # 18 < 20

    def test_rx_aps_never_serve(self):
        _, _, _, assignment = make_assignment(mode="UTC")
        rx_set = set(int(m) for m in assignment.rx_aps)
        for aps in assignment.serving:
            assert not rx_set & set(int(m) for m in aps)


class TestScalability:
    def test_per_ap_load_does_not_grow_with_network_size(self):
        """Per-AP complexity stays flat as M, K, L scale proportionally.

        Cluster membership and fronthaul scalars are structurally one per AP
        under UTC. The served-UE count keeps a fixed mean (q K / |M_tx|), and
        its maximum is bounded by construction: association caps every AP at
        n_antennas UEs, so the max cannot grow with M.
        """
        results = {}
        for m_aps in (64, 128, 256):
            cfg = ExperimentConfig(
                m_aps=m_aps, k_ues=m_aps // 2, l_regions=m_aps // 16, t_targets=0, mode="UTC"
            )
            max_served = 0
            mean_loads = []
            for drop in range(5):
                layout = generate_layout(cfg, _stream(cfg, drop, _S_LAYOUT))
                gains = ue_ap_gains(layout, cfg, _stream(cfg, drop, _S_SHADOW))
                assignment = build_assignment(layout, gains, cfg)
                membership = np.zeros(m_aps, dtype=int)
                for tx_c, rx_c in assignment.sensing_clusters:
                    membership[tx_c] += 1
                    membership[rx_c] += 1
                assert membership.max() == 1
                assert fronthaul_load(assignment).max_load == 1
                served = [len(assignment.served[m]) for m in assignment.tx_aps]
                max_served = max(max_served, max(served))
                mean_loads.append(np.sum(served) / len(assignment.tx_aps))
            assert max_served <= cfg.n_antennas
            results[m_aps] = (max_served, float(np.mean(mean_loads)))
        base_max, base_mean = results[64]
        for m_aps in (128, 256):
            grown_max, grown_mean = results[m_aps]
            assert grown_max <= base_max + 1
            assert grown_mean == pytest.approx(base_mean, rel=1e-12)
