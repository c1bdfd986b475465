import math

import numpy as np
import pytest

from cfisac.channel import ArrayGeometry, complex_normal
from cfisac.clustering import ClusterAssignment
from cfisac.metrics import (
    detection_rates,
    empirical_cdf,
    fronthaul_load,
    write_cdf_csv,
    write_samples_csv,
)
from reference import (
    BeamformingPlan,
    ChannelRealization,
    communication_sinr,
    mf_comm_beam,
    rate_bps,
)

GEOM = ArrayGeometry(8, 0.5)


def sinr_oracle(h, plan, serving, tx_aps, k, sigma_z2):
    """Straight-line re-implementation of the downlink SINR with explicit loops."""
    useful = 0.0 + 0.0j
    for m in serving[k]:
        useful += math.sqrt(plan.powers[(k, m)]) * np.vdot(h[(k, m)], plan.comm_beams[(k, m)])
    denom = sigma_z2
    for j in range(len(serving)):
        if j == k:
            continue
        term = 0.0 + 0.0j
        for m in serving[j]:
            term += math.sqrt(plan.powers[(j, m)]) * np.vdot(h[(k, m)], plan.comm_beams[(j, m)])
        denom += abs(term) ** 2
    for m in tx_aps:
        eta0 = plan.sense_powers.get(m, 0.0)
        if eta0 > 0:
            denom += eta0 * abs(np.vdot(h[(k, m)], plan.sense_beams[m])) ** 2
    return abs(useful) ** 2 / denom


def random_instance(rng, n_ues=3, n_aps=4, q=2, with_sensing=True):
    h = {(k, m): complex_normal(rng, 8) for k in range(n_ues) for m in range(n_aps)}
    serving = [np.sort(rng.choice(n_aps, size=q, replace=False)) for _ in range(n_ues)]
    plan = BeamformingPlan()
    for k in range(n_ues):
        for m in serving[k]:
            plan.comm_beams[(k, int(m))] = mf_comm_beam(h[(k, int(m))])
            plan.powers[(k, int(m))] = rng.uniform(0.1, 1.0)
    if with_sensing:
        for m in range(n_aps):
            w = complex_normal(rng, 8)
            plan.sense_beams[m] = w / np.linalg.norm(w)
            plan.sense_powers[m] = rng.uniform(0.0, 0.5)
    served = [np.array([k for k in range(n_ues) if m in serving[k]]) for m in range(n_aps)]
    assignment = ClusterAssignment(
        tx_aps=np.arange(n_aps),
        rx_aps=np.zeros(0, dtype=int),
        serving=serving,
        served=served,
        sensing_clusters=[],
        pointing=np.full(n_aps, -1),
    )
    channels = ChannelRealization(h=h)
    return channels, plan, assignment, serving


class TestCommunicationSinr:
    def test_single_ue_single_ap(self):
        rng = np.random.default_rng(0)
        h = complex_normal(rng, 8)
        plan = BeamformingPlan()
        plan.comm_beams[(0, 0)] = mf_comm_beam(h)
        plan.powers[(0, 0)] = 2.0
        assignment = ClusterAssignment(
            tx_aps=np.array([0]),
            rx_aps=np.zeros(0, dtype=int),
            serving=[np.array([0])],
            served=[np.array([0])],
            sensing_clusters=[],
            pointing=np.array([-1]),
        )
        channels = ChannelRealization(h={(0, 0): h})
        sigma = 1e-3
        got = communication_sinr(channels, plan, assignment, 0, sigma)
        assert got == pytest.approx(2.0 * np.linalg.norm(h) ** 2 / sigma, rel=1e-12)

    def test_noise_dominated_limit(self):
        channels, plan, assignment, _ = random_instance(np.random.default_rng(1))
        assert communication_sinr(channels, plan, assignment, 0, 1e12) < 1e-9

    def test_two_ue_two_ap_oracle(self):
        rng = np.random.default_rng(2)
        channels, plan, assignment, serving = random_instance(rng, n_ues=2, n_aps=2, q=1)
        for k in range(2):
            got = communication_sinr(channels, plan, assignment, k, 1e-2)
            expected = sinr_oracle(channels.h, plan, serving, range(2), k, 1e-2)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            channels, plan, assignment, serving = random_instance(rng)
            k = int(rng.integers(3))
            got = communication_sinr(channels, plan, assignment, k, 1e-2)
            expected = sinr_oracle(channels.h, plan, serving, range(4), k, 1e-2)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_removing_sensing_power_never_hurts(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            channels, plan, assignment, _ = random_instance(rng)
            with_sensing = communication_sinr(channels, plan, assignment, 0, 1e-2)
            plan.sense_powers = {m: 0.0 for m in plan.sense_powers}
            without = communication_sinr(channels, plan, assignment, 0, 1e-2)
            assert without >= with_sensing


class TestRate:
    def test_zero_sinr(self):
        assert rate_bps(0.0, 20e6) == 0.0

    def test_unit_sinr(self):
        assert rate_bps(1.0, 20e6) == pytest.approx(20e6)

    def test_sinr_three(self):
        assert rate_bps(3.0, 20e6) == pytest.approx(40e6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rate_bps(-0.1, 20e6)


class TestDetectionRates:
    def test_all_correct(self):
        pd, pfa = detection_rates([True, True, False], [True, True, False])
        assert pd == 1.0 and pfa == 0.0

    def test_forced_false_alarms(self):
        pd, pfa = detection_rates([True, True], [False, False])
        assert pd is None and pfa == 1.0

    def test_no_absent_cells(self):
        pd, pfa = detection_rates([True, False], [True, True])
        assert pfa is None and pd == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            detection_rates([], [])


class TestFronthaul:
    def _assignment(self, mode, m_aps=64):
        from cfisac.clustering import build_assignment
        from cfisac.config import ExperimentConfig
        from cfisac.deployment import generate_layout
        from cfisac.harness import _S_LAYOUT, _S_SHADOW, _stream, ue_ap_gains

        cfg = ExperimentConfig(m_aps=m_aps, k_ues=m_aps // 2, t_targets=0, mode=mode)
        layout = generate_layout(cfg, _stream(cfg, 0, _S_LAYOUT))
        gains = ue_ap_gains(layout, cfg, _stream(cfg, 0, _S_SHADOW))
        return build_assignment(layout, gains, cfg)

    def test_utc_one_scalar_per_epoch(self):
        load = fronthaul_load(self._assignment("UTC"))
        assert load.max_load == 1 and load.mean_load == 1.0

    def test_cf_reports_every_region(self):
        load = fronthaul_load(self._assignment("CF"))
        assert load.max_load == 4 and load.mean_load == 4.0

    def test_doubling_m_keeps_load_flat(self):
        assert fronthaul_load(self._assignment("UTC", m_aps=128)).max_load == 1


class TestEmpiricalCdf:
    def test_single_sample(self):
        curve = empirical_cdf([5.0])
        np.testing.assert_array_equal(curve.values, [5.0])
        np.testing.assert_array_equal(curve.probabilities, [1.0])

    def test_four_samples(self):
        curve = empirical_cdf([4.0, 1.0, 3.0, 2.0])
        np.testing.assert_array_equal(curve.values, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(curve.probabilities, [0.25, 0.5, 0.75, 1.0])

    def test_monotone(self):
        rng = np.random.default_rng(5)
        curve = empirical_cdf(rng.normal(size=500))
        assert np.all(np.diff(curve.probabilities) >= 0)
        assert np.all(np.diff(curve.values) >= 0)

    def test_merge_equals_concatenation(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=100), rng.normal(size=50)
        merged = empirical_cdf(np.concatenate([a, b]))
        direct = empirical_cdf(list(a) + list(b))
        np.testing.assert_array_equal(merged.values, direct.values)
        np.testing.assert_array_equal(merged.probabilities, direct.probabilities)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])


class TestFileEmission:
    def test_samples_roundtrip(self, tmp_path):
        path = tmp_path / "samples.csv"
        write_samples_csv(path, [(0, 3, "rate_bps", 1.5), (1, 0, "statistic", 2.25)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "drop,entity,metric,value"
        assert lines[1] == "0,3,rate_bps,1.5"

    def test_cdf_file(self, tmp_path):
        path = tmp_path / "cdf.csv"
        write_cdf_csv(path, empirical_cdf([2.0, 1.0]))
        lines = path.read_text().strip().splitlines()
        assert lines == ["value,probability", "1.0,0.5", "2.0,1.0"]
