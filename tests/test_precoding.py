import math

import numpy as np
import pytest

from cfisac.channel import ArrayGeometry, complex_normal
from cfisac.config import ConfigError, ExperimentConfig
from cfisac.harness import allocate_power
from reference import (
    BeamformingPlan,
    build_plan,
    mf_comm_beam,
    mf_sense_beam,
    steering_to,
    transmit_vector,
    zf_sense_beam,
)

GEOM = ArrayGeometry(n_antennas=8, spacing_wavelengths=0.5)
AP = np.array([0.0, 0.0, 10.0])
CELL = np.array([300.0, 120.0, 110.0])


class TestMfCommBeam:
    def test_unit_basis(self):
        e1 = np.zeros(8, dtype=complex)
        e1[0] = 1.0
        np.testing.assert_allclose(mf_comm_beam(e1), e1)

    def test_scale_invariance(self):
        h = complex_normal(np.random.default_rng(0), 8)
        np.testing.assert_allclose(mf_comm_beam(h), mf_comm_beam(3.7 * h), atol=1e-12)

    def test_zero_channel_rejected(self):
        with pytest.raises(ValueError):
            mf_comm_beam(np.zeros(8, dtype=complex))

    def test_maximal_alignment(self):
        # |h^H w| equals ||h|| and beats any other unit vector
        rng = np.random.default_rng(1)
        h = complex_normal(rng, 8)
        w = mf_comm_beam(h)
        best = abs(h.conj() @ w)
        assert best == pytest.approx(np.linalg.norm(h), rel=1e-12)
        for _ in range(1000):
            v = complex_normal(rng, 8)
            v /= np.linalg.norm(v)
            assert abs(h.conj() @ v) <= best + 1e-9


class TestMfSenseBeam:
    def test_broadside_cell(self):
        cell = np.array([500.0, 0.0, 10.0])
        w = mf_sense_beam(GEOM, cell, AP)
        np.testing.assert_allclose(w, np.ones(8) / math.sqrt(8), atol=1e-12)

    def test_unit_norm(self):
        w = mf_sense_beam(GEOM, CELL, AP)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)

    def test_array_gain_maximum(self):
        # Cauchy-Schwarz equality: |a^H w| = sqrt(N) for the matched beam
        a = steering_to(GEOM, AP, CELL)
        w = mf_sense_beam(GEOM, CELL, AP)
        assert abs(a.conj() @ w) == pytest.approx(math.sqrt(8), rel=1e-12)


def gram_schmidt_projection_oracle(a, channels):
    """Orthonormalize the channels explicitly, then deflate and normalize."""
    basis = []
    for h in channels:
        v = h.astype(complex)
        for b in basis:
            v = v - (b.conj() @ v) * b
        n = np.linalg.norm(v)
        if n > 1e-12:
            basis.append(v / n)
    w = a.astype(complex)
    for b in basis:
        w = w - (b.conj() @ w) * b
    return w / np.linalg.norm(w)


class TestZfSenseBeam:
    def test_zero_kzf_equals_mf(self):
        h = [complex_normal(np.random.default_rng(0), 8)]
        w, fallback = zf_sense_beam(GEOM, CELL, AP, h, 0)
        assert not fallback
        np.testing.assert_allclose(w, mf_sense_beam(GEOM, CELL, AP), atol=1e-12)

    def test_degenerate_span_falls_back(self):
        a = steering_to(GEOM, AP, CELL)
        w, fallback = zf_sense_beam(GEOM, CELL, AP, [a.copy()], 1)
        assert fallback
        np.testing.assert_allclose(w, mf_sense_beam(GEOM, CELL, AP), atol=1e-12)

    def test_nulling_against_gram_schmidt_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            channels = [complex_normal(rng, 8) for _ in range(3)]
            w, fallback = zf_sense_beam(GEOM, CELL, AP, channels, 3)
            assert not fallback
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
            for h in channels:
                assert abs(h.conj() @ w) < 1e-9
            oracle = gram_schmidt_projection_oracle(steering_to(GEOM, AP, CELL), channels)
            # same unit vector up to a global phase
            assert abs(abs(oracle.conj() @ w) - 1.0) < 1e-9

    def test_strongest_gains_annulled(self):
        rng = np.random.default_rng(3)
        channels = [complex_normal(rng, 8) for _ in range(4)]
        gains = [0.1, 5.0, 0.2, 3.0]
        w, _ = zf_sense_beam(GEOM, CELL, AP, channels, 2, gains=gains)
        assert abs(channels[1].conj() @ w) < 1e-9
        assert abs(channels[3].conj() @ w) < 1e-9
        assert abs(channels[0].conj() @ w) > 1e-3  # untouched UE keeps leakage

    def test_projection_never_gains_alignment(self):
        rng = np.random.default_rng(4)
        a = steering_to(GEOM, AP, CELL)
        w_mf = mf_sense_beam(GEOM, CELL, AP)
        for _ in range(100):
            channels = [complex_normal(rng, 8) for _ in range(2)]
            w_zf, _ = zf_sense_beam(GEOM, CELL, AP, channels, 2)
            assert abs(a.conj() @ w_zf) <= abs(a.conj() @ w_mf) + 1e-9

    def test_too_many_nulls_rejected(self):
        channels = [complex_normal(np.random.default_rng(0), 8) for _ in range(9)]
        with pytest.raises(ValueError):
            zf_sense_beam(GEOM, CELL, AP, channels, 8)
        with pytest.raises(ValueError):
            zf_sense_beam(GEOM, CELL, AP, channels[:1], 2)


class TestAllocatePower:
    def test_equal_split_with_sensing(self):
        per_ue, eta0 = allocate_power(2.0, 3, True)
        assert per_ue == pytest.approx(0.5)
        assert eta0 == pytest.approx(0.5)

    def test_sensing_only(self):
        assert allocate_power(2.0, 0, True) == (0.0, 2.0)

    def test_idle_ap(self):
        assert allocate_power(2.0, 0, False) == (0.0, 0.0)

    def test_budget_closes_exactly(self):
        for n in (1, 2, 3, 7, 13, 32):
            per_ue, eta0 = allocate_power(2.0, n, True)
            assert abs(n * per_ue + eta0 - 2.0) <= 1e-14
            per_ue, eta0 = allocate_power(2.0, n, False)
            assert abs(n * per_ue - 2.0) <= 1e-14

    def test_sensing_fraction_override(self):
        per_ue, eta0 = allocate_power(2.0, 4, True, rho=0.5)
        assert eta0 == pytest.approx(1.0)
        assert per_ue == pytest.approx(0.25)

    @pytest.mark.parametrize("rho", [None, 0.3])
    def test_array_call_matches_scalar_split_bitwise(self, rho):
        def split(p_max, n, sensing):
            if not sensing:
                return (p_max / n if n else 0.0), 0.0
            if n == 0:
                return 0.0, p_max
            per_ue = p_max / (n + 1) if rho is None else (1.0 - rho) * p_max / n
            return per_ue, max(p_max - n * per_ue, 0.0)

        n_served = np.repeat(np.arange(41), 2)
        sensing = np.tile([True, False], 41)
        per_ue, eta0 = allocate_power(0.2, n_served, sensing, rho=rho)
        for expected in (
            [allocate_power(0.2, int(n), bool(s), rho=rho) for n, s in zip(n_served, sensing)],
            [split(0.2, int(n), bool(s)) for n, s in zip(n_served, sensing)],
        ):
            assert per_ue.tobytes() == np.array([p for p, _ in expected]).tobytes()
            assert eta0.tobytes() == np.array([e for _, e in expected]).tobytes()

    def test_invalid_budget(self):
        # allocate_power trusts a validated config's budget
        for p_max in (0.0, -1.0):
            with pytest.raises(ConfigError, match="p_max_w"):
                ExperimentConfig(p_max_w=p_max).validate()


class TestTransmitVector:
    def _plan(self):
        plan = BeamformingPlan()
        e = np.eye(4, dtype=complex)
        plan.comm_beams = {(0, 0): e[0], (1, 0): e[1]}
        plan.powers = {(0, 0): 0.5, (1, 0): 0.5}
        plan.sense_beams = {0: e[2]}
        plan.sense_powers = {0: 1.0}
        return plan

    def test_single_ue_no_sensing(self):
        plan = BeamformingPlan()
        h = complex_normal(np.random.default_rng(0), 8)
        plan.comm_beams = {(0, 0): mf_comm_beam(h)}
        plan.powers = {(0, 0): 2.0}
        s = transmit_vector(plan, 0, {0: 1.0 + 0.0j}, 1.0 + 0.0j)
        np.testing.assert_allclose(s, math.sqrt(2.0) * mf_comm_beam(h), atol=1e-12)

    def test_all_powers_zero(self):
        plan = self._plan()
        plan.powers = {k: 0.0 for k in plan.powers}
        plan.sense_powers = {0: 0.0}
        np.testing.assert_array_equal(transmit_vector(plan, 0, {0: 1, 1: 1}, 1), np.zeros(4))

    def test_linearity_in_symbols(self):
        plan = self._plan()
        syms = {0: 0.3 + 0.1j, 1: -0.7j}
        s1 = transmit_vector(plan, 0, syms, 0.5)
        s2 = transmit_vector(plan, 0, {0: 2 * syms[0], 1: syms[1]}, 0.5)
        extra = transmit_vector(plan, 0, {0: syms[0], 1: 0.0}, 0.0)
        np.testing.assert_allclose(s2, s1 + extra, atol=1e-12)

    def test_mean_power_with_orthogonal_beams(self):
        # analytic: E||s||^2 = sum eta when beams are orthonormal; checked by
        # a 10^4-symbol Monte Carlo average
        plan = self._plan()
        rng = np.random.default_rng(5)
        total = 0.0
        n = 10_000
        for _ in range(n):
            syms = {k: np.exp(2j * np.pi * rng.random()) for k in (0, 1)}
            x0 = np.exp(2j * np.pi * rng.random())
            s = transmit_vector(plan, 0, syms, x0)
            total += float(np.linalg.norm(s) ** 2)
        assert total / n == pytest.approx(2.0, rel=0.02)


class TestBuildPlan:
    def _instance(self, beamformer="MF", k_zf=0):
        from cfisac.clustering import build_assignment
        from cfisac.deployment import generate_layout
        from cfisac.harness import _S_LAYOUT, _S_SHADOW, _stream, ue_ap_gains

        cfg = ExperimentConfig(
            m_aps=16,
            k_ues=6,
            t_targets=0,
            l_regions=1,
            m_tx_per_region=4,
            m_rx_per_region=2,
            q_serving=3,
            beamformer=beamformer,
            k_zf=k_zf,
        )
        layout = generate_layout(cfg, _stream(cfg, 0, _S_LAYOUT))
        gains = ue_ap_gains(layout, cfg, _stream(cfg, 0, _S_SHADOW))
        assignment = build_assignment(layout, gains, cfg)
        rng = np.random.default_rng(9)
        h = {}
        for k in range(cfg.k_ues):
            for m in range(cfg.m_aps):
                h[(k, m)] = math.sqrt(gains[k, m]) * complex_normal(rng, cfg.n_antennas)
        cells = [layout.regions[0].cell_centers[0]]
        plan = build_plan(
            h,
            gains,
            assignment,
            GEOM,
            layout.aps,
            cells,
            cfg.p_max_w,
            beamformer=beamformer,
            k_zf=k_zf,
        )
        return cfg, assignment, h, plan

    def test_power_budget_per_ap(self):
        cfg, assignment, _, plan = self._instance()
        for m in assignment.tx_aps:
            total = plan.ap_power(int(m))
            if len(assignment.served[m]) or assignment.pointing[m] >= 0:
                assert abs(total - cfg.p_max_w) <= 1e-12
            else:
                assert total == 0.0

    def test_all_beams_unit_norm(self):
        _, _, _, plan = self._instance(beamformer="ZF", k_zf=2)
        for w in list(plan.comm_beams.values()) + list(plan.sense_beams.values()):
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-9)

    def test_zf_annuls_served_channels(self):
        _, assignment, h, plan = self._instance(beamformer="ZF", k_zf=2)
        assert plan.zf_fallbacks == 0
        for m in assignment.tx_aps:
            if assignment.pointing[m] < 0 or not len(assignment.served[m]):
                continue
            w = plan.sense_beams[int(m)]
            leaks = [abs(h[(int(k), int(m))].conj() @ w) for k in assignment.served[m]]
            assert sum(1 for x in leaks if x < 1e-9) == min(2, len(leaks))