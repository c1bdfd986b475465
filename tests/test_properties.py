"""Property tests for the small algebraic invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cfisac.channel import ArrayGeometry
from cfisac.clustering import build_assignment
from cfisac.config import (
    TARGET_CENTRIC_MODES,
    USER_CENTRIC_MODES,
    VALID_MODES,
    ConfigError,
    ExperimentConfig,
)
from cfisac.harness import Draw, allocate_power
from cfisac.metrics import empirical_cdf
from reference import steering_vector, wrap_angle

angles = st.floats(-10.0, 10.0, allow_nan=False)


@given(az=angles, el=angles, n=st.integers(1, 16))
@settings(max_examples=200, deadline=None)
def test_steering_entries_unit_modulus(az, el, n):
    a = steering_vector(ArrayGeometry(n, 0.5), az, el)
    assert np.allclose(np.abs(a), 1.0, atol=1e-12)
    assert math.isclose(float(np.linalg.norm(a) ** 2), n, rel_tol=1e-12)


@given(angle=st.floats(-1e6, 1e6, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_wrap_angle_range(angle):
    wrapped = wrap_angle(angle)
    assert -math.pi < wrapped <= math.pi


@given(
    p_max=st.floats(0.1, 100.0),
    n_served=st.integers(0, 64),
    sensing=st.booleans(),
    rho=st.one_of(st.none(), st.floats(0.0, 1.0)),
)
@settings(max_examples=300, deadline=None)
def test_power_split_budget(p_max, n_served, sensing, rho):
    per_ue, eta0 = allocate_power(p_max, n_served, sensing, rho=rho)
    assert per_ue >= 0.0 and eta0 >= 0.0
    total = n_served * per_ue + eta0
    if n_served or sensing:
        assert abs(total - p_max) <= 1e-12 * max(1.0, p_max)
    else:
        assert total == 0.0


@given(st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=200))
@settings(max_examples=200, deadline=None)
def test_cdf_monotone_and_normalized(samples):
    curve = empirical_cdf(samples)
    assert np.all(np.diff(curve.values) >= 0)
    assert np.all(np.diff(curve.probabilities) >= 0)
    assert curve.probabilities[0] >= 1.0 / len(samples) - 1e-12
    assert curve.probabilities[-1] == 1.0


small_configs = st.builds(
    ExperimentConfig,
    m_aps=st.integers(1, 40),
    k_ues=st.integers(1, 30),
    l_regions=st.integers(1, 5),
    n_antennas=st.integers(1, 5),
    mode=st.sampled_from(VALID_MODES),
    q_serving=st.integers(1, 7),
    m_tx_per_region=st.integers(1, 7),
    m_rx_per_region=st.integers(1, 7),
    n_fading=st.just(1),
)


@given(cfg=small_configs)
@settings(max_examples=1000, deadline=None)
def test_validated_config_clusters_every_drop(cfg):
    """validate() is the only gate: every drop of a config it passes gets the
    cluster sizes the config asks for, without an error."""
    try:
        cfg.validate()
    except ConfigError:
        return
    for drop in (0, 1):
        drawn = Draw(cfg, drop)
        layout, gains = drawn.layout, drawn.gains
        assignment = build_assignment(layout, gains, cfg)
        assert len(assignment.rx_aps) == cfg.m_rx_per_region * cfg.l_regions
        assert len(assignment.tx_aps) >= 1
        if cfg.mode in TARGET_CENTRIC_MODES:
            assert all(len(tx_c) == cfg.m_tx_per_region for tx_c, _ in assignment.sensing_clusters)
        if cfg.mode in USER_CENTRIC_MODES:
            assert all(len(aps) == cfg.q_serving for aps in assignment.serving)
            assert max(map(len, assignment.served)) <= cfg.n_antennas
