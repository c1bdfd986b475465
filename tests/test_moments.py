"""Closed-form moments of the downlink gains with MF beams, on both formulas.

Each UE's MF beam at AP m depends only on its own channel there, so it is
independent of every other UE's channel, and a sensing beam of the cell
steering vectors is independent of every channel. With eta_km the power of
UE k's beam at AP m, eta0_m that of AP m's sensing beam and g_jm the
large-scale gain (the moments of the cell-free MR analyses: Ngo et al.,
"Cell-Free Massive MIMO Versus Small Cells", IEEE TWC 2017):

- E[|a_kj|^2] = sum_{m in S_k} eta_km g_jm for j != k;
- E[leak_j] = sum_m eta0_m g_jm;
- E[a_kk^2] = N sum_m eta_km g_km + sum_{m != m'} sqrt(eta_km g_km eta_km' g_km') c_N^2,
  c_N = Gamma(N + 1/2) / Gamma(N), the mean of ||h|| / sqrt(g) for h ~ CN(0, g I_N).

UTC takes the bank formula, which draws the unserved links in law, and CF at
K > N the dense formula on the law stream's channels. With ZF sensing beams
an AP's beam is orthogonal to the channels of the UEs it annuls and
independent of every other channel, so E[leak_j] sums eta0_m g_jm over the
sensing APs m that do not annul j; the UE beams, and so the other moments,
are the MF ones. Each Monte Carlo mean must lie within 4 standard errors of
its closed form, the standard error estimated from the same realizations.
"""

import math

import numpy as np
import pytest

from cfisac import harness
from cfisac.config import ExperimentConfig
from cfisac.harness import Draw

# M = 16, K = 6 and N = 4: UTC caps each AP at N UEs, CF serves all K from each
MOMENTS = dict(
    m_aps=16,
    k_ues=6,
    n_antennas=4,
    l_regions=2,
    m_tx_per_region=3,
    m_rx_per_region=2,
    t_targets=0,
    n_fading=4000,
    seed=3,
)


def _within(samples: np.ndarray, expected: np.ndarray) -> None:
    """The sample means lie within 4 standard errors of expected."""
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
    assert np.all(np.abs(mean - expected) <= 4.0 * se), np.max(np.abs(mean - expected) / se)


def _downlink_samples(cfg: ExperimentConfig, monkeypatch) -> tuple:
    """The arm, and its cross-gain powers (F, K, K) and leakages (F, K) over every realization."""
    arm = harness._Arm(cfg, 0, Draw(cfg, 0))
    outputs = []
    name = "_dense_downlink" if arm.dense else "_bank_downlink"
    downlink = getattr(harness, name)
    monkeypatch.setattr(harness, name, lambda *args: outputs.append(downlink(*args)) or outputs[-1])
    (result,) = harness._run_table([cfg], 0)
    assert result.diagnostics.zf_fallbacks == 0  # every ZF beam annuls its UEs
    power = np.concatenate([out[0] for out in outputs])  # (F, K, K): [f, observer, beam]
    leak = np.concatenate([out[1] for out in outputs])
    assert len(power) == cfg.n_fading
    return arm, power, leak


def _check_moments(cfg: ExperimentConfig, ctx, power, leak, eta0: np.ndarray) -> None:
    """The MF moments, with eta0 (K, M) the sensing power that reaches UE j from AP m."""
    eta, g = ctx.amp**2, ctx.gains
    cross = g @ eta.T  # [observer j, beam k] = sum_m eta_km g_jm
    off = ~np.eye(cfg.k_ues, dtype=bool)
    _within(power[:, off], cross[off])
    _within(leak, (g * eta0).sum(axis=1))

    c_n = math.exp(math.lgamma(cfg.n_antennas + 0.5) - math.lgamma(cfg.n_antennas))
    root = np.sqrt(eta * g)  # (K, M)
    desired = cfg.n_antennas * (eta * g).sum(axis=1) + c_n**2 * (
        root.sum(axis=1) ** 2 - (root**2).sum(axis=1)
    )
    _within(np.einsum("fkk->fk", power), desired)


@pytest.mark.parametrize("mode,dense", [("UTC", False), ("CF", True)])
def test_downlink_moments_match_their_closed_forms(mode, dense, monkeypatch):
    cfg = ExperimentConfig(**{**MOMENTS, "mode": mode})
    arm, power, leak = _downlink_samples(cfg, monkeypatch)
    assert arm.dense == dense
    eta0 = np.broadcast_to(arm.ctx.sqrt_eta0**2, arm.ctx.gains.shape)
    _check_moments(cfg, arm.ctx, power, leak, eta0)


def test_zf_leakage_moments_skip_the_annulled_ues(monkeypatch):
    cfg = ExperimentConfig(**{**MOMENTS, "mode": "UTC", "beamformer": "ZF", "k_zf": 1})
    arm, power, leak = _downlink_samples(cfg, monkeypatch)
    ctx = arm.ctx
    assert not arm.dense and ctx.zf_sets
    eta0 = np.tile(ctx.sqrt_eta0**2, (cfg.k_ues, 1))
    for aps, annul in ctx.zf_sets:
        eta0[annul, aps[:, None]] = 0.0  # an annulled UE gets no leakage from the AP
    _check_moments(cfg, ctx, power, leak, eta0)
