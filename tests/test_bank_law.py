"""The user-centric downlink drawn in law: served links in full, every other
link through its AP's bank factor, from one prefix-shared stream per
realization."""

import hashlib

import numpy as np
import pytest
from scipy.stats import ks_2samp

from cfisac import harness
from cfisac.channel import ArrayGeometry, complex_normal
from cfisac.clustering import build_assignment
from cfisac.config import ExperimentConfig
from cfisac.harness import (
    Draw,
    _law_gains,
    preset_mode_comparison,
    preset_rx_sweep,
    run_arms,
    run_drop,
    run_experiment,
)
from cfisac.metrics import write_results
from reference import DENSE_PURPOSE, build_plan, fading_tensor, law_normals

SMALL = dict(
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


def _spy(monkeypatch, owner, name):
    """Record every result of owner.name, in call order."""
    results = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(owner, name, wrapper)
    return results


def test_unserved_gain_covariance_at_fixed_bank():
    # one bank D U of b = 3 rows on N = 8 antennas, its sensing row last, and
    # 1e5 unserved links drawn from the law stream: E[g g^H] = g_km D U U^H D
    rng = np.random.default_rng(3)
    b, n_ant, n_links, g_km = 3, 8, 100_000, 2.5e-9
    unit = complex_normal(rng, (b, n_ant))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    amp = np.array([0.7, 0.7, 1.3])[:, None]
    out = np.empty((25, b * n_links // 25), dtype=complex)
    normals = Draw(ExperimentConfig(n_fading=25), 0).normals(range(25), out)
    w = np.sqrt(g_km) * normals.reshape(n_links, b).T  # an AP's links, b normals each
    gains, gram = _law_gains(unit, amp, w)
    cov = gains @ gains.conj().T / n_links
    bank = amp * unit
    expected = g_km * bank @ bank.conj().T
    np.testing.assert_allclose(gram, unit @ unit.conj().T, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(cov, expected, rtol=0, atol=0.02 * np.abs(expected).max())


def test_law_rates_match_dense_rates_in_distribution(monkeypatch):
    # the same layout and banks, 2000 realizations: rates from the law stream
    # against rates from a full fading tensor drawn here, which the arm reads
    # as the law stream that rebuilds it
    cfg = ExperimentConfig(**{**SMALL, "n_fading": 2000})
    law = run_drop(cfg, 0).rates_bps.ravel()
    drawn = Draw(cfg, 0)
    h = fading_tensor(cfg.seed, 0, drawn.gains, cfg.n_fading, cfg.n_antennas)
    layout, gains, schedule = drawn.layout, drawn.gains, drawn.schedule
    assignment = build_assignment(layout, gains, cfg)
    geom = ArrayGeometry(cfg.n_antennas, cfg.spacing_wavelengths)
    stream = []
    for f in range(cfg.n_fading):
        h_f = {(k, m): h[f, k, m] for k in range(cfg.k_ues) for m in range(cfg.m_aps)}
        epoch = schedule.epochs[f % schedule.n_epochs]
        cells = [region.cell_centers[c] for region, c in zip(layout.regions, epoch)]
        plan = build_plan(h_f, gains, assignment, geom, layout.aps, cells, cfg.p_max_w)
        stream.append(law_normals(h_f, gains, assignment, plan))
    stream = np.array(stream)
    monkeypatch.setattr(harness.Draw, "normals", lambda draw, fs, out: stream[fs.start : fs.stop])
    dense = run_drop(cfg, 0).rates_bps.ravel()
    assert not np.array_equal(law, dense)
    assert ks_2samp(law, dense).pvalue > 0.01


def test_mf_and_zf_share_every_ue_beam_gain(monkeypatch):
    # the sensing row comes last in every bank, so changing the sensing beam
    # leaves every UE-beam gain, and so the cross-gain powers, bitwise alike
    monkeypatch.setattr(harness, "_usable_cores", lambda: 1)  # one downlink call per arm
    outputs = _spy(monkeypatch, harness, "_bank_downlink")
    cfg = ExperimentConfig(**{**SMALL, "n_fading": 6})
    harness._run_table([cfg, cfg.replace(beamformer="ZF", k_zf=1)], 0)
    (power_mf, leak_mf, _), (power_zf, leak_zf, _) = outputs
    bits_mf, bits_zf = (np.ascontiguousarray(p).view(np.uint8) for p in (power_mf, power_zf))
    assert np.array_equal(bits_mf, bits_zf)
    assert not np.allclose(leak_mf, leak_zf, rtol=1e-6, atol=0)


@pytest.mark.parametrize("mode,count", [("UTC", 5368), ("UC", 6334)])
def test_law_normals_per_realization(mode, count, monkeypatch):
    # baseline, seed 1, drop 1: N normals per served link, min(b_m, N) per
    # unserved link of an AP with a bank, against K M N = 16384 dense
    requests = []
    original = harness.Draw.normals

    def normals(self, fs, out):
        requests.append(out.shape[1])
        return original(self, fs, out)

    monkeypatch.setattr(harness.Draw, "normals", normals)
    run_drop(ExperimentConfig(mode=mode, seed=1, n_fading=2), 1)
    assert requests and set(requests) == {count}  # every realization block asks alike


def test_a_shorter_out_holds_a_prefix_of_the_stream():
    # a table's arms read prefixes of one stream per realization: a shorter
    # out holds the first values of a longer one's, whichever rows it asks for
    cfg = ExperimentConfig(**{**SMALL, "n_fading": 5})
    drawn, every = Draw(cfg, 0), range(cfg.n_fading)
    longer = drawn.normals(every, np.empty((cfg.n_fading, 50), dtype=complex))
    for fs, count in ((range(3, 5), 7), (range(0, 3), 20), (every, 50)):
        short = drawn.normals(fs, np.empty((len(fs), count), dtype=complex))
        np.testing.assert_array_equal(short, longer[fs.start : fs.stop, :count])
    for f in every:
        rng = np.random.default_rng([cfg.seed, 0, harness._S_BANK, f])
        expected = (rng.standard_normal(100) * (1.0 / np.sqrt(2.0))).view(complex)
        np.testing.assert_array_equal(longer[f], expected)


def test_bank_tables_never_draw_the_dense_tensor(monkeypatch):
    # every arm of every mode, TC and CF at K > N included, reads the law
    # stream: no stream of the retired dense tensor's purpose is seeded, and
    # the law stream is the only one seeded per realization
    seeded = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda key: seeded.append(key) or default_rng(key)
    )
    cfg = ExperimentConfig(**SMALL)
    run_arms(preset_rx_sweep(cfg, [1, 2]))
    run_arms(preset_mode_comparison(cfg.replace(k_ues=6)))  # K > N: TC and CF are dense
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    keys = [key for key in seeded if isinstance(key, list) and len(key) >= 3]
    assert keys and all(key[2] != DENSE_PURPOSE for key in keys)
    per_realization = [key for key in keys if len(key) == 4]
    assert per_realization and all(key[2] == harness._S_BANK for key in per_realization)


def test_dense_formula_on_law_channels_matches_the_bank_formula():
    # CF at K <= N takes the bank formula, and every link of its transmit APs
    # is served: its law stream is the served channels alone, ordered by (UE,
    # transmit AP), so it is the (K, P, N) tensor that the dense formula reads,
    # and both formulas give the same powers, leakage and transmit signals
    cfg = ExperimentConfig(**{**SMALL, "mode": "CF", "n_fading": 6, "n_snapshots": 2})
    drawn = Draw(cfg, 0)
    arm = harness._Arm(cfg, 0, drawn)
    ctx, bank, tx = arm.ctx, arm.bank, arm.ctx.tx_all
    n, k_ues, n_ant = cfg.n_fading, cfg.k_ues, cfg.n_antennas
    assert not arm.dense and bank.n_normals == bank.n_law == k_ues * len(tx) * n_ant
    by_ue_and_tx = np.arange(k_ues * len(tx)).reshape(k_ues, -1)
    np.testing.assert_array_equal(bank.link_of[:, tx], by_ue_and_tx)
    normals = drawn.normals(range(n), np.empty((n, bank.n_normals), dtype=complex))
    h_links = normals.reshape(n, -1, n_ant) * bank.sqrt_g_links
    w0, _ = harness._sense_beams(ctx, h_links, bank.link_of, arm.epoch_cells)
    law = harness._bank_downlink(bank, h_links, w0, normals, drawn.symbols)
    h = h_links.reshape(n, k_ues, len(tx), n_ant)
    dense = harness._dense_downlink(ctx, h, ctx.sqrt_eta0[None, :, None] * w0, drawn.symbols)
    for got, expected in zip(dense, law):
        np.testing.assert_allclose(got, expected, rtol=1e-12)
    s_tx = dense[2]
    assert s_tx[:, :, tx].all() and not s_tx[:, :, ctx.rx_all].any()


@pytest.mark.parametrize("mode", ["TC", "CF"])
def test_dense_arms_read_their_links_by_ue_and_transmit_ap(mode):
    # K > N: every transmit AP serves every UE, so the served links run by
    # (UE, transmit AP) and their channels reshape to (K, P, N)
    cfg = ExperimentConfig(**{**SMALL, "mode": mode, "k_ues": 6})
    arm = harness._Arm(cfg, 0, Draw(cfg, 0))
    tx = arm.ctx.tx_all
    # the dense formula reads no bank batch, so none is built
    assert arm.dense and arm.bank.batches is None and arm.bank.n_normals == arm.bank.n_law
    expected = np.arange(cfg.k_ues * len(tx)).reshape(cfg.k_ues, len(tx))
    np.testing.assert_array_equal(arm.bank.link_of[:, tx], expected)
    assert (arm.bank.link_of[:, arm.ctx.rx_all] == -1).all()


@pytest.mark.parametrize("fraction", [0.0, 1.0])
def test_zero_power_rows_give_finite_outputs(fraction):
    # all sensing power or none: the banks keep their unit rows with a zero
    # amplitude, so no Gram is singular and nothing is NaN
    cfg = ExperimentConfig(**{**SMALL, "sensing_power_fraction": fraction, "n_fading": 8})
    with np.errstate(all="raise"):
        dr = run_drop(cfg, 0)
    assert np.isfinite(dr.rates_bps).all() and dr.rates_bps.any()
    assert np.isfinite(dr.statistics).all() and np.isfinite(dr.sensing_snr_db).all()


# sha256 over the result arrays of seed 1's TC and CF arms (3 drops, 4
# realizations), re-recorded when their dense formula moved from a dense
# tensor of every link onto the law stream's served channels: the values
# changed, their law did not
DENSE_DIGESTS = {
    "TC": "e19350b2e6c9bdf34333aa3321e1add3e361199f823dce60f19f018b92b8e8ab",
    "CF": "70c8042406ffc625ca72b1eaca8f2f9f00f3bc76c34efa5514c3cd778dfcc930",
}


def _digest(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def test_dense_arms_keep_their_bytes():
    arms = run_arms(preset_mode_comparison(ExperimentConfig(seed=1, n_drops=3, n_fading=4)))
    fields = ("rates_bps", "sensing_snr_db", "statistics", "thresholds", "decisions", "truths")
    for mode, expected in DENSE_DIGESTS.items():
        assert _digest(*(getattr(arms[mode], name) for name in fields)) == expected, mode


def test_target_free_decisions_keep_their_bytes():
    # criterion 2's arm (a bank arm without targets): its statistics read only
    # the noise and which tests are live, so drops 0-2 keep the decisions,
    # statistics and thresholds recorded before the law path
    cfg = ExperimentConfig(t_targets=0, k_ues=4, n_drops=100, n_fading=250, seed=11)
    drops = [run_drop(cfg, d) for d in range(3)]
    got = _digest(*(a for dr in drops for a in (dr.decisions, dr.statistics, dr.thresholds)))
    assert got == "67166a3072ab4085612a72d92ffb4025d7a7854851d8d0aa0f26266373a23772"


def test_rank0_tests_have_no_snr(monkeypatch, tmp_path):
    # region 0's transmit APs send nothing: its tests have rank 0, no
    # statistic and a NaN SNR, which the diagnostics count and the medians skip
    cfg = ExperimentConfig(**{**SMALL, "m_aps": 16, "l_regions": 2, "n_drops": 1})
    drawn = Draw(cfg, 0)
    silent = build_assignment(drawn.layout, drawn.gains, cfg).sensing_clusters[0][0]
    allocate = harness.allocate_power

    def quiet(*args, **kwargs):
        per_ue, eta0 = (np.array(v, dtype=float) for v in allocate(*args, **kwargs))
        per_ue[silent] = eta0[silent] = 0.0
        return per_ue, eta0

    monkeypatch.setattr(harness, "allocate_power", quiet)
    dr = run_drop(cfg, 0)
    dead = np.isnan(dr.sensing_snr_db)
    assert dead[:, 0].all() and not dead[:, 1].any()
    assert dr.diagnostics.rank0_tests == cfg.n_fading
    assert (dr.statistics[:, 0] == 0).all() and not dr.decisions[:, 0].any()

    rs = run_experiment(cfg)
    assert rs.diagnostics.rank0_tests == cfg.n_fading
    assert rs.median_snr_db() == np.median(rs.sensing_snr_db[:, :, 1])
    write_results(tmp_path, {"run": rs}, cfg)
    rows = (tmp_path / "run_cdf_sensing_snr_db.csv").read_text().splitlines()
    assert len(rows) == 1 + cfg.n_fading and "nan" not in "".join(rows)
