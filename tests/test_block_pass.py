"""One pass per realization block for every arm of a table: an arm's bytes
do not depend on how the realizations are split over the cores, on how a
block is split into chunks of rows, nor on the arms it runs beside."""

import hashlib
import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from cfisac import harness
from cfisac.config import ExperimentConfig
from cfisac.harness import (
    Draw,
    preset_beamformer_comparison,
    preset_mode_comparison,
    run_arms,
    run_drop,
    run_experiment,
)

FIELDS = ("rates_bps", "sensing_snr_db", "statistics", "thresholds", "decisions", "truths")


def _digest(rs) -> str:
    """sha256 over an arm's result arrays and its ZF diagnostics."""
    digest = hashlib.sha256()
    for name in FIELDS:
        digest.update(np.ascontiguousarray(getattr(rs, name)).tobytes())
    diag = rs.diagnostics
    digest.update(np.array([diag.zf_beams, diag.zf_fallbacks]).tobytes())
    digest.update(np.float64(diag.zf_leakage_max).tobytes())
    return digest.hexdigest()


# seed 1, 3 drops of 4 realizations, recorded before an arm ran its sensing
# beams, downlink and transmit signals in one pass per realization block
PINNED = {
    ("UTC", "MF", 0): "27502fd547aadd61ae416d63b59052891a7ae267d35a654101a75dd972c06276",
    ("UTC", "ZF", 2): "4c8f4d44715613b7b1bacabb4e39d3f5841509973ebbb1a162aba1eeca241aa8",
    # re-recorded when TC/CF at K > N moved onto the law stream's channels
    ("CF", "ZF", 2): "f839887fe594e812eba0cdba114f07099efd105ba1538897af569a41fd92c601",
    # at drop 0 its ZF sets have sizes 1, 2 and 3 (12, 11 and 25 APs); recorded
    # before the ZF beams were batched by annulment size
    ("UC", "ZF", 3): "f7ad41c92812cbc46c49db6532112942c0d4e8a63f111dcc3204caacaf734b05",
}
# every arm of the mode and beamformer tables at the same seed and sizes,
# recorded while each arm of a table still read rows that its Draw kept
IN_TABLE = {
    "modes": {
        "UTC": PINNED["UTC", "MF", 0],
        "UC": "ca47624ba813bec1c4ce839cc173336b730a585cc1f065f064c5fc70634228ee",
        # re-recorded when TC/CF at K > N moved onto the law stream's channels
        "TC": "a6efe43b4f1aa766568494d97916e2b8ad575c10455faf8eff363c9e2ebb0f8d",
        "CF": "80b085142d78b905533d1a7f0c60068aa3bfb86cdacc89e12cb626cd33883903",
    },
    "beamformers": {
        "mf": PINNED["UTC", "MF", 0],
        "zf-k1": "6b0e27f174b64ea2b21d23ce8bb6272d8cf300581be6811ac4d88f91f8ef1f60",
        "zf-k2": PINNED["UTC", "ZF", 2],
    },
}


# bank arms at the same seed and sizes with 3 snapshots and a direct path, so
# that each snapshot's transmit signals and the direct AP-to-AP signal count
MULTI_SNAPSHOT = {
    ("UTC", "MF", 0): "49f6efe5995b3216c7ec5963b706fb3de94a6d91c0d2ff5aea595f32f659852d",
    ("UTC", "ZF", 2): "98c53e25c7687e68954ab9c8f2593347977ad1370c8e65ca831222363e1ac76b",
}


def _pinned_cfg(**changes) -> ExperimentConfig:
    return ExperimentConfig(seed=1, n_drops=3, n_fading=4).replace(**changes)


@pytest.mark.parametrize("mode,beamformer,k_zf", list(PINNED))
def test_arms_keep_their_bytes(mode, beamformer, k_zf):
    rs = run_experiment(_pinned_cfg(mode=mode, beamformer=beamformer, k_zf=k_zf))
    assert _digest(rs) == PINNED[mode, beamformer, k_zf]


@pytest.mark.parametrize("mode,beamformer,k_zf", list(MULTI_SNAPSHOT))
def test_multi_snapshot_arms_keep_their_bytes(mode, beamformer, k_zf):
    cfg = _pinned_cfg(
        mode=mode, beamformer=beamformer, k_zf=k_zf, n_snapshots=3, direct_residual=0.1
    )
    assert _digest(run_experiment(cfg)) == MULTI_SNAPSHOT[mode, beamformer, k_zf]


def test_uc_extends_the_utc_stream_and_keeps_its_bytes():
    # UC reads a longer prefix of UTC's law stream, TC and CF their own prefix
    # of it, and the ZF arms the MF arm's law stream: each keeps its bytes in
    # a table
    tables = {
        "modes": preset_mode_comparison(_pinned_cfg()),
        "beamformers": preset_beamformer_comparison(_pinned_cfg(), [1, 2]),
    }
    for name, table in tables.items():
        got = {label: _digest(rs) for label, rs in run_arms(table).items()}
        assert got == IN_TABLE[name], name


# K = 6 UEs on N = 4 antennas: UTC caps every AP at N UEs (bank formula), CF
# serves all K from each AP (dense formula)
SMALL = dict(
    m_aps=10,
    k_ues=6,
    t_targets=2,
    l_regions=1,
    n_antennas=4,
    q_serving=2,
    m_tx_per_region=3,
    m_rx_per_region=2,
    cell_extent_m=500.0,
    seed=5,
)
ARMS = {
    "bank-MF": dict(mode="UTC"),
    "bank-ZF": dict(mode="UTC", beamformer="ZF", k_zf=2),
    "dense-MF": dict(mode="CF"),
    "dense-ZF": dict(mode="CF", beamformer="ZF", k_zf=2),
}


def _cfg(arm: str, n_fading: int) -> ExperimentConfig:
    return ExperimentConfig(**{**SMALL, **ARMS[arm], "n_fading": n_fading})


@pytest.mark.parametrize("arm", list(ARMS))
def test_each_arm_takes_its_downlink_path(arm, monkeypatch):
    calls = []
    for name in ("_bank_downlink", "_dense_downlink"):
        original = getattr(harness, name)
        monkeypatch.setattr(
            harness, name, lambda *args, name=name, fn=original: calls.append(name) or fn(*args)
        )
    run_drop(_cfg(arm, 3), 0)
    assert set(calls) == {"_bank_downlink" if arm.startswith("bank") else "_dense_downlink"}


def _assert_same(got, expected):
    for name in FIELDS:
        np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))
    assert got.diagnostics == expected.diagnostics


@pytest.mark.parametrize("n_fading", [1, 3, 7])
@pytest.mark.parametrize("arm", list(ARMS))
def test_outputs_do_not_depend_on_the_core_count(arm, n_fading, monkeypatch):
    # more blocks than cores, and thread switches as often as the interpreter allows
    cfg = _cfg(arm, n_fading)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cores in (1, 4, 16):
            monkeypatch.setattr(harness, "_usable_cores", lambda: cores)
            results.append(run_drop(cfg, 0))
    finally:
        sys.setswitchinterval(interval)
    for got in results[1:]:
        _assert_same(got, results[0])


@pytest.mark.parametrize("arm", list(ARMS))
def test_a_failed_block_fails_the_drop_and_leaves_no_thread(arm, monkeypatch):
    calls = itertools.count()
    sense_beams = harness._sense_beams

    def failing(*args):
        if next(calls) == 1:
            raise FloatingPointError("the second block")
        return sense_beams(*args)

    monkeypatch.setattr(harness, "_usable_cores", lambda: 4)
    monkeypatch.setattr(harness, "_sense_beams", failing)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match="the second block"):
        run_drop(_cfg(arm, 7), 0)
    assert threading.active_count() == threads


def test_one_pass_per_drop(monkeypatch):
    # a lone arm runs its realizations in one pass, and a table all its arms
    passes = []
    in_blocks = harness._in_blocks
    monkeypatch.setattr(
        harness, "_in_blocks", lambda n, fill: passes.append(n) or in_blocks(n, fill)
    )
    for arm in ARMS:
        passes.clear()
        run_drop(_cfg(arm, 5), 0)
        assert passes == [5], arm
    cfg = ExperimentConfig(**{**SMALL, "n_fading": 5, "n_drops": 2})
    passes.clear()
    run_arms(preset_mode_comparison(cfg))
    assert passes == [5] * cfg.n_drops


def test_a_table_draws_each_law_realization_once(monkeypatch):
    # K = 6 on N = 4: UTC and UC take the bank formula, UC with a longer law
    # stream than UTC, and TC and CF the dense one. Each chunk draws its law
    # rows once for all four arms, so each realization's stream is seeded
    # once per drop, in chunks of one realization or of a whole block
    cfg = ExperimentConfig(**{**SMALL, "n_fading": 5, "n_drops": 2})
    default_rng = np.random.default_rng
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    for budget in (1, 1 << 40):
        seeded = []
        monkeypatch.setattr(harness, "CHUNK_BYTES", budget)
        monkeypatch.setattr(
            np.random, "default_rng", lambda key: seeded.append(key) or default_rng(key)
        )
        run_arms(preset_mode_comparison(cfg))
        monkeypatch.setattr(np.random, "default_rng", default_rng)
        law = harness._S_BANK
        keys = sorted(key for key in seeded if len(key) == 4 and key[2] == law)
        every = range(cfg.n_fading)
        assert keys == [[cfg.seed, d, law, f] for d in range(cfg.n_drops) for f in every]


def _row_bytes(cfgs: list[ExperimentConfig]) -> int:
    """Bytes of one realization's rows in a table: the longest law stream and
    the most served channels that an arm writes after it."""
    banks = [harness._Arm(cfg, 0, Draw(cfg, 0)).bank for cfg in cfgs]
    return 16 * (max(bank.n_normals for bank in banks) + max(bank.n_law for bank in banks))


@pytest.mark.parametrize("cores", [1, 4])
@pytest.mark.parametrize("arm", list(ARMS))
def test_outputs_do_not_depend_on_the_chunk_size(arm, cores, monkeypatch):
    # chunks of 1 and 2 realizations and of a whole block, as a lone arm and
    # as the second arm of a table whose first arm takes the other downlink
    # formula and writes its own served channels into the same buffer (row
    # buffers reused across chunks and drops)
    cfg = _cfg(arm, 7)
    row_bytes = _row_bytes([cfg])
    chunks = []
    sense_beams = harness._sense_beams
    monkeypatch.setattr(
        harness,
        "_sense_beams",
        lambda ctx, h, *rest: chunks.append(len(h)) or sense_beams(ctx, h, *rest),
    )
    monkeypatch.setattr(harness, "_usable_cores", lambda: cores)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    results = []
    try:
        for per_chunk in (7, 1, 2):
            monkeypatch.setattr(harness, "CHUNK_BYTES", per_chunk * row_bytes)
            chunks.clear()
            lone = run_drop(cfg, 0)
            assert sum(chunks) == cfg.n_fading and max(chunks) == min(per_chunk, -(-7 // cores))
            other = _cfg("dense-MF" if arm.startswith("bank") else "bank-MF", 7)
            results += [lone, harness._run_table([other, cfg], 0)[1]]
    finally:
        sys.setswitchinterval(interval)
    for got in results[1:]:
        _assert_same(got, results[0])


@pytest.mark.parametrize("cores", [1, 4])
def test_a_table_does_not_depend_on_the_chunk_size(cores, monkeypatch):
    # chunks of a whole block, of one realization and of two
    cfg = ExperimentConfig(**{**SMALL, "n_fading": 7, "n_drops": 2})
    row_bytes = _row_bytes(list(preset_mode_comparison(cfg).values()))
    monkeypatch.setattr(harness, "_usable_cores", lambda: cores)
    tables = []
    for budget in (1 << 40, 1, 2 * row_bytes):
        monkeypatch.setattr(harness, "CHUNK_BYTES", budget)
        tables.append(run_arms(preset_mode_comparison(cfg)))
    for table in tables[1:]:
        for mode, rs in table.items():
            _assert_same(rs, tables[0][mode])


def test_concurrent_lone_arms_keep_their_bytes(monkeypatch):
    # two threads run lone arms at once, each block in chunks of one
    # realization: each block takes its own row buffer from the pool
    monkeypatch.setattr(harness, "CHUNK_BYTES", 1)
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    work = [(_cfg(arm, 7), d) for arm in ("bank-ZF", "dense-ZF") for d in range(3)]
    expected = [run_drop(cfg, d) for cfg, d in work]
    got = [None] * len(work)

    def run(i):
        got[i] = run_drop(*work[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for pair in ((0, 3), (1, 4), (2, 5)):
            threads = [threading.Thread(target=run, args=(i,)) for i in pair]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    finally:
        sys.setswitchinterval(interval)
    for g, e in zip(got, expected):
        _assert_same(g, e)


@pytest.mark.parametrize("mode", ["UTC", "CF", "modes"])
def test_peak_memory_is_flat_in_the_fading_count(mode, monkeypatch):
    # chunks of one realization: the rows, beams and cross gains of a chunk
    # do not grow with F, so the drop's peak grows by what it keeps for every
    # realization, for one arm or for the mode table's four (two on the dense
    # formula, two on the bank formula) on one draw. 250 m cells give 4
    # inspected cells per region at every F, so the cell tables match. Without
    # targets the echo stage holds no per-target projections, which this bound
    # does not count.
    monkeypatch.setattr(harness, "CHUNK_BYTES", 1)
    in_blocks, stages = harness._in_blocks, []

    def timed_pass(*args):  # the peaks of the set-up, of the pass and, after it, of finish
        stages.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        in_blocks(*args)
        stages.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    monkeypatch.setattr(harness, "_in_blocks", timed_pass)
    peaks = {}
    for n_fading in (8, 64, 128):
        cfg = ExperimentConfig(n_fading=n_fading, t_targets=0, cell_extent_m=250.0)
        table = preset_mode_comparison(cfg) if mode == "modes" else {mode: cfg.replace(mode=mode)}
        arms = list(table.values())
        harness._run_table(arms, 0)  # the row buffers exist from here on
        stages.clear()
        tracemalloc.start()
        try:
            harness._run_table(arms, 0)
            stages.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        peaks[n_fading] = stages[:]
    # per realization: each snapshot's symbols and unit noise, each arm's
    # transmit signals, the transmit APs' copy of one arm's signals and its
    # echoes at the receive APs (one more M N between them), and each arm's
    # SINR terms and rates
    signals = 16 * cfg.n_snapshots * cfg.m_aps * cfg.n_antennas
    kept = (
        16 * cfg.n_snapshots * (cfg.k_ues + cfg.m_aps)
        + (len(arms) + 2) * signals
        + len(arms) * 4 * 8 * cfg.k_ues
    )
    assert max(peaks[64]) - max(peaks[8]) <= 1.1 * (64 - 8) * kept
    # the drop's peak at F=8 comes from the pass, and at F=64 and 128 from the
    # pass or finish (echoes and detection), which lie within a few percent:
    # read the growth within each stage too, where its fixed memory cancels
    for stage, before, after in zip(("set-up", "pass", "finish"), peaks[64], peaks[128]):
        assert after - before <= 1.1 * (128 - 64) * kept, stage
