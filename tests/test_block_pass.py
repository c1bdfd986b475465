"""One pass per realization block: an arm's bytes do not depend on how the
realizations are split over the cores, nor on how a block is split into
chunks of rows."""

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
    ("CF", "ZF", 2): "ccd49b5ee4c59175c6aaa2b53fda93fb3f7aa35b2dd7a2eed701093541ef34e8",
    # at drop 0 its ZF sets have sizes 1, 2 and 3 (12, 11 and 25 APs); recorded
    # before the ZF beams were batched by annulment size
    ("UC", "ZF", 3): "f7ad41c92812cbc46c49db6532112942c0d4e8a63f111dcc3204caacaf734b05",
}
UC_IN_TABLE = "ca47624ba813bec1c4ce839cc173336b730a585cc1f065f064c5fc70634228ee"


def _pinned_cfg(**changes) -> ExperimentConfig:
    return ExperimentConfig(seed=1, n_drops=3, n_fading=4).replace(**changes)


@pytest.mark.parametrize("mode,beamformer,k_zf", list(PINNED))
def test_arms_keep_their_bytes(mode, beamformer, k_zf):
    rs = run_experiment(_pinned_cfg(mode=mode, beamformer=beamformer, k_zf=k_zf))
    assert _digest(rs) == PINNED[mode, beamformer, k_zf]


def test_uc_extends_the_utc_stream_and_keeps_its_bytes():
    # UTC runs first in the table and UC reads a longer prefix of its law stream
    arms = run_arms(preset_mode_comparison(_pinned_cfg()))
    assert _digest(arms["UC"]) == UC_IN_TABLE


# K = 6 UEs on N = 4 antennas: UTC caps every AP at N UEs (bank path), CF
# serves all K from each AP (dense path)
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


def test_one_pass_per_arm(monkeypatch):
    # a lone arm and every arm of a table run their realizations in one pass
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
    assert passes == [5] * 4 * cfg.n_drops


def test_a_table_draws_each_law_realization_once(monkeypatch):
    # K = 3: all four modes take the bank path, and each arm after UTC reads a
    # longer prefix of the law stream (38, 50, 96 and 96 normals): the blocks
    # copy the prefixes drawn so far, and each realization's stream is
    # seeded once per drop
    cfg = ExperimentConfig(**{**SMALL, "k_ues": 3, "n_fading": 5})
    drawn = Draw(cfg, 0)
    seeded = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda key: seeded.append(key) or default_rng(key)
    )
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    for arm_cfg in preset_mode_comparison(cfg).values():
        run_drop(arm_cfg, 0, drawn)
    monkeypatch.undo()
    bank_keys = sorted(
        key for key in seeded if isinstance(key, list) and key[2:3] == [harness._S_BANK]
    )
    assert bank_keys == [[cfg.seed, 0, harness._S_BANK, f] for f in range(cfg.n_fading)]
    every = range(cfg.n_fading)
    np.testing.assert_array_equal(drawn.normals(96, every), Draw(cfg, 0).normals(96, every))


def _row_bytes(cfg: ExperimentConfig, monkeypatch) -> int:
    """Bytes of one realization's fading rows: the dense tensor's or the law stream's."""
    counts = []
    normals = Draw.normals
    monkeypatch.setattr(
        Draw, "normals", lambda draw, count, fs: counts.append(count) or normals(draw, count, fs)
    )
    run_drop(cfg, 0)
    monkeypatch.setattr(Draw, "normals", normals)
    return 16 * (counts[0] if counts else cfg.k_ues * cfg.m_aps * cfg.n_antennas)


@pytest.mark.parametrize("cores", [1, 4])
@pytest.mark.parametrize("arm", list(ARMS))
def test_outputs_do_not_depend_on_the_chunk_size(arm, cores, monkeypatch):
    # chunks of 1 and 2 realizations and of a whole block, as a lone arm
    # (chunk buffers reused across chunks and drops) and as the table's
    # second arm (rows the Draw keeps)
    cfg = _cfg(arm, 7)
    row_bytes = _row_bytes(cfg, monkeypatch)
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
            drawn = Draw(cfg, 0)
            run_drop(_cfg("dense-MF" if arm.startswith("bank") else "bank-MF", 7), 0, drawn)
            results += [lone, run_drop(cfg, 0, drawn)]
    finally:
        sys.setswitchinterval(interval)
    for got in results[1:]:
        _assert_same(got, results[0])


@pytest.mark.parametrize("cores", [1, 4])
def test_a_table_does_not_depend_on_the_chunk_size(cores, monkeypatch):
    cfg = ExperimentConfig(**{**SMALL, "n_fading": 7, "n_drops": 2})
    dense_rows = 16 * cfg.k_ues * cfg.m_aps * cfg.n_antennas
    monkeypatch.setattr(harness, "_usable_cores", lambda: cores)
    tables = []
    for budget in (1 << 40, 1, 2 * dense_rows):
        monkeypatch.setattr(harness, "CHUNK_BYTES", budget)
        tables.append(run_arms(preset_mode_comparison(cfg)))
    for table in tables[1:]:
        for mode, rs in table.items():
            _assert_same(rs, tables[0][mode])


def test_concurrent_lone_arms_keep_their_bytes(monkeypatch):
    # two threads run lone arms at once, each block in chunks of one
    # realization: each run_drop takes its own chunk buffers
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


@pytest.mark.parametrize("mode", ["UTC", "CF"])
def test_peak_memory_is_flat_in_the_fading_count(mode, monkeypatch):
    # chunks of one realization: the rows, beams and cross gains of a chunk
    # do not grow with F, so the drop's peak grows by what it keeps for every
    # realization. 250 m cells give 4 inspected cells per region at both F, so
    # the cell tables match. Without targets the echo stage holds no
    # per-target projections, which this bound does not count.
    monkeypatch.setattr(harness, "CHUNK_BYTES", 1)
    peaks = {}
    for n_fading in (8, 64):
        cfg = ExperimentConfig(mode=mode, n_fading=n_fading, t_targets=0, cell_extent_m=250.0)
        run_drop(cfg, 0)  # the chunk buffers exist from here on
        tracemalloc.start()
        try:
            run_drop(cfg, 0)
            peaks[n_fading] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # per realization: each snapshot's symbols, unit noise and transmit
    # signals, the transmit APs' copy of the signals and the echoes at the
    # receive APs (one more M N between them), and the SINR terms and rates
    signals = 16 * cfg.n_snapshots * cfg.m_aps * cfg.n_antennas
    kept = 16 * cfg.n_snapshots * (cfg.k_ues + cfg.m_aps) + 3 * signals + 4 * 8 * cfg.k_ues
    assert peaks[64] - peaks[8] <= 1.1 * (64 - 8) * kept
