"""The bulk arm writer writes the bytes of the row-by-row reference writer."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cfisac.config import ExperimentConfig, load_config
from cfisac.harness import preset_mode_comparison, run_arms, run_experiment
from cfisac.metrics import DropDiagnostics, ResultSet, _write_arm, write_results
from reference import write_arm_by_row

BASELINE = load_config(Path(__file__).resolve().parent.parent / "configs" / "baseline.cfg")
ARM_FILES = ("samples.csv", "cdf_rate_bps.csv", "cdf_sensing_snr_db.csv", "detections.txt")
SPECIAL = np.array([-0.0, 0.0, np.inf, -np.inf, 1e-5, -3.25e-7, 1e16, -2.5e17, 1.0])


def _assert_bytes_of_the_row_writer(new: Path, results, tmp_path: Path) -> None:
    old = tmp_path / "by_row"
    old.mkdir()
    for rs in results:
        write_arm_by_row(old, rs)
        for suffix in ARM_FILES:
            name = f"{rs.label}_{suffix}"
            assert (new / name).read_bytes() == (old / name).read_bytes(), name


def _write_both(rs: ResultSet, tmp_path: Path) -> None:
    new = tmp_path / "bulk"
    new.mkdir()
    _write_arm(new, rs)
    _assert_bytes_of_the_row_writer(new, [rs], tmp_path)


def _synthetic(rates, snr, rng, thresholds=None) -> ResultSet:
    """A ResultSet of given rates (D, F, K) and SNRs (D, F, L), other columns drawn."""
    statistics = rng.exponential(size=snr.shape) * 10.0 ** rng.integers(-20, 20, snr.shape)
    if thresholds is None:
        thresholds = np.full(snr.shape, 5.28555112e-13)
    return ResultSet(
        label="synthetic",
        config=ExperimentConfig(),
        rates_bps=rates,
        sensing_snr_db=snr,
        statistics=statistics,
        thresholds=thresholds,
        decisions=statistics > thresholds,
        truths=rng.random(snr.shape) < 0.5,
        fronthaul_max=1,
        fronthaul_mean=1.0,
        diagnostics=DropDiagnostics(),
    )


def _mixed(rng, shape, pool=SPECIAL, share=0.5):
    """Draws of wide magnitude, a ``share`` of them replaced by values from ``pool``."""
    wide = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 20, shape)
    return np.where(rng.random(shape) < share, rng.choice(pool, shape), wide)


@pytest.mark.parametrize("beams", [dict(beamformer="MF"), dict(beamformer="ZF", k_zf=2)])
def test_baseline_arm(beams, tmp_path):
    _write_both(run_experiment(BASELINE.replace(n_drops=2, **beams)), tmp_path)


def test_preset_table(tmp_path):
    cfg = BASELINE.replace(n_drops=2, n_fading=10)
    results = run_arms(preset_mode_comparison(cfg))
    assert sorted(rs.label for rs in results.values()) == ["cf", "tc", "uc", "utc"]
    write_results(tmp_path / "bulk", results, cfg)
    _assert_bytes_of_the_row_writer(tmp_path / "bulk", results.values(), tmp_path)


@pytest.mark.parametrize("all_nan", [False, True])
def test_nan_snrs(all_nan, tmp_path):
    rng = np.random.default_rng(3)
    snr = rng.normal(size=(3, 7, 3)) * 10.0
    snr[rng.random(snr.shape) < (1.0 if all_nan else 0.3)] = np.nan  # rank-0 tests
    rs = _synthetic(rng.exponential(size=(3, 7, 5)) * 1e7, snr, rng)
    _write_both(rs, tmp_path)
    cdf = (tmp_path / "bulk" / "synthetic_cdf_sensing_snr_db.csv").read_bytes()
    assert (cdf == b"value,probability\r\n") == all_nan


def test_special_values_in_one_drop(tmp_path):
    """Signed zero ties, infinities, a NaN rate, tiny and exponent-form values."""
    rng = np.random.default_rng(4)
    rates = _mixed(rng, (1, 50, 100))  # 5000 values: the rate CDF spans several chunks
    rates[0, 7, 3] = np.nan
    snr = _mixed(rng, (1, 50, 4), pool=np.array([-0.0, 0.0, 1e-5, 1e16, np.nan]))
    thresholds = rng.choice(np.array([-0.0, 0.0, 2.5e-13, 1e16, 7.0]), snr.shape)
    rs = _synthetic(rates, snr, rng, thresholds)
    rs.statistics = _mixed(rng, snr.shape)
    rs.decisions = rs.statistics > thresholds
    _write_both(rs, tmp_path)
    text = (tmp_path / "bulk" / "synthetic_cdf_rate_bps.csv").read_text()
    assert "-0.0," in text and "\n0.0," in text and "1e+16," in text and "\nnan," in text


def test_peak_memory_is_no_higher_than_the_row_writer(tmp_path):
    rs = run_experiment(BASELINE.replace(n_drops=10))
    peaks = []
    for write in (_write_arm, write_arm_by_row):
        write(tmp_path, rs)  # warm
        tracemalloc.start()
        try:
            write(tmp_path, rs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], peaks
