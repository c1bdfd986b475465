"""Detection rates, fronthaul accounting, CDFs, and the output files.

This module owns every byte the CLI writes: the per-drop and per-arm result
records, the row order of each file, its number format and its name.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .clustering import ClusterAssignment
from .config import ExperimentConfig
from .deployment import NetworkLayout


@dataclass
class CdfCurve:
    """Empirical CDF: sorted sample values with probabilities i/n."""

    values: np.ndarray
    probabilities: np.ndarray


@dataclass
class FronthaulLoad:
    """Most and mean sensing scalars a receive AP ships to the CPU per epoch."""

    max_load: int
    mean_load: float


def detection_rates(
    decisions: Sequence[bool], truths: Sequence[bool]
) -> tuple[Optional[float], Optional[float]]:
    """(detection fraction over true-target cells, false-alarm fraction over empty cells).

    A side with no samples yields None rather than a misleading zero.
    """
    decisions = np.asarray(decisions, dtype=bool)
    truths = np.asarray(truths, dtype=bool)
    if decisions.shape != truths.shape or decisions.size == 0:
        raise ValueError("decision and truth logs must be nonempty and aligned")
    n_present = int(truths.sum())
    n_absent = int((~truths).sum())
    pd = float(decisions[truths].sum() / n_present) if n_present else None
    pfa = float(decisions[~truths].sum() / n_absent) if n_absent else None
    return pd, pfa


def fronthaul_load(assignment: ClusterAssignment) -> FronthaulLoad:
    """Per-epoch sensing fronthaul: one scalar per cluster a receive AP sits in."""
    clusters_of = np.bincount(np.concatenate([rx for _, rx in assignment.sensing_clusters]))
    loads = clusters_of[assignment.rx_aps]
    return FronthaulLoad(max_load=int(loads.max()), mean_load=float(np.mean(loads)))


def empirical_cdf(samples: Sequence[float]) -> CdfCurve:
    values = np.sort(np.asarray(samples, dtype=float))
    if values.size == 0:
        raise ValueError("cannot build a CDF from zero samples")
    probabilities = np.arange(1, values.size + 1) / values.size
    return CdfCurve(values=values, probabilities=probabilities)


# --- result records ------------------------------------------------------------


@dataclass
class DropDiagnostics:
    power_dev_max: float = 0.0
    zf_leakage_max: float = 0.0
    zf_fallbacks: int = 0
    zf_beams: int = 0
    rank0_tests: int = 0  # tests whose cluster's transmit APs send nothing: SNR NaN

    def merge(self, other: "DropDiagnostics") -> "DropDiagnostics":
        return DropDiagnostics(
            power_dev_max=max(self.power_dev_max, other.power_dev_max),
            zf_leakage_max=max(self.zf_leakage_max, other.zf_leakage_max),
            zf_fallbacks=self.zf_fallbacks + other.zf_fallbacks,
            zf_beams=self.zf_beams + other.zf_beams,
            rank0_tests=self.rank0_tests + other.rank0_tests,
        )


@dataclass
class DropResult:
    drop_index: int
    rates_bps: np.ndarray  # (F, K)
    sensing_snr_db: np.ndarray  # (F, L)
    statistics: np.ndarray  # (F, L)
    thresholds: np.ndarray  # (F, L)
    decisions: np.ndarray  # (F, L) bool
    truths: np.ndarray  # (F, L) bool
    fronthaul: FronthaulLoad
    diagnostics: DropDiagnostics
    layout: NetworkLayout
    assignment: ClusterAssignment


@dataclass
class ResultSet:
    """Aggregated samples of one experiment arm."""

    label: str
    config: ExperimentConfig
    rates_bps: np.ndarray  # (D, F, K)
    sensing_snr_db: np.ndarray  # (D, F, L)
    statistics: np.ndarray
    thresholds: np.ndarray
    decisions: np.ndarray
    truths: np.ndarray
    fronthaul_max: int
    fronthaul_mean: float
    diagnostics: DropDiagnostics

    def detection(self):
        return detection_rates(self.decisions.ravel(), self.truths.ravel())

    def median_rate(self) -> float:
        return float(np.median(self.rates_bps))

    def median_snr_db(self) -> float:
        """Median over the tests with an SNR: a rank-0 test's is NaN and left out."""
        snr = self.sensing_snr_db[~np.isnan(self.sensing_snr_db)]
        return float(np.median(snr)) if snr.size else float("nan")

    def sample_rows(self) -> Iterable[tuple[int, int, str, float]]:
        """Flatten to (drop, entity, metric, value) rows in a fixed order."""
        per_region = (
            ("sensing_snr_db", self.sensing_snr_db.tolist()),
            ("statistic", self.statistics.tolist()),
            ("decision", self.decisions.astype(float).tolist()),
        )
        for d, rates in enumerate(self.rates_bps.tolist()):
            for row in rates:
                for k, value in enumerate(row):
                    yield d, k, "rate_bps", value
            for name, arr in per_region:
                for row in arr[d]:
                    for l, value in enumerate(row):
                        yield d, l, name, value


def _aggregate(cfg: ExperimentConfig, label: str, drops: list[DropResult]) -> ResultSet:
    diag = DropDiagnostics()
    for dr in drops:
        diag = diag.merge(dr.diagnostics)
    rs = ResultSet(
        label=label,
        config=cfg,
        rates_bps=np.stack([d.rates_bps for d in drops]),
        sensing_snr_db=np.stack([d.sensing_snr_db for d in drops]),
        statistics=np.stack([d.statistics for d in drops]),
        thresholds=np.stack([d.thresholds for d in drops]),
        decisions=np.stack([d.decisions for d in drops]),
        truths=np.stack([d.truths for d in drops]),
        fronthaul_max=max(d.fronthaul.max_load for d in drops),
        fronthaul_mean=float(np.mean([d.fronthaul.mean_load for d in drops])),
        diagnostics=diag,
    )
    expected = cfg.n_drops * cfg.n_fading
    for what, samples, per_realization in (
        ("rate", rs.rates_bps, cfg.k_ues),
        ("detection", rs.statistics, cfg.l_regions),
    ):
        if samples.size != expected * per_realization:
            raise RuntimeError(
                f"{samples.size} {what} samples, expected {expected * per_realization} "
                f"from {cfg.n_drops} drops x {cfg.n_fading} realizations"
            )
    return rs


# --- file emission -----------------------------------------------------------


def write_samples_csv(path: str | Path, rows) -> None:
    """One sample per row: drop, entity, metric, value, in CSV with CRLF row ends."""
    with open(path, "w", newline="") as fh:
        fh.write("drop,entity,metric,value\r\n")
        fh.writelines(f"{d},{e},{m},{float(v)!r}\r\n" for d, e, m, v in rows)


def write_cdf_csv(path: str | Path, curve: CdfCurve) -> None:
    rows = zip(curve.values.tolist(), curve.probabilities.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("value,probability\r\n")
        fh.writelines(f"{v!r},{p!r}\r\n" for v, p in rows)


def _write_arm(out_dir: Path, rs: ResultSet) -> None:
    write_samples_csv(out_dir / f"{rs.label}_samples.csv", rs.sample_rows())
    write_cdf_csv(out_dir / f"{rs.label}_cdf_rate_bps.csv", empirical_cdf(rs.rates_bps.ravel()))
    snr = rs.sensing_snr_db[~np.isnan(rs.sensing_snr_db)]  # rank-0 tests have no SNR
    snr_cdf = empirical_cdf(snr) if snr.size else CdfCurve(np.empty(0), np.empty(0))
    write_cdf_csv(out_dir / f"{rs.label}_cdf_sensing_snr_db.csv", snr_cdf)
    with open(out_dir / f"{rs.label}_detections.txt", "w") as fh:
        fh.write("drop epoch region statistic threshold decision truth sensing_snr_db\n")
        columns = zip(
            rs.statistics.ravel().tolist(),
            rs.thresholds.ravel().tolist(),
            rs.decisions.ravel().astype(int).tolist(),
            rs.truths.ravel().astype(int).tolist(),
            rs.sensing_snr_db.ravel().tolist(),
        )
        fh.writelines(
            f"{d} {f} {l} {stat!r} {thr!r} {dec} {truth} {snr!r}\n"
            for (d, f, l), (stat, thr, dec, truth, snr) in zip(
                np.ndindex(rs.statistics.shape), columns
            )
        )


def _summarize(results: dict[str, ResultSet]) -> str:
    lines = []
    for label, rs in sorted(results.items()):
        pd, pfa = rs.detection()
        lines.append(
            f"arm={label} median_rate_bps={rs.median_rate()!r} "
            f"median_sensing_snr_db={rs.median_snr_db()!r} "
            f"pd={'na' if pd is None else repr(pd)} pfa={'na' if pfa is None else repr(pfa)} "
            f"fronthaul_max={rs.fronthaul_max} fronthaul_mean={rs.fronthaul_mean!r} "
            f"power_dev_max={rs.diagnostics.power_dev_max!r} "
            f"zf_leakage_max={rs.diagnostics.zf_leakage_max!r} "
            f"zf_fallbacks={rs.diagnostics.zf_fallbacks}/{rs.diagnostics.zf_beams}"
        )
    return "\n".join(lines) + "\n"


def write_results(out_dir: Path, results: dict[str, ResultSet], cfg: ExperimentConfig) -> str:
    """Write config.txt, each arm's files and summary.txt; return the summary text."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(cfg.to_text())
    for rs in results.values():
        _write_arm(out_dir, rs)
    summary = _summarize(results)
    (out_dir / "summary.txt").write_text(summary)
    return summary
