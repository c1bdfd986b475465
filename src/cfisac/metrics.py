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
# Every float is written as its shortest round-trip repr, and rows end in
# CRLF in the CSVs and in LF in detections.txt. An arm's writer formats each
# column of a drop with one repr of its list and writes each file one drop
# at a time; a CDF goes out _CDF_CHUNK rows at a time.

# at 4096 rows a chunk's strings lift the writer's peak memory to the row writer's
_CDF_CHUNK = 2048
_DECISION_FLOATS = np.array(["0.0", "1.0"], dtype=object)


def _reprs(values: np.ndarray) -> tuple[str, list[str]]:
    """Each value's repr from one repr of the list: the ", "-joined text, the strings."""
    text = repr(values.ravel().tolist())[1:-1]
    return text, text.split(", ") if values.size else []


def _join_rows(columns: Sequence[list[str]], end: str) -> str:
    """Rows of equal-length string columns, each row closed by ``end``."""
    width = len(columns) + 1
    parts = [end] * (width * len(columns[0]))
    for i, column in enumerate(columns):
        parts[i::width] = column
    return "".join(parts)


def _write_cdf(path: str | Path, chunks: Iterable[tuple[list[str], np.ndarray]]) -> None:
    """value,probability rows with CRLF ends, from (value strings, probabilities) chunks."""
    with open(path, "w", newline="") as fh:
        fh.write("value,probability\r\n")
        for values, probabilities in chunks:
            fh.write(_join_rows([values, [","] * len(values), _reprs(probabilities)[1]], "\r\n"))


class _Column:
    """A float column of an arm, formatted drop by drop and kept for its CDF.

    Each drop's strings stay as the one text their repr joined them into,
    with their lengths, so that the CDF slices its values from that text.
    """

    def __init__(self) -> None:
        self._texts: list[str] = []
        self._lengths: list[np.ndarray] = []

    def format(self, values: np.ndarray) -> list[str]:
        text, strings = _reprs(values)
        self._texts.append(text)
        self._lengths.append(np.fromiter(map(len, strings), np.int32, len(strings)))
        return strings

    def cdf_chunks(self, samples: np.ndarray, positions: Optional[np.ndarray] = None):
        """The empirical CDF of ``samples`` in chunks for ``_write_cdf``; ends the column.

        ``samples`` are the column's values at ``positions`` of its formatted
        order, all of them by default. Their strings come in np.sort order,
        and the i-th has probability i/n, as in ``empirical_cdf``.
        """
        text = ", ".join(self._texts)
        starts = np.zeros(sum(map(len, self._lengths)) + 1, np.int64)  # and one past the end
        np.cumsum(np.concatenate(self._lengths) + 2, out=starts[1:])
        self._texts, self._lengths = [], []
        order = np.argsort(samples)
        ranked = np.sort(samples)
        for i in range(0, samples.size, _CDF_CHUNK):
            rows = order[i : i + _CDF_CHUNK]
            at = rows if positions is None else positions[rows]
            values = [text[a : b - 2] for a, b in zip(starts[at].tolist(), starts[at + 1].tolist())]
            # argsort may order equal values (-0.0 and 0.0) unlike np.sort
            want = ranked[i : i + _CDF_CHUNK]
            for t in np.flatnonzero(samples[rows].view(np.int64) != want.view(np.int64)):
                values[t] = repr(float(want[t]))
            yield values, np.arange(i + 1, i + rows.size + 1) / samples.size


def write_samples_csv(path: str | Path, rows) -> None:
    """One sample per row: drop, entity, metric, value, in CSV with CRLF row ends."""
    with open(path, "w", newline="") as fh:
        fh.write("drop,entity,metric,value\r\n")
        fh.writelines(f"{d},{e},{m},{float(v)!r}\r\n" for d, e, m, v in rows)


def write_cdf_csv(path: str | Path, curve: CdfCurve) -> None:
    """The curve's value,probability rows with CRLF ends."""
    chunks = (slice(i, i + _CDF_CHUNK) for i in range(0, curve.values.size, _CDF_CHUNK))
    _write_cdf(path, ((_reprs(curve.values[c])[1], curve.probabilities[c]) for c in chunks))


def _write_arm(out_dir: Path, rs: ResultSet) -> None:
    """Write the arm's samples, detections and CDFs, formatting each float once.

    The samples and the detections share each drop's SNR and statistic
    strings, and the CDFs slice the rate and SNR strings. Thresholds are
    formatted once per distinct value; decisions and truths are looked up.
    """
    n_drops, n_fading, k_ues = rs.rates_bps.shape
    n_regions = rs.statistics.shape[2]
    rates, snrs = _Column(), _Column()
    # " threshold decision truth " of a detection row; bitwise unique keeps -0.0
    thr_bits, thr_index = np.unique(rs.thresholds.ravel().view(np.int64), return_inverse=True)
    thresholds = _reprs(thr_bits.view(float))[1]
    middles = [f" {t} {dec} {truth} " for t in thresholds for dec in (0, 1) for truth in (0, 1)]
    middles = np.array(middles, dtype=object)
    codes = 4 * thr_index.reshape(rs.thresholds.shape) + 2 * rs.decisions + rs.truths

    def write_drop(d: int) -> None:  # the writer holds one drop's strings at a time
        snr = snrs.format(rs.sensing_snr_db[d])
        statistic = _reprs(rs.statistics[d])[1]
        decision = _DECISION_FLOATS[rs.decisions[d].ravel().astype(np.intp)].tolist()
        prefixes = [f"{d},{k},rate_bps," for k in range(k_ues)] * n_fading
        for name in ("sensing_snr_db", "statistic", "decision"):
            prefixes += [f"{d},{l},{name}," for l in range(n_regions)] * n_fading
        values = rates.format(rs.rates_bps[d]) + snr + statistic + decision
        samples.write(_join_rows([prefixes, values], "\r\n"))
        epochs = [f"{d} {f} {l} " for f in range(n_fading) for l in range(n_regions)]
        middle = middles[codes[d].ravel()].tolist()
        detections.write(_join_rows([epochs, statistic, middle, snr], "\n"))

    with open(out_dir / f"{rs.label}_samples.csv", "w", newline="") as samples, open(
        out_dir / f"{rs.label}_detections.txt", "w"
    ) as detections:
        samples.write("drop,entity,metric,value\r\n")
        detections.write("drop epoch region statistic threshold decision truth sensing_snr_db\n")
        for d in range(n_drops):
            write_drop(d)
    _write_cdf(out_dir / f"{rs.label}_cdf_rate_bps.csv", rates.cdf_chunks(rs.rates_bps.ravel()))
    snr = rs.sensing_snr_db.ravel()
    keep = np.flatnonzero(~np.isnan(snr))  # rank-0 tests have no SNR
    _write_cdf(out_dir / f"{rs.label}_cdf_sensing_snr_db.csv", snrs.cdf_chunks(snr[keep], keep))


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
