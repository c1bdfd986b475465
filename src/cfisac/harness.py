"""Monte Carlo campaign: drops x fading realizations x scan epochs.

Each drop redraws all positions, builds the cluster assignment once, then
sweeps ``n_fading`` coherence intervals. One scan epoch elapses per fading
realization. All per-interval math is batched over the fading axis and the
reductions run through :mod:`cfisac.kernels`.

Random streams are derived from (seed, drop, purpose) tuples, so drops are
order-independent and experiment arms that share a seed see identical
layouts, shadowing, schedules, symbols and noise (common random numbers).
A preset is a table of arms (label -> config); ``run_arms`` runs any table
drop by drop, and ``run_drop`` is a table of one arm. ``Draw`` holds what a
drop's arms share: layout, gains, schedule, cell tables, and each snapshot's
symbols and noise, so a table's arms agree on every value it reads
(``_DRAW_INPUTS``), ``n_snapshots`` and ``spacing_wavelengths`` included.
Every arm reads one kind of fading row, realization f from its own stream
(seed, drop, purpose, f): a flat stream of normals from which the arm draws
its served links in full and every other link in law through its AP's
bank. An arm takes one of two downlink formulas on it: the bank formula
(``_bank_downlink``), or, where some AP serves more than N UEs (TC/CF with
K > N), the dense one (``_dense_downlink``), which reads the served links as
the (K, P, N) channels of the P transmit APs. A table runs all its arms in
one pass over realization blocks, one per core the process may use
(``taskset`` limits them). A block runs in equal chunks of at most
``CHUNK_BYTES`` of rows: each chunk draws the law stream once, up to the
longest arm's, into the block's pooled buffer, and every arm in turn writes
its served channels into the buffer's tail and runs its sensing beams,
downlink and transmit signals on them. Each arm reads a prefix of the law
stream, so it reads the same bytes alone and in any table. Neither the
thread count nor the chunk size changes a byte, and no row outlives its
chunk (``BENCH_22.json``, ``BENCH_23.json``).
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import kernels
from .channel import (
    ArrayGeometry,
    complex_normal,
    linear_gain,
    pathloss_db,
    psd_sqrt,
    steering_bank,
    view_angle_kernel,
)
from .clustering import ClusterAssignment, build_assignment
from .config import ConfigError, ExperimentConfig, VALID_MODES
from .deployment import NetworkLayout, ScanSchedule, build_scan_schedule, generate_layout
from .metrics import DropDiagnostics, DropResult, ResultSet, _aggregate, fronthaul_load

# purposes of the per-drop random substreams; purpose 3 drew the dense fading
# tensor before every arm read the law stream (_S_BANK), and stays unused so
# that every other stream keeps its seed
_S_LAYOUT, _S_SHADOW, _S_SCHED = range(3)
_S_SYMBOL, _S_NOISE, _S_RCS, _S_DIRECT, _S_BANK = range(4, 9)


# a projected ZF beam with norm at most this times sqrt(N) falls back to MF
ZF_FALLBACK_TOL = 1e-9


def _stream(cfg: ExperimentConfig, drop: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, drop, purpose])


def ue_ap_gains(
    layout: NetworkLayout, cfg: ExperimentConfig, rng: np.random.Generator
) -> np.ndarray:
    """Large-scale linear gains of every UE-AP link (NLoS + optional shadowing)."""
    d = np.linalg.norm(layout.ues[:, None, :] - layout.aps[None, :, :], axis=2)
    pl = pathloss_db(d, "ue_ap_nlos", cfg.carrier_ghz)
    if cfg.shadowing_enabled and cfg.shadowing_std_db > 0:
        pl = pl + rng.normal(0.0, cfg.shadowing_std_db, size=d.shape)
    return linear_gain(pl)


def _los_gains(points: np.ndarray, ap_positions: np.ndarray, f_ghz: float) -> np.ndarray:
    """One-way LoS linear gains between points and APs, shape (P, M)."""
    d = np.linalg.norm(points[:, None, :] - ap_positions[None, :, :], axis=2)
    return linear_gain(pathloss_db(d, "ap_target_los", f_ghz))


def allocate_power(
    p_max: float,
    n_served: int | np.ndarray,
    sensing_active: bool | np.ndarray,
    rho: float | None = None,
) -> tuple:
    """Split the per-AP budget over the served UEs and the sensing beam.

    Default is an equal share per beam. With ``rho`` set, the sensing beam
    takes rho * p_max and the UEs split the remainder equally. Returns
    (per-UE power, sensing power), element-wise over array arguments; the
    sensing power absorbs the floating point residual so the budget closes
    exactly.
    """
    n = np.asarray(n_served, dtype=float)
    sensing = np.asarray(sensing_active, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        shared = p_max / (n + 1) if rho is None else (1.0 - rho) * p_max / n
        per_ue = np.where(n > 0, np.where(sensing, shared, p_max / n), 0.0)
    eta0 = np.where(sensing, np.maximum(p_max - n * per_ue, 0.0), 0.0)
    return per_ue[()], eta0[()]


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_poisson(n: int, x: float) -> float:
    """log(e^-x x^n / n!), with n log x - x - lgamma(n + 1) taken about x = n
    so that no large terms cancel."""
    if n == 0:
        return -x
    d = x - n
    log_ratio = math.log1p(d / n) if 0.5 * n <= x <= 2.0 * n else math.log(x / n)
    # lgamma(n + 1) - (n + 1/2) log n + n - log(2 pi) / 2: the series at m >= 15,
    # stepped down to n by S(k) = S(k + 1) + (k + 1/2) log(1 + 1/k) - 1
    m = max(n, 15)
    r = 1.0 / (m * m)
    stirling = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / m
    stirling += sum((k + 0.5) * math.log1p(1.0 / k) - 1.0 for k in range(n, m))
    return n * log_ratio - d - 0.5 * math.log(n) - _HALF_LOG_2PI - stirling


@functools.lru_cache(maxsize=256)
def _erlang_quantile(rank: int, pfa: float) -> float:
    """The x with Q(rank, x) = e^-x sum_{k<rank} x^k / k! = pfa.

    Newton on y = log x: log Q and log P = log(1 - Q) are concave in y, so
    from its first step on each iterate stays on one side of the root and
    x = e^y stays positive. pfa <= 1/2 solves log Q, the root at or above
    the median (> rank - 1/3); a larger pfa solves log P = log(1 - pfa),
    the root below the median, from x^rank / rank! >= P, which starts it
    below. Either sum is a Poisson term times 1 + sum_j of a product of
    ratios below one that decay like exp(-j^2 / 2 rank), cut after 9
    sqrt(rank) + 30 terms.
    """
    upper = pfa <= 0.5
    target = math.log(pfa if upper else 1.0 - pfa)
    n_terms = int(9.0 * math.sqrt(rank)) + 30
    i = np.arange(1.0, (min(n_terms, rank - 1) if upper else n_terms) + 1)
    if upper:
        x = rank + math.sqrt(-2.0 * rank * target) - target
    else:
        x = math.exp((target + math.lgamma(rank + 1.0)) / rank)
    for _ in range(100):
        if upper:  # Q = p_{rank-1} r, d log Q / dy = -x / r
            r = 1.0 + np.cumprod((rank - i) / x).sum()
            step = (_log_poisson(rank - 1, x) + math.log(r) - target) * r / x
        else:  # P = p_rank r, d log P / dy = rank / r
            r = 1.0 + np.cumprod(x / (rank + i)).sum()
            step = -(_log_poisson(rank, x) + math.log(r) - target) * r / rank
        x += x * math.expm1(step)
        if abs(step) < 1e-15:
            return x
    raise ArithmeticError(f"threshold for rank {rank} at pfa {pfa} did not converge")


def calibrate_threshold(
    total_rank: int | np.ndarray, sigma_z2: float, target_pfa: float
) -> float | np.ndarray:
    """Analytic false-alarm threshold for the fused statistic.

    Under the noise-only hypothesis the statistic is a sum of ``total_rank``
    squared magnitudes of independent complex Gaussians, i.e. Gamma(rank,
    sigma_z2) with an integer rank, so the threshold is sigma_z2 times the
    x whose Erlang tail e^-x sum_{k<rank} x^k / k! equals target_pfa.
    Element-wise over an array of ranks, solved once per distinct rank; a
    scalar rank gives a float, equal to the array entry of that rank.
    """
    if not 0.0 < target_pfa < 1.0:
        raise ValueError("target_pfa must lie in (0, 1)")
    ranks = np.asarray(total_rank)
    if np.any(ranks < 1):
        raise ValueError("total_rank must be >= 1")
    whole = np.isfinite(ranks) & (np.floor(ranks) == ranks)
    if not whole.all():
        raise ValueError(f"total_rank must be an integer, got {ranks[~whole].flat[0]}")
    unique, inverse = np.unique(ranks, return_inverse=True)
    unit = np.array([_erlang_quantile(int(r), float(target_pfa)) for r in unique])
    threshold = sigma_z2 * unit[inverse].reshape(ranks.shape)
    return float(threshold) if ranks.ndim == 0 else threshold


class _CellTables:
    """What every arm of a drop reads alike about the inspected cells and the targets.

    The schedule's cells in compact ids, the AP-side steering banks and LoS
    gains toward every inspected cell center and every true target, and the
    ground truth per cell. They depend on the layout, the schedule and the
    array geometry only, so the arms of a table share one copy.
    """

    def __init__(self, cfg: ExperimentConfig, layout: NetworkLayout, schedule: ScanSchedule):
        geom = ArrayGeometry(cfg.n_antennas, cfg.spacing_wavelengths)
        f_ghz = cfg.carrier_ghz

        # the inspected cells only: the schedule's cells in global ids (regions'
        # cells concatenated), mapped to compact ids into the cell tables
        regions = layout.regions
        offsets = np.cumsum([0] + [len(region.cell_centers) for region in regions[:-1]])
        inspected, cell_of = np.unique(schedule.epochs + offsets, return_inverse=True)
        self.cell_region = np.searchsorted(offsets, inspected, side="right") - 1
        self.cell_centers = np.concatenate([region.cell_centers for region in regions])[inspected]
        self.n_epochs = schedule.n_epochs

        # schedule in compact cell ids: (n_epochs, L)
        self.cell_of = cell_of.reshape(schedule.epochs.shape)

        # AP-side banks toward every inspected cell center and every true target
        self.a_cell = steering_bank(geom, layout.aps, layout.broadsides, self.cell_centers)
        self.g_cell = _los_gains(self.cell_centers, layout.aps, f_ghz)
        self.a_tgt = steering_bank(geom, layout.aps, layout.broadsides, layout.targets)
        self.sqrt_g_tgt = np.sqrt(_los_gains(layout.targets, layout.aps, f_ghz))

        # ground truth per cell: a target of the cell's region inside its
        # half-open bounds [x0, x1) x [y0, y1)
        bounds = np.concatenate([region.cell_bounds for region in regions])[inspected]  # (C, 4)
        xy = layout.targets[:, None, :2]  # (T, 1, 2)
        inside = np.all(bounds[:, :2] <= xy, axis=2) & np.all(xy < bounds[:, 2:], axis=2)
        own = self.cell_region == np.asarray(layout.target_regions)[:, None]  # (T, C)
        self.truth_cell = np.any(own & inside, axis=0)


class _DropContext:
    """Per-drop geometry, gains, power split and ZF sets that the drop reads,
    with ``cells`` the drop's ``_CellTables``."""

    def __init__(
        self,
        cfg: ExperimentConfig,
        layout: NetworkLayout,
        assignment: ClusterAssignment,
        gains: np.ndarray,
        cells: _CellTables,
    ):
        self.layout = layout
        self.assignment = assignment
        corr = cfg.angular_corr_rad
        self.n_epochs, self.cell_of, self.truth_cell = cells.n_epochs, cells.cell_of, cells.truth_cell
        self.a_cell, self.g_cell = cells.a_cell, cells.g_cell
        self.a_tgt, self.sqrt_g_tgt = cells.a_tgt, cells.sqrt_g_tgt

        # each target's reflectivity law over the global rx/tx sets: the receive
        # side mixed by sigma sqrt(g_rx) sqrt(K_rx), (T, R, R), and the transmit
        # kernel K_tx, (T, P, P), which the echo reads through a quadratic form
        self.rx_all = np.asarray(assignment.rx_aps, dtype=int)
        self.tx_all = np.asarray(assignment.tx_aps, dtype=int)
        rx_aps, tx_aps = layout.aps[self.rx_all], layout.aps[self.tx_all]
        s_rx = psd_sqrt(view_angle_kernel(layout.targets, rx_aps, corr))
        self.rx_mix = math.sqrt(cfg.sigma_rcs2_m2) * self.sqrt_g_tgt[:, self.rx_all, None] * s_rx
        self.k_tx = view_angle_kernel(layout.targets, tx_aps, corr)

        # sensing clusters, all of one size: (L, n_tx) and (L, n_rx) AP ids, and
        # the receive APs' positions inside rx_all
        clusters = assignment.sensing_clusters
        self.cluster_tx = np.array([tx_c for tx_c, _ in clusters], dtype=int)
        self.cluster_rx = np.array([rx_c for _, rx_c in clusters], dtype=int)
        self.cluster_rx_pos = np.searchsorted(self.rx_all, self.cluster_rx)

        # hypothesized reflectivity covariance of each cell over its region's
        # cluster transmit APs, by compact cell id: (C, n_tx, n_tx)
        tx_of_cell = layout.aps[self.cluster_tx[cells.cell_region]]  # (C, n_tx, 3)
        self.r_cell = cfg.sigma_rcs2_m2 * view_angle_kernel(cells.cell_centers, tx_of_cell, corr)

        # per-AP power split; the sensing beam absorbs the rounding residual
        n_served = np.array([len(served) for served in assignment.served])
        sensing = assignment.pointing >= 0
        ue_share, eta0 = allocate_power(
            cfg.p_max_w, n_served, sensing, rho=cfg.sensing_power_fraction
        )
        self.gains = gains
        self.ue_amp = np.sqrt(ue_share)
        self.amp = np.zeros((cfg.k_ues, cfg.m_aps))
        for k, aps in enumerate(assignment.serving):
            self.amp[k, aps] = self.ue_amp[aps]
        self.sqrt_eta0 = np.sqrt(eta0)
        self.sensing_tx = np.flatnonzero(sensing)
        active = (n_served > 0) | sensing
        budget = n_served * ue_share + eta0
        self.power_dev_max = float(np.max(np.abs(budget[active] - cfg.p_max_w), initial=0.0))

        # strongest served UEs per sensing AP, the ZF annulment order; only
        # APs with a served UE to annul get a ZF set (k_zf <= N - 1 by validate).
        # zf_sets holds one (aps (A,), annul (A, a)) pair per set size a, sizes
        # ascending and APs ascending within a size
        by_size = {}
        if cfg.beamformer == "ZF" and cfg.k_zf > 0:
            for m in self.sensing_tx:
                served = assignment.served[m]
                if len(served):
                    order = np.lexsort((served, -gains[served, m]))
                    annul = served[order[: cfg.k_zf]]
                    by_size.setdefault(len(annul), []).append((m, annul))
        self.zf_sets = [
            (np.array([m for m, _ in group]), np.array([annul for _, annul in group]))
            for _, group in sorted(by_size.items())
        ]


def _sense_beams(
    ctx: _DropContext, h_links: np.ndarray, link_of: np.ndarray, epoch_cells: np.ndarray
) -> tuple[np.ndarray, DropDiagnostics]:
    """Sensing beams of every sensing AP for every fading realization.

    MF beams are the cell-center steering vectors; ZF beams additionally
    project out the annulled served-UE channels (QR basis) before
    renormalizing, falling back to MF in each realization where the
    projection vanishes. The ZF APs run in ``ctx.zf_sets`` groups of one
    annulment size: one batched QR over (F, A, N, a) per group. The
    channel of link (k, m) is ``h_links[:, link_of[k, m]]``.
    """
    n_fading, _, n_ant = h_links.shape
    w0 = np.zeros((n_fading, ctx.amp.shape[1], n_ant), dtype=complex)
    diag = DropDiagnostics(power_dev_max=ctx.power_dev_max)
    inv_sqrt_n = 1.0 / math.sqrt(n_ant)
    pointing = ctx.assignment.pointing
    tx = ctx.sensing_tx
    w0[:, tx] = ctx.a_cell[epoch_cells[:, pointing[tx]], tx] * inv_sqrt_n
    for aps, annul in ctx.zf_sets:
        diag.zf_beams += n_fading * len(aps)
        a = ctx.a_cell[epoch_cells[:, pointing[aps]], aps]  # (F, A, N) cell-matched steering
        # C-contiguous, so that the einsums sum each AP's projection in the per-AP order
        h_ann = np.ascontiguousarray(h_links[:, link_of[annul, aps[:, None]]])  # (F, A, a, N)
        basis = np.linalg.qr(h_ann.swapaxes(-1, -2))[0]  # (F, A, N, a)
        w = a - np.einsum(
            "...na,...a->...n", basis, np.einsum("...na,...n->...a", basis.conj(), a), optimize=True
        )
        norms = np.linalg.norm(w, axis=-1)
        fallback = norms <= ZF_FALLBACK_TOL * math.sqrt(n_ant)  # (F, A)
        diag.zf_fallbacks += int(fallback.sum())
        w = np.where(fallback[..., None], a * inv_sqrt_n, w / np.maximum(norms, 1e-300)[..., None])
        w0[:, aps] = w
        ok = ~fallback
        if ok.any():
            leak = np.abs(np.einsum("fan,fn->fa", h_ann[ok].conj(), w[ok], optimize=True))
            diag.zf_leakage_max = max(diag.zf_leakage_max, float(leak.max()))
    return w0, diag


def _mf_beams(h: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """Conjugated power-scaled MF beams amp * conj(h) / ||h|| over the last axis of h.

    The squared norms are one einsum over the float64 view of h. Links with
    amp = 0 get a zero beam without a division, so an unserved zero channel
    gives no NaN. The dense downlink formula builds its beams here.
    """
    h_re = h.view(np.float64)
    norm = np.sqrt(np.einsum("...i,...i->...", h_re, h_re))
    scale = np.divide(amp, norm, out=np.zeros(norm.shape), where=amp > 0)
    w_conj = h.conj()
    w_conj *= scale[..., None]
    return w_conj


# the bytes of rows, the law stream's and an arm's served channels, that a
# realization block holds at once; the blocks' row buffers of finished passes
CHUNK_BYTES = 8 << 20
_SPARE_CHUNKS, _SPARE_LOCK = [], threading.Lock()

# every config value that the shared draw reads: the arms of one table agree on each
_DRAW_INPUTS = (
    "seed", "n_fading", "n_snapshots", "m_aps", "k_ues", "t_targets", "l_regions",
    "n_antennas", "spacing_wavelengths", "area_side_m", "ap_height_m", "ue_height_m",
    "target_height_min_m", "target_height_max_m", "inspection_height_m",
    "resolved_cell_extent_m", "random_broadside", "carrier_ghz", "shadowing_enabled",
    "shadowing_std_db",
)


def _read_only(rows: np.ndarray) -> np.ndarray:
    """A read-only view of rows, which stay writable for the next chunk."""
    view = rows.view()
    view.flags.writeable = False
    return view


class Draw:
    """What every arm of a drop shares, built at once and read alike by each arm.

    ``layout``, ``gains`` (shadowed UE-AP gains), ``schedule``, ``cells``
    (the ``_CellTables``), and each snapshot's ``symbols`` with the CN(0, 1)
    ``unit_noise`` (``_symbols_and_noise``). ``normals(fs, out)`` draws the
    fading rows on request into a buffer the caller owns and returns them
    read-only: the first ``out.shape[1]`` CN(0, 1) values of each
    realization f's law stream (seed, drop, _S_BANK, f), N per served link by
    (UE, serving slot), then min(b_m, N) per unserved link, AP by AP
    (``_bank_downlink``). A shorter ``out`` holds a prefix of a longer one's
    values, so an arm reads the same bytes alone and in a table.

    It keeps no row: the caller draws each chunk over the last.
    """

    def __init__(self, cfg: ExperimentConfig, drop_index: int):
        self.layout = generate_layout(cfg, _stream(cfg, drop_index, _S_LAYOUT))
        self.gains = ue_ap_gains(self.layout, cfg, _stream(cfg, drop_index, _S_SHADOW))
        # only the epochs that the F realizations inspect are ordered
        self.schedule = build_scan_schedule(
            self.layout.regions, _stream(cfg, drop_index, _S_SCHED), max_epochs=cfg.n_fading
        )
        self.cells = _CellTables(cfg, self.layout, self.schedule)
        self.symbols, self.unit_noise = _symbols_and_noise(cfg, drop_index)
        self._key = (cfg.seed, drop_index)

    def normals(self, fs: range, out: np.ndarray) -> np.ndarray:
        """CN(0, 1) in out (len(fs), count): standard normal pairs (re, im) scaled by 1/sqrt(2)."""
        reals = out.view(np.float64)
        for f, row in zip(fs, reals):
            np.random.default_rng([*self._key, _S_BANK, f]).standard_normal(out=row)
        reals *= 1.0 / math.sqrt(2.0)
        return _read_only(out)


def _usable_cores() -> int:
    """Cores this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split(fs: range, parts: int | None = None) -> list[range]:
    """fs in ``parts`` near-equal contiguous ranges, by default one per usable core."""
    parts = parts or min(_usable_cores(), len(fs))
    edges = [fs.start + len(fs) * i // parts for i in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _in_blocks(n_fading: int, fill) -> None:
    """Run fill(block) over contiguous blocks of range(n_fading), one per usable core.

    The calling thread runs the first block and a thread pool the others, in
    parallel (numpy's normal fills, ufunc loops and BLAS calls release the
    GIL). The calling thread's block keeps its temporaries in the allocator's
    main arena, which the rest of the drop reuses: 28 MB less at peak on
    ``cf-mf`` than a pool thread per block. The pool is closed before this
    returns, so no thread outlives the call and a later fork inherits none.
    ``_run_table`` splits each block into chunks; no split changes a byte.
    """
    blocks = _split(range(n_fading))
    if len(blocks) == 1:
        fill(blocks[0])
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(blocks) - 1) as pool:
        rest = pool.map(fill, blocks[1:])
        fill(blocks[0])
        list(rest)


def run_drop(cfg: ExperimentConfig, drop_index: int) -> DropResult:
    """Simulate one arm of a drop: a table of this arm alone (``_run_table``)."""
    cfg.validate()
    return _run_table([cfg], drop_index)[0]


def _run_table(cfgs: list[ExperimentConfig], drop_index: int) -> list[DropResult]:
    """Run the distinct arms cfgs of a table on one drop, in one pass.

    The arms agree on every ``_DRAW_INPUTS`` value. Each realization block,
    one per usable core, runs in equal chunks of at most ``CHUNK_BYTES`` of
    rows, in a buffer that its block takes from the process pool and returns
    to it. A chunk draws the law stream once into the buffer, up to the
    longest arm's ``n_normals``; each arm in turn then writes its served
    channels into the buffer's tail and runs its chunk on them.
    """
    cfg = cfgs[0]
    drawn = Draw(cfg, drop_index)
    arms = [_Arm(arm_cfg, drop_index, drawn) for arm_cfg in cfgs]
    n_normals = max(arm.bank.n_normals for arm in arms)
    n_links = max(arm.bank.n_law for arm in arms)  # the served channels' values
    per_chunk = max(1, CHUNK_BYTES // (16 * (n_normals + n_links)))

    def run_block(block: range) -> None:
        with _SPARE_LOCK:
            rows = _SPARE_CHUNKS.pop() if _SPARE_CHUNKS else np.empty(0, dtype=complex)
        for chunk in _split(block, -(-len(block) // per_chunk)):
            n = len(chunk)
            if len(rows) < n * (n_normals + n_links):
                rows = np.empty(n * (n_normals + n_links), dtype=complex)
            normals = drawn.normals(chunk, rows[: n * n_normals].reshape(n, n_normals))
            for arm in arms:
                arm.run_chunk(chunk, normals, rows[n * n_normals : n * (n_normals + n_links)])
        with _SPARE_LOCK:
            _SPARE_CHUNKS.append(rows)

    _in_blocks(cfg.n_fading, run_block)
    return [arm.finish() for arm in arms]


class _Arm:
    """One arm on one drop: setup, the work of each chunk of rows, and finish.

    The setup clusters the drop and builds its context and its ``bank``
    tables, which say where each link reads the law stream. Tables without
    batches (TC/CF with K > N) set ``dense``: the arm takes the dense
    downlink formula, and otherwise the bank formula.
    ``run_chunk`` runs a chunk's sensing beams, downlink and transmit
    signals, and ``finish`` the SINR, echoes and detection of all
    realizations.
    """

    def __init__(self, cfg: ExperimentConfig, drop_index: int, drawn: Draw):
        self.cfg, self.drop_index = cfg, drop_index
        layout, n_fading, n_ant = drawn.layout, cfg.n_fading, cfg.n_antennas
        assignment = build_assignment(layout, drawn.gains, cfg)
        self.ctx = ctx = _DropContext(cfg, layout, assignment, drawn.gains, drawn.cells)
        # one scan epoch per fading realization, cycling through the sweep
        self.epoch_cells = ctx.cell_of[np.arange(n_fading) % ctx.n_epochs]  # (F, L) cell ids
        self.symbols, self.unit_noise = drawn.symbols, drawn.unit_noise
        k_ues, m_total = ctx.amp.shape
        self.bank = _bank_tables(ctx, n_ant)
        self.dense = self.bank.batches is None
        # communication side is snapshot-independent: the SINR reads each UE's
        # desired power, its row sum of cross-gain powers and its sensing leakage
        self.sinr_terms = np.empty((3, n_fading, k_ues))
        self.s_tx = np.empty((cfg.n_snapshots, n_fading, m_total, n_ant), dtype=complex)
        self.chunk_diagnostics = []

    def run_chunk(self, chunk: range, normals: np.ndarray, links: np.ndarray) -> None:
        """Realizations chunk from their law stream normals.

        The served links' channels, the stream's first N normals per link
        times sqrt(g_km), go to the start of ``links``, a flat buffer that the
        arm overwrites. A dense arm's links run by (UE, transmit AP), so they
        are the (K, P, N) channels of the transmit APs.
        """
        ctx, bank, fs = self.ctx, self.bank, slice(chunk.start, chunk.stop)
        n, n_ant = len(chunk), self.cfg.n_antennas
        symbols = [(x[fs], x0[fs]) for x, x0 in self.symbols]
        z = normals[:, : bank.n_law].reshape(n, len(bank.sqrt_g_links), n_ant)
        h_links = np.multiply(z, bank.sqrt_g_links, out=links[: n * bank.n_law].reshape(z.shape))
        w0, diag = _sense_beams(ctx, h_links, bank.link_of, self.epoch_cells[fs])
        if self.dense:
            h = h_links.reshape(n, len(ctx.amp), len(ctx.tx_all), n_ant)
            out = _dense_downlink(ctx, h, ctx.sqrt_eta0[None, :, None] * w0, symbols)
        else:
            out = _bank_downlink(bank, h_links, w0, normals, symbols)
        diag_gain, row_sums, leak = self.sinr_terms
        power = np.ascontiguousarray(out[0])
        diag_gain[fs], row_sums[fs] = np.einsum("fkk->fk", power), power.sum(axis=2)
        leak[fs], self.s_tx[:, fs] = out[1:]
        self.chunk_diagnostics.append(diag)

    def _rates(self) -> np.ndarray:
        """(F, K) rates; the SINR terms and their temporaries end here."""
        (diag_gain, row_sums, leak), self.sinr_terms = self.sinr_terms, None
        sinr = diag_gain / (row_sums - diag_gain + leak + self.cfg.sigma_z2_w)
        return self.cfg.bandwidth_hz * np.log2(1.0 + sinr)

    def finish(self) -> DropResult:
        """The drop's result: rates, then echoes and detection on all realizations."""
        cfg, ctx, drop_index, s_tx = self.cfg, self.ctx, self.drop_index, self.s_tx
        epoch_cells, sigma2 = self.epoch_cells, cfg.sigma_z2_w
        diagnostics = functools.reduce(DropDiagnostics.merge, self.chunk_diagnostics)
        rates = self._rates()

        # the echoes of one realization share its reflectivities and direct
        # channels across snapshots
        s_tx_p = s_tx[:, :, ctx.tx_all]  # (J, F, P, N) of the transmit APs
        y = np.take(self.unit_noise, ctx.rx_all, axis=2)  # (J, F, R, N), scaled in place
        y *= math.sqrt(sigma2)
        y += _target_echoes(ctx, s_tx_p, _stream(cfg, drop_index, _S_RCS))
        if cfg.direct_residual > 0.0:
            direct = _direct_path(cfg, ctx, s_tx_p, _stream(cfg, drop_index, _S_DIRECT))
            y += cfg.direct_residual * direct
        del s_tx_p  # detection reads every AP's signals, s_tx

        stat = ranks = snr_lin = 0
        for s_j, y_j in zip(s_tx, y):
            stat_s, ranks_s, snr_s = _detect(cfg, ctx, epoch_cells, s_j, y_j)
            stat, ranks, snr_lin = stat + stat_s, ranks + ranks_s, snr_lin + snr_s

        snr_lin /= cfg.n_snapshots
        thresholds = calibrate_threshold(np.maximum(ranks, 1), sigma2, cfg.pfa_target)
        decisions = stat > thresholds
        truths = ctx.truth_cell[epoch_cells]
        # a rank-0 test (its cluster's transmit APs send nothing) has no SNR
        dead = ranks == 0
        diagnostics.rank0_tests = int(dead.sum())
        with np.errstate(divide="ignore"):
            snr_db = np.where(dead, np.nan, 10.0 * np.log10(snr_lin))

        return DropResult(
            drop_index=drop_index,
            rates_bps=rates,
            sensing_snr_db=snr_db,
            statistics=stat,
            thresholds=thresholds,
            decisions=decisions,
            truths=truths,
            fronthaul=fronthaul_load(ctx.assignment),
            diagnostics=diagnostics,
            layout=ctx.layout,
            assignment=ctx.assignment,
        )


def _symbols_and_noise(cfg: ExperimentConfig, drop_index: int) -> tuple[list, np.ndarray]:
    """Each snapshot's unit-modulus symbols (x (F, K), x0 (F, M)), and CN(0, 1) noise (J, F, M, N)."""
    n_fading, k_ues, m_total, n_ant = cfg.n_fading, cfg.k_ues, cfg.m_aps, cfg.n_antennas
    symbol_rng = _stream(cfg, drop_index, _S_SYMBOL)
    noise_rng = _stream(cfg, drop_index, _S_NOISE)
    symbols, noise = [], []
    for _ in range(cfg.n_snapshots):
        x = np.exp(2j * np.pi * symbol_rng.random((n_fading, k_ues)))
        x0 = np.exp(2j * np.pi * symbol_rng.random((n_fading, m_total)))
        symbols.append((x, x0))
        noise.append(complex_normal(noise_rng, (n_fading, m_total, n_ant)))
    return symbols, np.stack(noise)


def _law_gains(unit: np.ndarray, amp: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gains of banks D U toward links drawn in law, with the Grams U U^H.

    ``unit`` (..., b, N) holds each bank's unit rows, ``amp`` (..., b, 1)
    their amplitudes and ``w`` (..., d, K) the law's normals times
    sqrt(g_km), d = min(b, N). The gains are D L w, with L the lower
    Cholesky factor of the Gram, or U itself where b >= N.
    """
    gram = np.matmul(unit, unit.conj().swapaxes(-1, -2))
    factor = kernels.cholesky_lower(gram) if unit.shape[-2] < unit.shape[-1] else unit
    return np.matmul(factor * amp, w), gram


class _BankTables(NamedTuple):
    """An arm's served links and law stream, and its banks batched by size b_m."""

    link_of: np.ndarray  # (K, M) served link ids by (UE, serving slot), -1 off the serving sets
    sqrt_g_links: np.ndarray  # (links, 1): each served link's sqrt(g_km)
    n_law: int  # the stream's normals of the served links, N per link
    n_normals: int  # every normal the arm reads per realization
    batches: list | None  # a _BankBatch per bank size, sizes ascending; None: dense formula


class _BankBatch(NamedTuple):
    """The tables of one bank size b: A APs, each with b rows, a row per served
    UE in ascending order and then, if the AP senses, its sensing row."""

    aps: np.ndarray  # (A,) ascending
    slots: np.ndarray  # (A, K, d): each AP's law normals toward every UE, d = min(b, N)
    scale: np.ndarray  # (A, K, 1): sqrt(g_km)
    amp: np.ndarray  # (A, b, 1): the rows' amplitudes
    symbol: np.ndarray  # (A, b): the column of each row's symbol in [x, x0]
    ue_a: np.ndarray  # the UE rows, which are also the served links: their AP
    ue_i: np.ndarray  # and their row in it
    ue_k: np.ndarray  # their UE
    ue_links: np.ndarray  # their served link
    sense: np.ndarray  # (A,): the APs whose last row is a sensing row
    layers: list  # (UEs, rows): each UE's rows, at most one per UE in a layer


def _bank_tables(ctx: _DropContext, n_ant: int) -> _BankTables:
    """Everything an arm reads that no fading realization changes. Where some AP
    serves more than N UEs (TC/CF with K > N), the dense formula reads only the
    served links, so no batch is built."""
    k_ues, m_total = ctx.amp.shape
    serving = ctx.assignment.serving
    link_ue = np.repeat(np.arange(k_ues), [len(aps) for aps in serving])
    link_ap = np.concatenate(serving).astype(int)
    link_of = np.full((k_ues, m_total), -1)
    link_of[link_ue, link_ap] = np.arange(len(link_ue))
    sqrt_g_links = np.sqrt(ctx.gains[link_ue, link_ap])[:, None]
    n_law = len(link_ue) * n_ant
    n_served = np.array([len(served) for served in ctx.assignment.served])
    if n_served.max() > n_ant:
        return _BankTables(link_of, sqrt_g_links, n_law, n_law, None)

    # per AP: a bank row per served UE, then one for the sensing beam if the
    # AP senses (a row without power stays with a zero amplitude); an unserved
    # link's gains take min(b_m, N) normals
    sensing = ctx.assignment.pointing >= 0
    rows = n_served + sensing
    width = np.minimum(rows, n_ant)

    # AP m's unserved links take the law's normals after the served links', in
    # UE order; a served link reads the stream's first normals, and its law
    # gain is replaced by the exact one
    served = link_of >= 0
    n_off = (k_ues - n_served) * width
    starts = n_law + np.cumsum(n_off) - n_off
    slot = np.where(served, 0, starts + (np.cumsum(~served, axis=0) - 1) * width)  # (K, M)

    batches = []
    for b in np.unique(rows[rows > 0]):
        aps = np.flatnonzero(rows == b)
        is_ue = np.arange(b) < n_served[aps, None]  # (A, b)
        symbol = np.repeat(k_ues + aps[:, None], b, axis=1)  # a sensing row's is x0 of its AP
        symbol[is_ue] = np.concatenate([ctx.assignment.served[m] for m in aps])
        ue_a, ue_i = np.nonzero(is_ue)
        ue_k = symbol[ue_a, ue_i]
        batches.append(
            _BankBatch(
                aps=aps,
                slots=slot[:, aps].T[:, :, None] + np.arange(width[aps[0]]),
                scale=np.sqrt(ctx.gains[:, aps]).T[:, :, None],
                amp=np.where(is_ue, ctx.ue_amp[aps, None], ctx.sqrt_eta0[aps, None])[..., None],
                symbol=symbol,
                ue_a=ue_a,
                ue_i=ue_i,
                ue_k=ue_k,
                ue_links=link_of[ue_k, aps[ue_a]],
                sense=sensing[aps],
                layers=_layers(ue_k, ue_a * b + ue_i),
            )
        )
    return _BankTables(link_of, sqrt_g_links, n_law, n_law + int(n_off.sum()), batches)


def _bank_downlink(
    bank: _BankTables,
    h_links: np.ndarray,
    w0: np.ndarray,
    normals: np.ndarray,
    symbols: list,
) -> tuple:
    """Cross-gain powers |a|^2 (F, K, K), sensing leakage (F, K) and s_tx (J, F, M, N), in law.

    AP m's bank B_m = D_m U_m (b_m, N) holds its conjugated beams: U_m has
    the unit MF beams conj(h_km) / ||h_km|| of its served UEs in ascending
    order, then its unit sensing beam, and D_m their amplitudes. It depends
    only on the served links. A link (k, m) off the serving sets has
    h_km = sqrt(g_km) z with z ~ CN(0, I_N) independent of B_m, so its gains
    B_m h_km have the law of sqrt(g_km) D_m L_m w, with L_m the lower
    Cholesky factor of U_m U_m^H and w ~ CN(0, I_b): b_m normals instead of
    N. Where b_m >= N, w takes N normals and U_m itself stands for L_m. A
    served link's gains are exact: B_m h_km = ||h_km|| D_m (U_m U_m^H)[:, k].

    The realizations are those of ``h_links`` (F, links, N), ``w0`` (F, M, N),
    ``normals`` and of each snapshot's symbols (x (F, K), x0 (F, M)).
    ``normals`` holds the served links' N normals each, then the unserved
    links' normals AP by AP in ascending order, each AP's by UE. The banks
    are batched by size b_m, and each batch also forms its APs' transmit
    signals. The sensing row comes last, so L_m's UE rows, and every UE-beam
    gain, do not depend on the sensing beam.
    """
    n_fading, _, n_ant = h_links.shape
    k_ues, m_total = bank.link_of.shape
    h_re = h_links.view(np.float64)
    norms = np.sqrt(np.einsum("...i,...i->...", h_re, h_re))  # (F, links)
    unit = h_links.conj()
    unit /= norms[..., None]
    a = np.zeros((n_fading, k_ues, k_ues), dtype=complex)  # a[f, k, j]: UE k's beams at UE j
    leak = np.zeros((n_fading, k_ues))
    s_tx = np.zeros((len(symbols), n_fading, m_total, n_ant), dtype=complex)
    columns = [np.concatenate([x, x0], axis=1) for x, x0 in symbols]  # (F, K + M) each
    for bt in bank.batches:
        n_aps, b = bt.symbol.shape
        rows = np.empty((n_fading, n_aps, b, n_ant), dtype=complex)  # the unit rows
        rows[:, bt.ue_a, bt.ue_i] = unit[:, bt.ue_links]
        rows[:, bt.sense, -1] = w0[:, bt.aps[bt.sense]].conj()
        w = normals[:, bt.slots]  # (F, A, K, d)
        w *= bt.scale
        # every row's gain toward every UE, (F, A, b, K)
        g, gram = _law_gains(rows, bt.amp, w.swapaxes(2, 3))
        g[:, bt.ue_a, :, bt.ue_k] = (
            gram[:, bt.ue_a, :, bt.ue_i]
            * bt.amp[bt.ue_a, :, 0][:, None, :]
            * norms[:, bt.ue_links].T[..., None]
        )
        if bt.sense.any():
            leak += (np.abs(g[:, bt.sense, -1]) ** 2).sum(axis=1)
        g_rows = g.reshape(n_fading, -1, k_ues)
        for ues, ue_rows in bt.layers:  # a UE's beams from all its serving APs add up
            a[:, ues] += g_rows[:, ue_rows]
        # each AP's signal: its rows times their amplitudes and conjugated symbols,
        # summed by reduceat (sum over an axis would add them in another order)
        for s_j, x in zip(s_tx, columns):
            beams = (rows * (bt.amp * x[:, bt.symbol, None].conj())).reshape(n_fading, -1, n_ant)
            s_j[:, bt.aps] = np.add.reduceat(beams, np.arange(0, n_aps * b, b), axis=1).conj()
    return (np.abs(a) ** 2).transpose(0, 2, 1), leak, s_tx


def _layers(ues: np.ndarray, rows: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split rows into layers in which each UE appears at most once, in order."""
    order = np.argsort(ues, kind="stable")
    layer = np.empty(len(ues), dtype=int)
    layer[order] = np.arange(len(ues)) - np.searchsorted(ues[order], ues[order])
    return [(ues[layer == l], rows[layer == l]) for l in range(max(layer, default=-1) + 1)]


def _dense_downlink(ctx: _DropContext, h: np.ndarray, w0_amp: np.ndarray, symbols: list) -> tuple:
    """Cross-gain powers |a|^2 (F, K, K), sensing leakage (F, K) and s_tx (J, F, M, N).

    For drops where some AP serves more than N UEs (TC/CF with K > N), every
    transmit AP serves every UE: h (F, K, P, N) holds the channels of all
    links of the P transmit APs ``ctx.tx_all``, and dense (F, K, P, N) beams
    serve them at once. The receive APs send nothing, so their rows of s_tx
    stay zero. The realizations are those of h, w0_amp (F, M, N) and each
    snapshot's symbols (x (F, K), x0 (F, M)).
    """
    tx = ctx.tx_all
    w0_tx = w0_amp[:, tx]
    # leakage first: its temporaries and the beam tensor are never live together
    leak = kernels.sense_leakage(h, w0_tx)
    w_conj = _mf_beams(h, ctx.amp[:, tx])
    power = np.abs(kernels.cross_gains(h, w_conj)) ** 2
    s_tx = np.zeros((len(symbols), *w0_amp.shape), dtype=complex)
    for s_j, (x, x0) in zip(s_tx, symbols):
        s_p = np.conjugate(np.einsum("fkpn,fk->fpn", w_conj, x.conj(), optimize=True))
        s_p += w0_tx * x0[:, tx, None]
        s_j[:, tx] = s_p
    return power, leak, s_tx


def _detect(cfg: ExperimentConfig, ctx: _DropContext, epoch_cells, s_tx, y) -> tuple:
    """Fused statistic, rank and sensing SNR of every region's test, each (F, L).

    Every dictionary column is sqrt(g_rx g_tx) (a_tx^H s) a_rx at the inspected
    cell, so each receive AP's dictionary has rank one with basis a_rx/sqrt(N)
    and its GLRT term is |a_rx^H y|^2 / N. With u = sqrt(g_tx) (a_tx^H s), a
    test is live (rank n_rx) exactly when u != 0, and a dead one adds neither
    statistic nor rank. As ||a_rx||^2 = N, trace(D^H D R) = N (sum_m g_rx,m)
    u^T R conj(u), n_tx^2 per test. The realizations of one scan epoch inspect
    the same cells, so u and the quadratic form run once per epoch.
    """
    n_fading, n_regions = epoch_cells.shape
    tx, rx = ctx.cluster_tx, ctx.cluster_rx
    n_rx = rx.shape[1]
    rx_cells = epoch_cells[:, :, None], rx
    # (F, L, n_rx, N) each: the steering gathered and conjugated in place, and
    # the echoes gathered contiguous, which einsum would otherwise copy
    a_rx = ctx.a_cell[rx_cells]
    y_rx = np.take(y, ctx.cluster_rx_pos, axis=1)
    match = np.einsum("flmn,flmn->flm", np.conjugate(a_rx, out=a_rx), y_rx, optimize=True)
    del a_rx, y_rx
    live = np.empty((n_fading, n_regions), dtype=bool)
    quad = np.empty((n_fading, n_regions))
    for e in range(min(ctx.n_epochs, n_fading)):
        fs = slice(e, None, ctx.n_epochs)  # the realizations that inspect epoch e's cells
        tx_cells = epoch_cells[e, :, None], tx
        # a region at a time: in CF every cluster holds all transmit APs, so one
        # gather over the regions would copy their signals L times
        a_tx, s_e = ctx.a_cell[tx_cells].conj(), s_tx[fs]
        proj = np.stack([np.einsum("pn,fpn->fp", a, s_e[:, p]) for a, p in zip(a_tx, tx)], axis=1)
        u = np.sqrt(ctx.g_cell[tx_cells]) * proj  # (F / n_epochs, L, n_tx)
        live[fs] = np.any(u != 0, axis=2)
        u_r = np.matmul(u.transpose(1, 0, 2), ctx.r_cell[epoch_cells[e]])  # u^T R by region
        quad[fs] = np.einsum("lfi,fli->fl", u_r, u.conj()).real
    stat = live * (np.abs(match) ** 2).sum(axis=2) / cfg.n_antennas
    snr = ctx.g_cell[rx_cells].sum(axis=2) * quad / (n_rx * cfg.sigma_z2_w)
    return stat, live * n_rx, snr


def _target_echoes(
    ctx: _DropContext, s_tx: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Echoes of every target at every receive AP, (J, F, R, N), from s_tx (J, F, P, N).

    Swerling I: target t's reflectivities over the (rx, tx) AP pairs are
    sigma S_rx G S_tx, with S the square roots of the view-angle kernels and G
    i.i.d. CN(0, 1), one draw per realization shared by its J snapshots. The
    receive APs read them only through U = sqrt(g_tx) (a_tx^H s), (P, J), and
    G is independent of U, so G S_tx U has the law of Z Gram^{1/2} with
    Gram = U^H K_tx U (J x J) and Z (R x J) i.i.d. CN(0, 1): R J normals per
    target, and no transmit-side square root.
    """
    n_snap, n_fading, _, n_ant = s_tx.shape
    n_targets, n_rx = ctx.rx_mix.shape[:2]
    if n_targets == 0:  # the einsums below would copy s_tx for nothing
        return np.zeros((n_snap, n_fading, n_rx, n_ant), dtype=complex)
    tx = ctx.tx_all
    u = np.einsum("tpn,jfpn->tpfj", ctx.a_tgt[:, tx].conj(), s_tx, optimize=True)
    u *= ctx.sqrt_g_tgt[:, tx, None, None]
    k_u = np.matmul(ctx.k_tx, u.reshape(n_targets, len(tx), n_fading * n_snap)).reshape(u.shape)
    gram = np.einsum("tpfi,tpfj->ftij", u.conj(), k_u, optimize=True)
    z = complex_normal(rng, (n_fading, n_targets, n_rx, n_snap))
    return kernels.echo_mix(ctx.a_tgt[:, ctx.rx_all], ctx.rx_mix @ z, psd_sqrt(gram))


def _direct_path(
    cfg: ExperimentConfig, ctx: _DropContext, s_tx: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Direct AP-to-AP signal at every receive AP, (J, F, R, N), from s_tx (J, F, P, N).

    The Rician channel from transmit AP p to receive AP r is sqrt(g_pr)
    (sqrt(K/(K+1)) a_rx a_tx^H + sqrt(1/(K+1)) W_pr), with W_pr i.i.d.
    CN(0, 1), one draw per realization shared by its snapshots. The LoS part
    is summed from the two steering banks. The scattered part
    sum_p sqrt(g_pr/(K+1)) W_pr s_p has i.i.d. antenna rows, each
    CN(0, Gram_r) over the snapshots with Gram_r = sum_p g_pr/(K+1) S_p^H S_p,
    so it is drawn as Z Gram_r^{1/2} with N J normals per receive AP.
    """
    geom = ArrayGeometry(cfg.n_antennas, cfg.spacing_wavelengths)
    layout = ctx.layout
    tx_pos, rx_pos = layout.aps[ctx.tx_all], layout.aps[ctx.rx_all]
    g = _los_gains(tx_pos, rx_pos, cfg.carrier_ghz)  # (P, R): points=tx, arrays=rx
    a_rx = steering_bank(geom, rx_pos, layout.broadsides[ctx.rx_all], tx_pos)  # (P, R, N)
    a_tx = steering_bank(geom, tx_pos, layout.broadsides[ctx.tx_all], rx_pos)  # (R, P, N)
    k_lin = cfg.rician_k_linear
    los_amp = np.sqrt(g * k_lin / (k_lin + 1.0))[:, :, None] * a_rx
    los = np.einsum("prn,rpi,jfpi->jfrn", los_amp, a_tx.conj(), s_tx, optimize=True)
    gram = np.einsum("pr,ifpn,jfpn->frij", g / (k_lin + 1.0), s_tx.conj(), s_tx, optimize=True)
    n_snap, n_fading = s_tx.shape[:2]
    z = complex_normal(rng, (n_fading, len(ctx.rx_all), cfg.n_antennas, n_snap))
    return los + np.einsum("frni,frij->jfrn", z, psd_sqrt(gram), optimize=True)


def run_experiment(cfg: ExperimentConfig, label: str = "run") -> ResultSet:
    """Run every drop of one arm and aggregate them under ``label`` in lower case."""
    return run_arms({label: cfg})[label]


# --- experiment presets ------------------------------------------------------


def run_arms(arms: dict[str, ExperimentConfig]) -> dict[str, ResultSet]:
    """Check every arm's config, then run the table: each label's ResultSet.

    An empty table, a bad arm, or an arm that differs from the first in
    n_drops or in a ``_DRAW_INPUTS`` value fails before the first drop of
    any arm. Arms with equal configs run once, and each of their labels
    aggregates the shared drops in lower case. Each drop runs every
    distinct arm in one pass (``_run_table``); a table of one distinct arm
    runs each drop through ``run_drop``.
    """
    if not arms:
        raise ConfigError("the preset has no arms: its list of values is empty")
    shared = next(iter(arms.values()))  # the draw every arm of the table reads
    distinct = []  # the table's configs, each once, in table order
    for key, arm_cfg in arms.items():
        arm_cfg.validate()
        for name in ("n_drops", *_DRAW_INPUTS):
            if getattr(arm_cfg, name) != getattr(shared, name):
                raise ConfigError(f"arm {key!r} does not share the table's draw: {name} differs")
        if arm_cfg not in distinct:
            distinct.append(arm_cfg)
    drops = [[] for _ in distinct]
    for d in range(shared.n_drops):
        results = [run_drop(shared, d)] if len(distinct) == 1 else _run_table(distinct, d)
        for arm_drops, result in zip(drops, results):
            arm_drops.append(result)
    return {
        key: _aggregate(arm_cfg, key.lower(), drops[distinct.index(arm_cfg)])
        for key, arm_cfg in arms.items()
    }


def preset_mode_comparison(cfg: ExperimentConfig) -> dict[str, ExperimentConfig]:
    """The four clustering modes under common random numbers."""
    return {mode: replace(cfg, mode=mode) for mode in VALID_MODES}


def preset_rx_sweep(cfg: ExperimentConfig, rx_counts: list[int]) -> dict[str, ExperimentConfig]:
    """Vary the receive-AP count at a fixed per-region cluster size."""
    cluster_size = cfg.m_tx_per_region + cfg.m_rx_per_region
    return {
        f"rx{rx}": replace(cfg, m_rx_per_region=rx, m_tx_per_region=cluster_size - rx)
        for rx in rx_counts
    }


def preset_beamformer_comparison(
    cfg: ExperimentConfig, k_zf_values: list[int]
) -> dict[str, ExperimentConfig]:
    """Matched-filter sensing beams against partial zero-forcing variants."""
    arms = {"mf": replace(cfg, beamformer="MF")}
    arms.update({f"zf-k{k}": replace(cfg, beamformer="ZF", k_zf=k) for k in k_zf_values})
    return arms
