"""Monte Carlo campaign: drops x fading realizations x scan epochs.

Each drop redraws all positions, builds the cluster assignment once, then
sweeps ``n_fading`` coherence intervals. One scan epoch elapses per fading
realization. All per-interval math is batched over the fading axis and the
reductions run through :mod:`cfisac.kernels`.

Random streams are derived from (seed, drop, purpose[, entity]) tuples, so
drops are order-independent and experiment arms that share a seed see
identical layouts, shadowing and fading draws (common random numbers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional

import numpy as np

from . import kernels
from .channel import (
    ArrayGeometry,
    complex_normal,
    draw_correlated_rcs_factored,
    linear_gain,
    pathloss_db,
    psd_sqrt,
    steering_bank,
    view_angle_kernel,
)
from .clustering import ClusterAssignment, build_assignment, check_serving_cap
from .config import ConfigError, ExperimentConfig, VALID_MODES
from .deployment import NetworkLayout, ScanSchedule, build_scan_schedule, generate_layout
from .metrics import FronthaulLoad, detection_rates, empirical_cdf, fronthaul_load
from .precoding import ZF_FALLBACK_TOL, allocate_power
from .sensing import calibrate_threshold

# purposes of the per-drop random substreams
_S_LAYOUT, _S_SHADOW, _S_SCHED, _S_FADING, _S_SYMBOL, _S_NOISE, _S_RCS, _S_DIRECT = range(8)


def _stream(cfg: ExperimentConfig, drop: int, purpose: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, drop, purpose, *extra])


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


@dataclass
class DropDiagnostics:
    power_dev_max: float = 0.0
    zf_leakage_max: float = 0.0
    zf_fallbacks: int = 0
    zf_beams: int = 0

    def merge(self, other: "DropDiagnostics") -> "DropDiagnostics":
        return DropDiagnostics(
            power_dev_max=max(self.power_dev_max, other.power_dev_max),
            zf_leakage_max=max(self.zf_leakage_max, other.zf_leakage_max),
            zf_fallbacks=self.zf_fallbacks + other.zf_fallbacks,
            zf_beams=self.zf_beams + other.zf_beams,
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

    def rate_cdf(self):
        return empirical_cdf(self.rates_bps.ravel())

    def snr_cdf(self):
        return empirical_cdf(self.sensing_snr_db.ravel())

    def detection(self):
        return detection_rates(self.decisions.ravel(), self.truths.ravel())

    def median_rate(self) -> float:
        return float(np.median(self.rates_bps))

    def median_snr_db(self) -> float:
        return float(np.median(self.sensing_snr_db))

    def sample_rows(self) -> Iterable[tuple[int, int, str, float]]:
        """Flatten to (drop, entity, metric, value) rows in a fixed order."""
        n_drops = self.rates_bps.shape[0]
        for d in range(n_drops):
            for f in range(self.rates_bps.shape[1]):
                for k in range(self.rates_bps.shape[2]):
                    yield d, k, "rate_bps", self.rates_bps[d, f, k]
            for name, arr in (
                ("sensing_snr_db", self.sensing_snr_db),
                ("statistic", self.statistics),
                ("decision", self.decisions),
            ):
                for f in range(arr.shape[1]):
                    for l in range(arr.shape[2]):
                        yield d, l, name, float(arr[d, f, l])

    def detection_rows(self) -> Iterable[tuple]:
        for d in range(self.statistics.shape[0]):
            for f in range(self.statistics.shape[1]):
                for l in range(self.statistics.shape[2]):
                    yield (
                        d,
                        f,
                        l,
                        self.statistics[d, f, l],
                        self.thresholds[d, f, l],
                        int(self.decisions[d, f, l]),
                        int(self.truths[d, f, l]),
                        self.sensing_snr_db[d, f, l],
                    )


class _DropContext:
    """Per-drop precomputed geometry, gains and bookkeeping."""

    def __init__(
        self,
        cfg: ExperimentConfig,
        layout: NetworkLayout,
        assignment: ClusterAssignment,
        schedule: ScanSchedule,
        gains: np.ndarray,
    ):
        self.cfg = cfg
        self.layout = layout
        self.assignment = assignment
        self.schedule = schedule
        geom = ArrayGeometry(cfg.n_antennas, cfg.spacing_wavelengths)
        f_ghz = cfg.carrier_ghz

        # flat cell table: per-region offsets into the concatenated cell list
        offsets = []
        centers = []
        total = 0
        for region in layout.regions:
            offsets.append(total)
            total += len(region.cells)
            centers.extend(c.center for c in region.cells)
        self.cell_offsets = offsets
        self.cell_centers = np.array(centers)
        self.n_epochs = schedule.n_epochs

        # schedule in global cell ids: (n_epochs, L)
        self.cell_of = schedule.epochs + np.array(offsets)[None, :]

        # AP-side banks toward every cell center and every true target
        self.a_cell = steering_bank(geom, layout.aps, layout.broadsides, self.cell_centers)
        self.g_cell = _los_gains(self.cell_centers, layout.aps, f_ghz)
        if len(layout.targets):
            self.a_tgt = steering_bank(geom, layout.aps, layout.broadsides, layout.targets)
            self.sqrt_g_tgt = np.sqrt(_los_gains(layout.targets, layout.aps, f_ghz))
        else:
            self.a_tgt = np.zeros((0, cfg.m_aps, cfg.n_antennas), dtype=complex)
            self.sqrt_g_tgt = np.zeros((0, cfg.m_aps))

        # ground truth per cell: a target footprint inside the cell bounds
        truth = np.zeros(total, dtype=bool)
        for t, l in enumerate(layout.target_regions):
            region = layout.regions[l]
            for ci, cell in enumerate(region.cells):
                if cell.contains_xy(layout.targets[t, 0], layout.targets[t, 1]):
                    truth[offsets[l] + ci] = True
        self.truth_cell = truth

        # RCS mixing: product-kernel square roots over the global rx/tx sets
        self.rx_all = np.asarray(assignment.rx_aps, dtype=int)
        self.tx_all = np.asarray(assignment.tx_aps, dtype=int)
        corr = cfg.angular_corr_rad
        self.s_rx_sqrt = []
        self.s_tx_sqrt = []
        for t in range(len(layout.targets)):
            self.s_rx_sqrt.append(
                psd_sqrt(view_angle_kernel(layout.targets[t], layout.aps[self.rx_all], corr))
            )
            self.s_tx_sqrt.append(
                psd_sqrt(view_angle_kernel(layout.targets[t], layout.aps[self.tx_all], corr))
            )

        # cluster membership resolved to positions inside rx_all/tx_all
        self.cluster_tx = []
        self.cluster_rx = []
        self.cluster_tx_pos = []
        self.cluster_rx_pos = []
        for tx_c, rx_c in assignment.sensing_clusters:
            tx_c = np.asarray(tx_c, dtype=int)
            rx_c = np.asarray(rx_c, dtype=int)
            self.cluster_tx.append(tx_c)
            self.cluster_rx.append(rx_c)
            self.cluster_tx_pos.append(np.searchsorted(self.tx_all, tx_c))
            self.cluster_rx_pos.append(np.searchsorted(self.rx_all, rx_c))

        # hypothesized reflectivity covariance per cell (cluster tx APs)
        self.r_cell = [None] * total
        self.r_region = []
        for l, region in enumerate(layout.regions):
            tx_c = self.cluster_tx[l]
            for ci in range(len(region.cells)):
                cid = offsets[l] + ci
                self.r_cell[cid] = cfg.sigma_rcs2_m2 * view_angle_kernel(
                    self.cell_centers[cid], layout.aps[tx_c], corr
                )
            self.r_region.append(
                np.stack([self.r_cell[offsets[l] + ci] for ci in range(len(region.cells))])
            )

        # per-AP power split; the sensing beam absorbs the rounding residual
        m_total = cfg.m_aps
        self.n_served = np.array([len(assignment.served[m]) for m in range(m_total)])
        self.sensing_flag = assignment.pointing >= 0
        self.ue_share = np.zeros(m_total)
        self.eta0 = np.zeros(m_total)
        for m in range(m_total):
            self.ue_share[m], self.eta0[m] = allocate_power(
                cfg.p_max_w,
                int(self.n_served[m]),
                bool(self.sensing_flag[m]),
                rho=cfg.sensing_power_fraction,
            )

        self.amp = np.zeros((cfg.k_ues, m_total))
        for k, aps in enumerate(assignment.serving):
            self.amp[k, aps] = np.sqrt(self.ue_share[aps])
        self.sqrt_eta0 = np.sqrt(self.eta0)

        self.sensing_tx = np.flatnonzero(self.sensing_flag)

        # strongest served UEs per sensing AP, the ZF annulment order
        self.annul = {}
        if cfg.beamformer == "ZF" and cfg.k_zf > 0:
            for m in self.sensing_tx:
                served = assignment.served[m]
                if len(served) == 0:
                    self.annul[int(m)] = np.zeros(0, dtype=int)
                    continue
                order = np.lexsort((served, -gains[served, m]))
                n_null = min(cfg.k_zf, len(served), cfg.n_antennas - 1)
                self.annul[int(m)] = served[order[:n_null]]

        self.power_dev_max = 0.0
        active = (self.n_served > 0) | self.sensing_flag
        budget = self.n_served * self.ue_share + self.eta0
        if np.any(active):
            self.power_dev_max = float(np.max(np.abs(budget[active] - cfg.p_max_w)))


def _sense_beams(
    ctx: _DropContext, h: np.ndarray, epoch_cells: np.ndarray
) -> tuple[np.ndarray, DropDiagnostics]:
    """Sensing beams of every sensing AP for every fading realization.

    MF beams are the cell-center steering vectors; ZF beams additionally
    project out the annulled served-UE channels (QR basis) before
    renormalizing, falling back to MF when the projection vanishes.
    """
    cfg = ctx.cfg
    n_fading, _, m_total, n_ant = h.shape
    w0 = np.zeros((n_fading, m_total, n_ant), dtype=complex)
    diag = DropDiagnostics(power_dev_max=ctx.power_dev_max)
    inv_sqrt_n = 1.0 / math.sqrt(n_ant)
    for l in range(len(ctx.cluster_tx)):
        members = [int(m) for m in ctx.sensing_tx if ctx.assignment.pointing[m] == l]
        if not members:
            continue
        cells_l = epoch_cells[:, l]
        a_mf = ctx.a_cell[cells_l][:, members]  # (F, n_m, N) cell-matched steering
        zf_members = [
            (i, m)
            for i, m in enumerate(members)
            if ctx.annul.get(m, np.zeros(0, dtype=int)).size > 0
        ]
        w0[:, members] = a_mf * inv_sqrt_n
        if not zf_members:
            continue
        for i, m in zf_members:
            annul = ctx.annul[m]
            diag.zf_beams += n_fading
            a = a_mf[:, i]  # (F, N)
            h_ann = h[:, annul, m, :]  # (F, a, N)
            basis = np.linalg.qr(h_ann.swapaxes(1, 2))[0]  # (F, N, a)
            w = a - np.einsum(
                "fna,fa->fn", basis, np.einsum("fna,fn->fa", basis.conj(), a), optimize=True
            )
            norms = np.linalg.norm(w, axis=1)
            fallback = norms <= ZF_FALLBACK_TOL * math.sqrt(n_ant)
            diag.zf_fallbacks += int(fallback.sum())
            w = np.where(
                fallback[:, None], a * inv_sqrt_n, w / np.maximum(norms, 1e-300)[:, None]
            )
            w0[:, m] = w
            ok = ~fallback
            if ok.any():
                leak = np.abs(
                    np.einsum("fan,fn->fa", h_ann[ok].conj(), w[ok], optimize=True)
                )
                diag.zf_leakage_max = max(diag.zf_leakage_max, float(leak.max()))
    return w0, diag


def _comm_beams(h: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """Power-scaled MF beams h / ||h|| * amp, zero off the serving sets.

    Norms are taken only on the served (k, m) links. The complex result is
    written once, through two real products on its float64 view: 1/||h||
    (bitwise the same as dividing by ||h||), then amp.
    """
    n_fading, k_ues, m_total, n_ant = h.shape
    served = np.flatnonzero(amp)  # flat (k, m) indices
    h_served = np.take(h.reshape(n_fading, k_ues * m_total, n_ant), served, axis=1)
    inv_norm = np.zeros((n_fading, k_ues * m_total))
    inv_norm[:, served] = 1.0 / np.linalg.norm(h_served, axis=2)
    w_amp = np.empty_like(h)
    w_view = w_amp.view(np.float64)
    np.multiply(h.view(np.float64), inv_norm.reshape(n_fading, k_ues, m_total, 1), out=w_view)
    w_view *= amp[:, :, None]
    return w_amp


def run_drop(cfg: ExperimentConfig, drop_index: int) -> DropResult:
    """Simulate one drop: layout, clustering, then the batched fading sweep."""
    cfg.validate()
    layout = generate_layout(cfg, _stream(cfg, drop_index, _S_LAYOUT))
    gains = ue_ap_gains(layout, cfg, _stream(cfg, drop_index, _S_SHADOW))
    assignment = build_assignment(layout, gains, cfg)
    schedule = build_scan_schedule(layout.regions, _stream(cfg, drop_index, _S_SCHED))
    ctx = _DropContext(cfg, layout, assignment, schedule, gains)

    n_fading, k_ues, m_total, n_ant = cfg.n_fading, cfg.k_ues, cfg.m_aps, cfg.n_antennas
    n_regions = cfg.l_regions
    n_targets = len(layout.targets)
    sigma2 = cfg.sigma_z2_w

    h = complex_normal(_stream(cfg, drop_index, _S_FADING), (n_fading, k_ues, m_total, n_ant))
    h *= np.sqrt(gains)[:, :, None]
    w_amp = _comm_beams(h, ctx.amp)

    # one scan epoch per fading realization, cycling through the sweep
    epoch_cells = ctx.cell_of[np.arange(n_fading) % ctx.n_epochs]  # (F, L) global ids

    w0, diagnostics = _sense_beams(ctx, h, epoch_cells)

    # Swerling-I reflectivities: constant over the coherence interval,
    # drawn jointly over all (rx, tx) pairs through the angular kernel
    n_rx_all, n_tx_all = len(ctx.rx_all), len(ctx.tx_all)
    ab = np.zeros((n_fading, n_targets, n_rx_all, n_tx_all), dtype=complex)
    for t in range(n_targets):
        alpha = draw_correlated_rcs_factored(
            ctx.s_rx_sqrt[t],
            ctx.s_tx_sqrt[t],
            cfg.sigma_rcs2_m2,
            _stream(cfg, drop_index, _S_RCS, t),
            n_fading,
        )
        amp2 = ctx.sqrt_g_tgt[t, ctx.rx_all][:, None] * ctx.sqrt_g_tgt[t, ctx.tx_all][None, :]
        ab[:, t] = alpha * amp2[None, :, :]

    symbol_rng = _stream(cfg, drop_index, _S_SYMBOL)
    noise_rng = _stream(cfg, drop_index, _S_NOISE)

    direct = None
    if cfg.direct_residual > 0.0:
        direct = _direct_channel_bank(cfg, ctx, drop_index)

    # communication side is snapshot-independent: SINR uses beams and powers
    a_mat = kernels.cross_gains(h, w_amp)
    w0_amp = ctx.sqrt_eta0[None, :, None] * w0
    leak = kernels.sense_leakage(h, w0_amp)
    diag_gain = np.abs(np.einsum("fkk->fk", a_mat)) ** 2
    interference = (np.abs(a_mat) ** 2).sum(axis=2) - diag_gain
    sinr = diag_gain / (interference + leak + sigma2)
    rates = cfg.bandwidth_hz * np.log2(1.0 + sinr)

    stat = np.zeros((n_fading, n_regions))
    snr_lin = np.zeros((n_fading, n_regions))
    ranks = np.zeros((n_fading, n_regions), dtype=int)
    for _ in range(cfg.n_snapshots):
        x = np.exp(2j * np.pi * symbol_rng.random((n_fading, k_ues)))
        x0 = np.exp(2j * np.pi * symbol_rng.random((n_fading, m_total)))
        noise = math.sqrt(sigma2) * complex_normal(noise_rng, (n_fading, m_total, n_ant))

        s_tx = np.einsum("fkmn,fk->fmn", w_amp, x, optimize=True)
        s_tx += (ctx.sqrt_eta0[None, :, None] * w0) * x0[:, :, None]

        if n_targets:
            c = np.einsum(
                "tpn,fpn->ftp", ctx.a_tgt[:, ctx.tx_all].conj(), s_tx[:, ctx.tx_all], optimize=True
            )
            echo = kernels.echo_mix(ctx.a_tgt[:, ctx.rx_all], ab, c)
        else:
            echo = np.zeros((n_fading, n_rx_all, n_ant), dtype=complex)
        y = echo + noise[:, ctx.rx_all]
        if direct is not None:
            y = y + cfg.direct_residual * np.einsum(
                "fprni,fpi->frn", direct, s_tx[:, ctx.tx_all], optimize=True
            )

        for l in range(n_regions):
            _detect_region(cfg, ctx, l, epoch_cells[:, l], s_tx, y, stat, snr_lin, ranks)

    snr_lin /= cfg.n_snapshots
    thresholds = _threshold_table(ranks, sigma2, cfg.pfa_target)
    decisions = stat > thresholds
    truths = ctx.truth_cell[epoch_cells]

    return DropResult(
        drop_index=drop_index,
        rates_bps=rates,
        sensing_snr_db=10.0 * np.log10(np.maximum(snr_lin, 1e-300)),
        statistics=stat,
        thresholds=thresholds,
        decisions=decisions,
        truths=truths,
        fronthaul=fronthaul_load(assignment),
        diagnostics=diagnostics,
        layout=layout,
        assignment=assignment,
    )


def _detect_region(cfg, ctx, l, cells_l, s_tx, y, stat, snr_lin, ranks):
    """Accumulate the fused statistic / SNR / rank of one region's tests.

    Every dictionary column is sqrt(beta) (a_tx^H s) a_rx at the inspected
    cell, so each receive AP's dictionary has rank one with basis a_rx/sqrt(N)
    and its GLRT term is |a_rx^H y|^2 / N. An all-zero dictionary adds neither
    statistic nor rank.
    """
    tx_c = ctx.cluster_tx[l]
    rx_c = ctx.cluster_rx[l]
    n_rx = len(rx_c)
    n_ant = cfg.n_antennas
    cells = cells_l[:, None]
    a_tx_f = ctx.a_cell[cells, tx_c]  # (F, n_tx, N)
    a_rx_f = ctx.a_cell[cells, rx_c]  # (F, n_rx, N)
    proj = np.einsum("fpn,fpn->fp", a_tx_f.conj(), s_tx[:, tx_c], optimize=True)
    g_f = ctx.g_cell[cells_l]  # (F, M)
    sqrt_betas = np.sqrt(g_f[:, rx_c, None] * g_f[:, None, tx_c])  # (F, n_rx, n_tx)
    coef = sqrt_betas * proj[:, None, :]
    keep = np.any(coef != 0, axis=2)  # (F, n_rx)
    match = np.einsum("fmn,fmn->fm", a_rx_f.conj(), y[:, ctx.cluster_rx_pos[l]], optimize=True)
    stat[:, l] += ((np.abs(match) ** 2) * keep).sum(axis=1) / n_ant
    ranks[:, l] += keep.sum(axis=1)
    # trace(D^H D R) with the shared rank-one factor: ||a_rx||^2 = N exactly
    r_f = ctx.r_region[l][cells_l - ctx.cell_offsets[l]]  # (F, n_tx, n_tx)
    quad = np.einsum("fmi,fij,fmj->f", coef, r_f, coef.conj(), optimize=True).real
    snr_lin[:, l] += n_ant * quad / (n_rx * n_ant * cfg.sigma_z2_w)


def _threshold_table(ranks: np.ndarray, sigma2: float, pfa: float) -> np.ndarray:
    thresholds = np.zeros_like(ranks, dtype=float)
    for r in np.unique(ranks):
        thresholds[ranks == r] = calibrate_threshold(max(int(r), 1), sigma2, pfa)
    return thresholds


def _direct_channel_bank(cfg: ExperimentConfig, ctx: _DropContext, drop_index: int) -> np.ndarray:
    """Rician direct AP-to-AP channels for the residual-subtraction experiments."""
    geom = ArrayGeometry(cfg.n_antennas, cfg.spacing_wavelengths)
    layout = ctx.layout
    tx_pos = layout.aps[ctx.tx_all]
    rx_pos = layout.aps[ctx.rx_all]
    g = _los_gains(tx_pos, rx_pos, cfg.carrier_ghz)  # (n_tx, n_rx): points=tx, arrays=rx
    a_rx = steering_bank(
        geom, layout.aps[ctx.rx_all], layout.broadsides[ctx.rx_all], tx_pos
    )  # (n_tx, n_rx, N): rx arrays looking at tx points
    a_tx = steering_bank(
        geom, layout.aps[ctx.tx_all], layout.broadsides[ctx.tx_all], rx_pos
    )  # (n_rx, n_tx, N)
    los = a_rx[:, :, :, None] * a_tx.transpose(1, 0, 2).conj()[:, :, None, :]  # (n_tx, n_rx, N, N)
    k_lin = cfg.rician_k_linear
    w = complex_normal(
        _stream(cfg, drop_index, _S_DIRECT),
        (cfg.n_fading, len(ctx.tx_all), len(ctx.rx_all), cfg.n_antennas, cfg.n_antennas),
    )
    scale = np.sqrt(g)[None, :, :, None, None]
    return scale * (
        math.sqrt(k_lin / (k_lin + 1.0)) * los[None] + math.sqrt(1.0 / (k_lin + 1.0)) * w
    )


def run_experiment(cfg: ExperimentConfig, label: str = "run") -> ResultSet:
    """Run every drop sequentially and aggregate into a ResultSet."""
    cfg.validate()
    check_serving_cap(cfg)
    drops = [run_drop(cfg, d) for d in range(cfg.n_drops)]
    return _aggregate(cfg, label, drops)


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


# --- experiment presets ------------------------------------------------------


def preset_mode_comparison(cfg: ExperimentConfig) -> dict[str, ResultSet]:
    """The four clustering modes under common random numbers."""
    return {
        mode: run_experiment(replace(cfg, mode=mode), label=mode.lower()) for mode in VALID_MODES
    }


def preset_rx_sweep(cfg: ExperimentConfig, rx_counts: list[int]) -> dict[str, ResultSet]:
    """Vary the receive-AP count at a fixed per-region cluster size."""
    cluster_size = cfg.m_tx_per_region + cfg.m_rx_per_region
    arms = {}
    for rx in rx_counts:
        if rx < 1:
            raise ConfigError("receive-AP counts must be >= 1")
        if rx >= cluster_size:
            raise ConfigError(
                f"rx={rx} leaves no transmit AP in a cluster of size {cluster_size}"
            )
        arm_cfg = replace(cfg, m_rx_per_region=rx, m_tx_per_region=cluster_size - rx)
        arms[f"rx{rx}"] = run_experiment(arm_cfg, label=f"rx{rx}")
    return arms


def preset_beamformer_comparison(
    cfg: ExperimentConfig, k_zf_values: list[int]
) -> dict[str, ResultSet]:
    """Matched-filter sensing beams against partial zero-forcing variants."""
    for k_zf in k_zf_values:
        if not 0 <= k_zf <= cfg.n_antennas - 1:
            raise ConfigError(f"k_zf={k_zf} must lie in [0, {cfg.n_antennas - 1}]")
    arms = {"mf": run_experiment(replace(cfg, beamformer="MF"), label="mf")}
    for k_zf in k_zf_values:
        arm_cfg = replace(cfg, beamformer="ZF", k_zf=k_zf)
        arms[f"zf-k{k_zf}"] = run_experiment(arm_cfg, label=f"zf-k{k_zf}")
    return arms
