"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured values (run pytest with -s to stream them).

The campaign-level criteria run the real experiment presets at the baseline
network scale with 100 drops x 100 fading realizations under common random
numbers, so this module dominates the suite's runtime (about a minute on
2 cores, BLAS at one thread, which ``conftest.py`` pins). Seed 1's three preset tables run as one
campaign: each drop is drawn once, and the baseline arm that all three
tables hold runs once.
"""

import time

import numpy as np
import pytest
from scipy.stats import beta

from cfisac.channel import complex_normal, psd_sqrt, view_angle_kernel
from cfisac.clustering import build_assignment
from cfisac.config import VALID_MODES, ExperimentConfig
from cfisac.deployment import generate_layout
from cfisac.harness import (
    _S_LAYOUT,
    _S_SHADOW,
    _stream,
    preset_beamformer_comparison,
    preset_mode_comparison,
    preset_rx_sweep,
    run_arms,
    run_drop,
    ue_ap_gains,
)
from cfisac.metrics import fronthaul_load
from reference import Dictionary, build_dictionary, glrt_statistic, sensing_snr, svd_basis

BASELINE = ExperimentConfig()  # paper-scale defaults, n_drops=100, n_fading=100
BOOTSTRAP_RESAMPLES = 400


def report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}", flush=True)


def bootstrap_medians(samples: dict, resamples: int = BOOTSTRAP_RESAMPLES) -> dict:
    """Pooled median of every arm's samples under the same drop resamples.

    ``samples`` maps a label to its (D, ...) per-drop samples. Each resample
    draws D drops with replacement, the same drops for every arm (paired), and
    takes the median of the pooled samples of the drawn drops, a drop counted
    as often as it was drawn: the middle ranks of each arm's sorted samples
    weighted by their drop's count. The ranks are searched in the middle fifth
    of the sorted samples, and in all of them when they fall outside it.
    Returns label -> (resamples,) medians.
    """
    n_drops = next(iter(samples.values())).shape[0]
    counts = np.random.default_rng(0).multinomial(
        n_drops, np.full(n_drops, 1.0 / n_drops), size=resamples
    )
    medians = {}
    for label, values in samples.items():
        flat = values.reshape(n_drops, -1)
        order = np.argsort(flat, axis=None)
        ordered, drop_of = flat.ravel()[order], order // flat.shape[1]
        middle = [(flat.size - 1) // 2 + 1, flat.size // 2 + 1]  # 1-based middle ranks
        lo, hi = flat.size * 2 // 5, flat.size * 3 // 5
        below = np.bincount(drop_of[:lo], minlength=n_drops)  # each drop's samples before lo

        def median(c):
            before = below @ c
            weight = before + np.cumsum(c[drop_of[lo:hi]])
            if before < middle[0] and middle[1] <= weight[-1]:
                return ordered[lo:hi][np.searchsorted(weight, middle)].mean()
            return ordered[np.searchsorted(np.cumsum(c[drop_of]), middle)].mean()

        medians[label] = np.array([median(c) for c in counts])
    return medians


def difference(point: float, boot_a: np.ndarray, boot_b: np.ndarray, scale: float = 1.0) -> str:
    """A difference of medians with the 95% interval of its bootstrap a - b."""
    low, high = np.percentile(boot_a - boot_b, [2.5, 97.5]) / scale
    return f"{point / scale:.2f} [{low:.2f}, {high:.2f}]"


@pytest.fixture(scope="module")
def campaign():
    """Seed 1's mode, rx-sweep and beamformer tables in one runner call."""
    cfg = BASELINE.replace(seed=1)
    return run_arms(
        {
            **preset_mode_comparison(cfg),
            **preset_rx_sweep(cfg, [1, 2, 3, 4]),
            **preset_beamformer_comparison(cfg, [1, 2]),
        }
    )


@pytest.fixture(scope="module")
def mode_runs(campaign):
    runs = {1: {mode: campaign[mode] for mode in VALID_MODES}}
    for seed in (2, 3):
        runs[seed] = run_arms(preset_mode_comparison(BASELINE.replace(seed=seed)))
    return runs


def test_criterion_1_glrt_equals_projection_oracle():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        cols = complex_normal(rng, (8, 6))
        basis, sv, rank = svd_basis(cols)
        d = Dictionary(None, 0, cols, basis, sv, rank)
        y = complex_normal(rng, 8)
        stat = glrt_statistic([d], [y])
        gram = cols.conj().T @ cols
        rhs = cols.conj().T @ y
        oracle = float(np.real(rhs.conj() @ np.linalg.solve(gram, rhs)))
        worst = max(worst, abs(stat - oracle) / oracle)
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 1.0
    report(1, f"GLRT vs normal-equations worst rel err {worst:.2e} in {elapsed:.2f} s")


def test_criterion_2_false_alarm_calibration():
    # pure-H0 network (no targets anywhere): decisions are false alarms
    start = time.perf_counter()
    cfg = ExperimentConfig(t_targets=0, k_ues=4, n_drops=100, n_fading=250, seed=11)
    decisions = []
    for d in range(cfg.n_drops):
        decisions.append(run_drop(cfg, d).decisions.ravel())
    decisions = np.concatenate(decisions)
    elapsed = time.perf_counter() - start
    assert decisions.size == 100_000
    pfa = float(decisions.mean())
    assert 0.0092 <= pfa <= 0.0108
    assert elapsed < 60.0
    # Clopper-Pearson interval of the pfa, printed only: the bound above decides
    alarms, n = int(decisions.sum()), decisions.size
    low = beta.ppf(0.025, alarms, n - alarms + 1) if alarms > 0 else 0.0
    high = beta.ppf(0.975, alarms + 1, n - alarms) if alarms < n else 1.0
    report(
        2,
        f"empirical pfa {pfa:.4f} (binomial 95% interval [{low:.4f}, {high:.4f}]) "
        f"in [0.0092, 0.0108] over 1e5 inspections, {elapsed:.0f} s",
    )


def test_criterion_3_sensing_snr_closed_form_vs_monte_carlo():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        cfg = BASELINE.replace(seed=100 + seed)
        layout = generate_layout(cfg, _stream(cfg, 0, _S_LAYOUT))
        gains = ue_ap_gains(layout, cfg, _stream(cfg, 0, _S_SHADOW))
        assignment = build_assignment(layout, gains, cfg)
        tx_c, rx_c = assignment.sensing_clusters[seed % 4]
        cell = layout.regions[seed % 4].cells[seed]
        rng = np.random.default_rng(200 + seed)
        tx_signals = {int(m): complex_normal(rng, 8) for m in tx_c}
        from cfisac.channel import ArrayGeometry

        geom = ArrayGeometry(8, 0.5)
        dicts = [
            build_dictionary(cell, int(m), [int(x) for x in tx_c], layout, tx_signals, geom, 2.0)
            for m in rx_c
        ]
        r_mat = cfg.sigma_rcs2_m2 * view_angle_kernel(
            cell.center, layout.aps[tx_c], cfg.angular_corr_rad
        )
        sigma2 = cfg.sigma_z2_w
        closed = sensing_snr(dicts, [r_mat] * len(dicts), sigma2)
        root = psd_sqrt(r_mat)
        n_draws = 100_000
        echo = 0.0
        for d in dicts:
            alphas = root @ complex_normal(rng, (len(tx_c), n_draws))
            echo += float(np.mean((np.abs(d.columns @ alphas) ** 2).sum(axis=0)))
        mc = echo / (len(dicts) * 8 * sigma2)
        worst = max(worst, abs(closed - mc) / mc)
    elapsed = time.perf_counter() - start
    assert worst < 0.02
    assert elapsed < 60.0
    report(3, f"Eq-form vs MC sensing SNR worst rel err {worst:.3f} over 5 geometries, {elapsed:.0f} s")


def test_criterion_4_mode_ordering(mode_runs):
    seeds_ok = 0
    details = []
    for seed, arms in mode_runs.items():
        rate = {m: arms[m].median_rate() for m in arms}
        snr = {m: arms[m].median_snr_db() for m in arms}
        ok = (
            rate["UTC"] > rate["CF"]
            and snr["UTC"] > snr["CF"]
            and snr["UC"] >= snr["TC"]
        )
        seeds_ok += int(ok)
        # the compared differences with their paired drop-bootstrap intervals, printed only
        boot_rate = bootstrap_medians({m: arms[m].rates_bps for m in ("UTC", "CF")})
        boot_snr = bootstrap_medians({m: arms[m].sensing_snr_db for m in VALID_MODES})
        details.append(
            f"seed {seed}: rate UTC {rate['UTC'] / 1e6:.1f} vs CF {rate['CF'] / 1e6:.1f} Mbps "
            f"(UTC-CF {difference(rate['UTC'] - rate['CF'], boot_rate['UTC'], boot_rate['CF'], 1e6)}), "
            f"snr UTC {snr['UTC']:.2f} vs CF {snr['CF']:.2f} dB "
            f"(UTC-CF {difference(snr['UTC'] - snr['CF'], boot_snr['UTC'], boot_snr['CF'])}), "
            f"UC {snr['UC']:.2f} vs TC {snr['TC']:.2f} dB "
            f"(UC-TC {difference(snr['UC'] - snr['TC'], boot_snr['UC'], boot_snr['TC'])}) "
            f"-> {'ok' if ok else 'FAIL'}"
        )
    assert seeds_ok >= 2, "\n".join(details)
    report(
        4,
        f"mode orderings hold on {seeds_ok}/3 seeds; "
        + "; ".join(details)
        + f"; paired drop-bootstrap 95% intervals, {BOOTSTRAP_RESAMPLES} resamples",
    )


def _nonincreasing_with_one_soft_tie(values, tolerance=0.02):
    violations = 0
    for prev, nxt in zip(values, values[1:]):
        if nxt > prev:
            if nxt > prev * (1.0 + tolerance):
                return False
            violations += 1
    return violations <= 1


def test_criterion_5_rx_sweep_monotonicity(campaign):
    labels = [f"rx{n}" for n in (1, 2, 3, 4)]
    rates = [campaign[l].median_rate() for l in labels]
    snrs_lin = [10 ** (campaign[l].median_snr_db() / 10.0) for l in labels]
    assert _nonincreasing_with_one_soft_tie(rates), rates
    assert _nonincreasing_with_one_soft_tie(snrs_lin), snrs_lin
    # the compared steps with their paired drop-bootstrap intervals, printed only
    snrs = [campaign[l].median_snr_db() for l in labels]
    boot_rate = bootstrap_medians({l: campaign[l].rates_bps for l in labels})
    boot_snr = bootstrap_medians({l: campaign[l].sensing_snr_db for l in labels})
    steps = list(zip(labels, labels[1:], rates, rates[1:], snrs, snrs[1:]))
    report(
        5,
        "medians nonincreasing in rx count: rates "
        + ", ".join(f"{r / 1e6:.1f}" for r in rates)
        + " Mbps; snr "
        + ", ".join(f"{snr:.2f}" for snr in snrs)
        + f" dB; steps with paired drop-bootstrap 95% intervals ({BOOTSTRAP_RESAMPLES} "
        + "resamples): rate "
        + ", ".join(
            f"{a}-{b} " + difference(ra - rb, boot_rate[a], boot_rate[b], 1e6)
            for a, b, ra, rb, _, _ in steps
        )
        + " Mbps; snr "
        + ", ".join(
            f"{a}-{b} " + difference(sa - sb, boot_snr[a], boot_snr[b])
            for a, b, _, _, sa, sb in steps
        )
        + " dB",
    )


def test_criterion_6_beamformer_comparison(campaign):
    mf = campaign["mf"]
    for k_zf in (1, 2):
        zf = campaign[f"zf-k{k_zf}"]
        assert zf.median_rate() >= mf.median_rate(), k_zf
        assert zf.median_snr_db() >= mf.median_snr_db() - 1.0, k_zf
    # ZF minus MF with its paired drop-bootstrap interval, printed only
    labels = ["mf", "zf-k1", "zf-k2"]
    boot_rate = bootstrap_medians({l: campaign[l].rates_bps for l in labels})
    boot_snr = bootstrap_medians({l: campaign[l].sensing_snr_db for l in labels})

    def versus_mf(k):
        label = f"zf-k{k}"
        zf = campaign[label]
        rate = zf.median_rate() - mf.median_rate()
        snr = zf.median_snr_db() - mf.median_snr_db()
        return (
            f"ZF k={k} rate {zf.median_rate() / 1e6:.1f} Mbps "
            f"(ZF-MF {difference(rate, boot_rate[label], boot_rate['mf'], 1e6)}) "
            f"/ snr {zf.median_snr_db():.2f} dB "
            f"(ZF-MF {difference(snr, boot_snr[label], boot_snr['mf'])})"
        )

    report(
        6,
        f"MF rate {mf.median_rate() / 1e6:.1f} Mbps / snr {mf.median_snr_db():.2f} dB; "
        + "; ".join(versus_mf(k) for k in (1, 2))
        + f"; paired drop-bootstrap 95% intervals, {BOOTSTRAP_RESAMPLES} resamples",
    )


def test_criterion_7_power_conservation(mode_runs, campaign):
    # seed 1's mode arms are in the campaign, which also holds the rx and
    # beamformer arms
    runs = [*campaign.values(), *mode_runs[2].values(), *mode_runs[3].values()]
    worst = max(rs.diagnostics.power_dev_max for rs in runs)
    assert worst <= 1e-12
    report(7, f"max per-AP budget deviation {worst:.2e} W across {len(runs)} full arms")


def test_criterion_8_zf_nulling(campaign):
    for k_zf in (1, 2):
        diag = campaign[f"zf-k{k_zf}"].diagnostics
        assert diag.zf_beams > 0
        assert diag.zf_leakage_max < 1e-9
        assert diag.zf_fallbacks / diag.zf_beams < 0.001
    diag = campaign["zf-k2"].diagnostics
    report(
        8,
        f"max annulled-UE leakage {diag.zf_leakage_max:.2e}, "
        f"fallbacks {diag.zf_fallbacks}/{diag.zf_beams}",
    )


def test_criterion_9_scalability_accounting():
    start = time.perf_counter()
    stats = {}
    for m_aps in (64, 128, 256):
        cfg = ExperimentConfig(
            m_aps=m_aps, k_ues=m_aps // 2, l_regions=m_aps // 16, t_targets=0, mode="UTC", seed=1
        )
        max_served = 0
        max_membership = 0
        max_fronthaul = 0
        mean_load = []
        for drop in range(10):
            layout = generate_layout(cfg, _stream(cfg, drop, _S_LAYOUT))
            gains = ue_ap_gains(layout, cfg, _stream(cfg, drop, _S_SHADOW))
            assignment = build_assignment(layout, gains, cfg)
            membership = np.zeros(m_aps, dtype=int)
            for tx_c, rx_c in assignment.sensing_clusters:
                membership[tx_c] += 1
                membership[rx_c] += 1
            max_membership = max(max_membership, int(membership.max()))
            max_fronthaul = max(max_fronthaul, fronthaul_load(assignment).max_load)
            served = [len(assignment.served[m]) for m in assignment.tx_aps]
            max_served = max(max_served, max(served))
            mean_load.append(np.sum(served) / len(assignment.tx_aps))
        assert max_served <= cfg.n_antennas
        stats[m_aps] = (max_served, max_membership, max_fronthaul, float(np.mean(mean_load)))
    elapsed = time.perf_counter() - start
    base = stats[64]
    for m_aps in (128, 256):
        grown = stats[m_aps]
        # structural quantities are exactly constant; the served-UE load keeps
        # a fixed mean, and its max is bounded because association caps each
        # AP at n_antennas UEs
        assert grown[1] == base[1] == 1
        assert grown[2] == base[2] == 1
        assert grown[0] <= base[0] + 1
        assert grown[3] == pytest.approx(base[3], rel=1e-12)
    assert elapsed < 60.0
    report(
        9,
        f"per-AP loads at M=64/128/256: served max {[stats[m][0] for m in (64, 128, 256)]}, "
        f"cluster membership max {[stats[m][1] for m in (64, 128, 256)]}, "
        f"fronthaul max {[stats[m][2] for m in (64, 128, 256)]}, {elapsed:.0f} s",
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    from cfisac.cli import main

    cfg_path = tmp_path / "repro.cfg"
    cfg_path.write_text(BASELINE.replace(n_drops=2, n_fading=3, seed=17).to_text())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    report(10, f"two identical runs produced byte-identical outputs ({len(names)} files)")
