"""Drop-throughput benchmark of the cfisac batched engine.

Run from the repository root:

    python3 perfbench/run.py --workload utc-mf --seed 1 --seconds 35 --trace 0

Each workload is one ``cfisac run`` arm called in-process through
``cfisac.cli.main``, in a closed loop: the next arm of ARM_DROPS drops starts
only when the previous one has finished and its output has been checked.
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced arms and reports the per-module metrics.
The last line of standard output is one JSON object. perfbench/README.md
explains the workloads, the metrics and the seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from tracer import ALL_POINTS, RUN_DROP, Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "baseline.cfg"
OUT = Path(__file__).resolve().parent / "out"

# Input size: configs/baseline.cfg, 64 APs x 8 antennas, 32 UEs, 4 regions,
# 100 fading realizations per drop. Only the overrides below differ.
WORKLOADS = {
    "utc-mf": {},
    "cf-mf": {"mode": "CF"},
    "utc-zf2": {"beamformer": "ZF", "k_zf": "2"},
}
DEFAULT_SEED = 1  # baselines; seed 7 is the held-out seed for checking a claim (README.md)

ARM_DROPS = 10
MIN_ABOVE_P90 = 10  # drops that must lie above drop_s_p90
MAX_MEASURE_S = 140.0  # stop measuring here whatever else holds, to end within 180 s
POWER_DEV_TOL = 1e-9
# One thread gives the same drop wall time as two on a 2-vCPU box and does not
# collapse when another process competes for the cores (see README.md).
BLAS_THREADS = 1
# simulated statistics from summary.txt: reported beside the digest, never gated
INFO_KEYS = ("median_rate_bps", "median_sensing_snr_db", "pd", "pfa")

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import cfisac, cfisac.cli
from cfisac.config import apply_overrides, load_config
cfg = dict(a.split("=", 1) for a in sys.argv[3:])
apply_overrides(load_config(sys.argv[2]), cfg).validate()
elapsed = time.perf_counter() - t0
if not cfisac.__file__.startswith(sys.argv[1]):
    sys.exit("cfisac was not imported from " + sys.argv[1])
print(repr(elapsed))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (program or input missing)."""


@dataclass
class Arm:
    traced: bool
    wall_s: float = 0.0
    digest: str = ""
    summary: str = ""
    problems: list[str] = field(default_factory=list)
    drop_s: list[float] = field(default_factory=list)
    drop_counts: list[dict] = field(default_factory=list)
    failed_drops: int = 0
    recorder: Recorder = field(default_factory=Recorder)


def pin_blas_threads() -> int:
    """Pin every BLAS/OpenMP pool to BLAS_THREADS, within the cores this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    return nproc


def measure_setup(overrides: dict) -> float:
    """Seconds to import cfisac and load/validate the config in a fresh interpreter."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(CONFIG)]
    cmd += [f"{k}={v}" for k, v in overrides.items()]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise BenchError(f"set-up interpreter failed: {out.stderr.strip()}")
    return float(out.stdout.split()[-1])


def import_program():
    sys.path.insert(0, str(SRC))
    import cfisac
    import cfisac.cli

    if Path(cfisac.__file__).resolve().parent != SRC / "cfisac":
        raise BenchError(f"cfisac was imported from {cfisac.__file__}, not from {SRC}")
    return cfisac


def tree_digest(root: Path, paths) -> str:
    """sha256 over the relative names and bytes of ``paths``, in the given order."""
    digest = hashlib.sha256()
    for path in paths:
        digest.update(f"{path.relative_to(root)}".encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def check_drop(res, cfg) -> list[str]:
    """Output checks on one DropResult; an empty list means the drop passed."""
    import numpy as np

    shape = (cfg.n_fading, cfg.l_regions)
    problems = []
    if res.rates_bps.shape != (cfg.n_fading, cfg.k_ues):
        problems.append(f"rates_bps shape {res.rates_bps.shape}")
    elif not (np.isfinite(res.rates_bps).all() and (res.rates_bps >= 0).all()):
        problems.append("rates_bps not finite and >= 0")
    if not (np.isfinite(res.statistics).all() and (res.statistics >= 0).all()):
        problems.append("statistics not finite and >= 0")
    if not (np.isfinite(res.thresholds).all() and (res.thresholds > 0).all()):
        problems.append("thresholds not finite and > 0")
    if res.decisions.shape != shape or res.truths.shape != shape:
        problems.append(f"decisions/truths shape {res.decisions.shape}/{res.truths.shape}")
    if not res.diagnostics.power_dev_max <= POWER_DEV_TOL:
        problems.append(f"power_dev_max {res.diagnostics.power_dev_max!r}")
    if cfg.beamformer == "ZF" and cfg.k_zf > 0 and res.diagnostics.zf_beams <= 0:
        problems.append("no ZF beams")
    return problems


def drop_counts(res, cfg) -> dict:
    """Work counts of one drop, read from its DropResult."""
    clusters = res.assignment.sensing_clusters
    tests = res.statistics.shape[0] * cfg.n_snapshots
    return {
        "tests": tests * res.statistics.shape[1],
        "dict_entries": tests * sum(len(rx) * cfg.n_antennas * len(tx) for tx, rx in clusters),
        "zf_beams": res.diagnostics.zf_beams,
        "zf_fallbacks": res.diagnostics.zf_fallbacks,
        "serving_links": sum(len(aps) for aps in res.assignment.serving),
        "sensing_cluster_aps": sum(len(tx) + len(rx) for tx, rx in clusters),
    }


def run_arm(cli, cfg, argv: list[str], traced: bool) -> Arm:
    """One ``cfisac run`` arm into a fresh directory under OUT, then its checks."""
    arm = Arm(traced=traced)
    out_dir = Path(tempfile.mkdtemp(prefix="arm-", dir=OUT))
    try:
        points = ALL_POINTS if traced else (RUN_DROP,)
        with arm.recorder.installed(points), contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                rc = cli.main([*argv, "--out", str(out_dir)])
            finally:
                arm.wall_s = time.perf_counter() - start
        if rc != 0:
            arm.problems.append(f"cfisac run exited with {rc}")
        files = sorted(p for p in out_dir.iterdir() if p.is_file())
        arm.digest = tree_digest(out_dir, files)
        if (out_dir / "config.txt").read_text() != cfg.to_text():
            arm.problems.append("config.txt differs from the resolved workload config")
        arm.summary = (out_dir / "summary.txt").read_text()
    except Exception:
        arm.problems.append(traceback.format_exc())
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for span in arm.recorder.drops():
        bad = [span.error] if span.error else check_drop(span.result, cfg)
        if bad:
            arm.problems.extend(f"drop {span.drop}: {p}" for p in bad)
            arm.failed_drops += 1
        else:
            arm.drop_s.append(span.duration)
            arm.drop_counts.append(drop_counts(span.result, cfg))
        span.result = None  # keep only the numbers, not the arrays
    if arm.problems:
        arm.failed_drops = len(arm.recorder.drops())
    return arm


def above(values, threshold) -> int:
    return sum(v > threshold for v in values)


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(arms: list[Arm], setup_s: list[float]) -> tuple[dict, list[str]]:
    drop_s = [t for arm in arms for t in arm.drop_s]
    tail = p90(drop_s)
    values = {
        "drops_per_s": (len(drop_s) / sum(drop_s), "drops/s"),
        "drop_s_p50": (statistics.median(drop_s), "s"),
        "drop_s_p90": (tail, "s"),
        "arm_s": (statistics.median(a.wall_s for a in arms), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "drop_s_p50": f"{len(drop_s)} drops",
        "drop_s_p90": f"{above(drop_s, tail)} drops above",
        "arm_s": f"{len(arms)} arms of {ARM_DROPS} drops",
        "setup_s": f"median of {len(setup_s)} fresh interpreters",
    }
    lines = [f"{k:<14}{v:.6g} {u}  {notes.get(k, '')}".rstrip() for k, (v, u) in values.items()]
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, lines


def per_layer(traced: list[Arm], untraced: list[Arm]) -> tuple[dict, list[str]]:
    self_s = defaultdict(float)
    counts = defaultdict(float)
    for arm in traced:
        rec = arm.recorder
        for span, own in zip(rec.spans, rec.self_times()):
            self_s[span.name] += own
            for key, value in (span.counts or {}).items():
                counts[f"{span.name}.{key}"] += value
    drop_total = sum(s.duration for arm in traced for s in arm.recorder.drops())
    results = [c for arm in traced for c in arm.drop_counts]
    n_drops, n_arms = len(results), len(traced)
    zf_beams = sum(c["zf_beams"] for c in results)

    def ms(*names, per=n_drops):
        return 1e3 * sum(self_s[n] for n in names) / per

    def mean(key):
        return sum(c[key] for c in results) / n_drops

    def dps(arms):
        return sum(len(a.drop_s) for a in arms) / sum(t for a in arms for t in a.drop_s)

    rows = [
        ("channel.complex_normal.ms_per_drop", ms("channel.complex_normal"), "ms"),
        ("channel.complex_normal.draws_per_drop",
         counts["channel.complex_normal.draws"] / n_drops, "count"),
        ("channel.steering_bank.ms_per_drop", ms("channel.steering_bank"), "ms"),
        ("channel.rcs_kernel.ms_per_drop",
         ms("channel.psd_sqrt", "channel.view_angle_kernel"), "ms"),
    ]
    for name in ("kernels.cross_gains", "kernels.sense_leakage", "kernels.echo_mix"):
        rows += [
            (f"{name}.ms_per_drop", ms(name), "ms"),
            (f"{name}.gflop_per_drop", counts[f"{name}.flop"] / 1e9 / n_drops, "GFLOP"),
            (f"{name}.mb_per_drop", counts[f"{name}.bytes"] / 1e6 / n_drops, "MB"),
        ]
    rows += [
        ("harness.run_drop.ms_per_drop", 1e3 * drop_total / n_drops, "ms"),
        ("harness.run_drop.self_ms", ms("harness.run_drop"), "ms"),
        ("harness.ue_ap_gains.ms_per_drop", ms("harness.ue_ap_gains"), "ms"),
        ("harness.run_experiment.self_ms", ms("harness.run_experiment", per=n_arms), "ms"),
        ("detection.tests_per_drop", mean("tests"), "count"),
        ("detection.dict_entries_per_drop", mean("dict_entries"), "count"),
        ("harness.zf_beams", mean("zf_beams"), "count"),
        ("harness.zf_fallback_ratio",
         sum(c["zf_fallbacks"] for c in results) / zf_beams if zf_beams else 0.0, "ratio"),
    ]
    for name in ("deployment.generate_layout", "deployment.build_scan_schedule",
                 "clustering.build_assignment"):
        rows.append((f"{name}.ms_per_drop", ms(name), "ms"))
    rows += [
        ("clustering.serving_links", mean("serving_links"), "count"),
        ("clustering.sensing_cluster_aps", mean("sensing_cluster_aps"), "count"),
    ]
    for name in ("metrics.write_samples_csv", "metrics.write_cdf_csv", "metrics.empirical_cdf"):
        rows.append((f"{name}.ms", ms(name, per=n_arms), "ms"))
    rows.append(("tracing.overhead", dps(traced) / dps(untraced), "ratio"))

    lines = [f"{k:<44}{v:.6g} {u}" for k, v, u in rows]
    lines.append(
        f"run_drop {1e3 * drop_total / n_drops:.3f} ms/drop = wrapped children "
        f"{1e3 * drop_total / n_drops - ms('harness.run_drop'):.3f} + self "
        f"{ms('harness.run_drop'):.3f} ({n_drops} traced drops over {n_arms} arms; "
        "gflop and mb computed from call shapes)"
    )
    return {k: {"value": v, "unit": u} for k, v, u in rows}, lines


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def git_commit():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def manifest(args, nproc: int, cfg, wall_s: float) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(),
        "src_sha256": tree_digest(SRC, sorted(SRC.rglob("*.py"))),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "config": cfg.to_text(),
        "wall_s": wall_s,
    }


def parse_args(argv):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args, cli, cfg, overrides: dict) -> tuple[Arm, list[Arm], list[float]]:
    """The warm-up arm, then timed arms until the run is long enough."""

    def arm(drops: int, traced: bool) -> Arm:
        argv = ["run", "--config", str(CONFIG), "--seed", str(args.seed), "--drops", str(drops)]
        argv += [f"--set={k}={v}" for k, v in WORKLOADS[args.workload].items()]
        return run_arm(cli, cfg.replace(n_drops=drops), argv, traced)

    warmup = arm(1, traced=False)
    arms: list[Arm] = []
    setup_s: list[float] = []
    start = time.perf_counter()
    while not (warmup.problems or any(a.problems for a in arms)):
        if not args.trace and len(arms) % 2 == 0:
            # a fresh interpreter before every other arm spreads the samples over the run
            setup_s.append(measure_setup(overrides))
        arms.append(arm(ARM_DROPS, traced=bool(args.trace) and len(arms) % 2 == 1))
        if time.perf_counter() - start >= MAX_MEASURE_S:
            break
        if sum(a.wall_s for a in arms) < args.seconds:
            continue
        if args.trace:
            done = len(arms) >= 4
        else:
            drop_s = [t for a in arms for t in a.drop_s]
            done = len(drop_s) > 1 and above(drop_s, p90(drop_s)) >= MIN_ABOVE_P90
        if done:
            break
    return warmup, arms, setup_s


def write_spans(path: Path, arms: list[Arm]) -> None:
    with open(path, "w") as fh:
        for i, arm in enumerate(arms):
            for s in arm.recorder.spans:
                row = {"arm": i, "traced": arm.traced, "name": s.name, "start": s.start,
                       "end": s.end, "parent": s.parent, "drop": s.drop}
                fh.write(json.dumps(row) + "\n")


def run(args) -> int:
    wall_start = time.perf_counter()
    if not (SRC / "cfisac" / "__init__.py").is_file() or not CONFIG.is_file():
        raise BenchError(f"no cfisac sources or {CONFIG.name} under {ROOT}")
    nproc = pin_blas_threads()
    overrides = {**WORKLOADS[args.workload], "seed": str(args.seed), "n_drops": str(ARM_DROPS)}
    if not args.trace:
        measure_setup(overrides)  # warm-up: bytecode and file caches

    cfisac = import_program()
    from cfisac.config import apply_overrides, load_config

    cfg = apply_overrides(load_config(CONFIG), overrides).validate()
    OUT.mkdir(parents=True, exist_ok=True)
    warmup, arms, setup_s = measure(args, cfisac.cli, cfg, overrides)

    every = [warmup, *arms]
    attempted = sum(len(a.recorder.drops()) for a in every)
    failed = sum(a.failed_drops for a in every)
    digests = sorted({a.digest for a in arms})
    problems = [p for a in every for p in a.problems]
    if len(digests) != 1:
        problems.append(f"arms of one seed wrote {len(digests)} different outputs")
    correct = not problems and attempted > 0

    metrics, lines = {}, []
    if correct and args.trace:
        metrics, lines = per_layer([a for a in arms if a.traced], [a for a in arms if not a.traced])
    elif correct:
        metrics, lines = end_to_end(arms, setup_s)
    tokens = arms[-1].summary.split() if arms else []
    info = dict(t.split("=", 1) for t in tokens if t.split("=", 1)[0] in INFO_KEYS)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(arms)} arms "
          f"({sum(a.traced for a in arms)} traced) of {ARM_DROPS} drops after 1 warm-up drop")
    for line in lines:
        print(line)
    print(f"fail_ratio    {failed}/{attempted} failed/attempted drops")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("info (simulated statistics, not gated): " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"digest sha256:{' '.join(digests)} (over {len(arms)} arms)")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "manifest": manifest(args, nproc, cfg, time.perf_counter() - wall_start),
        "digest": digests,
        "info": info,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": {
            "drop_s": [t for a in arms for t in a.drop_s],
            "arm_s": [a.wall_s for a in arms],
            "setup_s": setup_s,
        },
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        write_spans(OUT / f"spans-{stem}.jsonl", arms)
    print(f"record {OUT.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
