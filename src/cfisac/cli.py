"""Command-line entry point: presets, custom runs, threshold calibration."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .channel import complex_normal
from .config import ConfigError, ExperimentConfig, apply_overrides, load_config
from .harness import (
    calibrate_threshold,
    preset_beamformer_comparison,
    preset_mode_comparison,
    preset_rx_sweep,
    run_arms,
    run_experiment,
)
from .metrics import ResultSet, write_results

OUTPUT_ROOT_ENV = "CFISAC_OUTPUT_ROOT"


def calibrate_threshold_mc(
    total_rank: int,
    sigma_z2: float,
    target_pfa: float,
    n_draws: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo cross-check: empirical quantile of noise-only statistics.

    ``execute`` rejects n_draws below 1 and a sigma_z2 that is not positive
    and finite, then calls ``calibrate_threshold``, which rejects a target_pfa outside
    (0, 1) and a total_rank below 1.
    """
    z = complex_normal(rng, (n_draws, total_rank))
    stats = sigma_z2 * (np.abs(z) ** 2).sum(axis=1)
    return float(np.quantile(stats, 1.0 - target_pfa))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfisac",
        description="Link-level Monte Carlo simulator for cell-free massive MIMO "
        "joint communication and multistatic sensing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config: bool):
        p.add_argument("--config", required=needs_config, help="flat key=value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--mode", default=None, choices=["UTC", "UC", "TC", "CF"])
        p.add_argument("--drops", type=int, default=None)
        p.add_argument("--fading", type=int, default=None)
        p.add_argument("--pfa", type=float, default=None)
        p.add_argument(
            "--set",
            metavar="KEY=VALUE",
            action="append",
            default=[],
            dest="extra",
            help="override any config field (repeatable)",
        )

    p_run = sub.add_parser("run", help="run a single experiment arm")
    add_common(p_run, needs_config=True)

    p_modes = sub.add_parser("preset-modes", help="UTC/UC/TC/CF comparison")
    add_common(p_modes, needs_config=False)

    p_rx = sub.add_parser("preset-rx-sweep", help="receive-AP count sweep")
    add_common(p_rx, needs_config=False)
    p_rx.add_argument("--rx", default="1,2,3,4", help="comma-separated receive-AP counts")

    p_bf = sub.add_parser("preset-beamformers", help="MF vs partial-ZF sensing beams")
    add_common(p_bf, needs_config=False)
    p_bf.add_argument("--kzf", default="1,2", help="comma-separated annulled-UE counts")

    p_cal = sub.add_parser("calibrate-pfa", help="analytic vs Monte Carlo threshold")
    p_cal.add_argument("--rank", type=int, required=True, help="total basis rank of the cluster")
    p_cal.add_argument("--pfa", type=float, default=0.01)
    p_cal.add_argument("--sigma2", type=float, default=1.0)
    p_cal.add_argument("--mc-draws", type=int, default=200_000)
    p_cal.add_argument("--seed", type=int, default=1)

    p_val = sub.add_parser("validate-config", help="parse and echo a resolved config")
    add_common(p_val, needs_config=True)

    return parser


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else ExperimentConfig()
    named = {
        "seed": args.seed,
        "mode": args.mode,
        "n_drops": args.drops,
        "n_fading": args.fading,
        "pfa_target": args.pfa,
    }
    overrides = {k: str(v) for k, v in named.items() if v is not None}
    for item in args.extra:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value
    return apply_overrides(cfg, overrides).validate()


def _output_dir(args) -> Path:
    if args.out:
        return Path(args.out)
    root = os.environ.get(OUTPUT_ROOT_ENV, "results")
    return Path(root) / args.command


def _run_and_write(args, results: dict[str, ResultSet], cfg: ExperimentConfig) -> int:
    out_dir = _output_dir(args)
    summary = write_results(out_dir, results, cfg)
    print(f"wrote {len(results)} arm(s) to {out_dir}")
    print(summary, end="")
    return 0


def execute(args) -> int:
    if args.command == "calibrate-pfa":
        if args.mc_draws < 1:
            raise ConfigError("--mc-draws must be >= 1")
        if not 0 < args.sigma2 < np.inf:
            raise ConfigError("--sigma2 must be positive and finite")
        analytic = calibrate_threshold(args.rank, args.sigma2, args.pfa)
        mc = calibrate_threshold_mc(
            args.rank, args.sigma2, args.pfa, args.mc_draws, np.random.default_rng(args.seed)
        )
        print(f"analytic_threshold={analytic!r}")
        print(f"monte_carlo_threshold={mc!r}")
        print(f"relative_difference={abs(analytic - mc) / analytic!r}")
        return 0

    cfg = _resolve_config(args)
    if args.command == "validate-config":
        print(cfg.to_text(), end="")
        return 0
    if args.command == "run":
        return _run_and_write(args, {"run": run_experiment(cfg, label="run")}, cfg)
    if args.command == "preset-modes":
        arms = preset_mode_comparison(cfg)
    elif args.command == "preset-rx-sweep":
        arms = preset_rx_sweep(cfg, [int(x) for x in args.rx.split(",") if x.strip()])
    elif args.command == "preset-beamformers":
        arms = preset_beamformer_comparison(cfg, [int(x) for x in args.kzf.split(",") if x.strip()])
    else:
        raise ConfigError(f"unhandled command {args.command!r}")
    return _run_and_write(args, run_arms(arms), cfg)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return execute(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
