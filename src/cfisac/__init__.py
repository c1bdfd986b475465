"""Link-level simulator for scalable cell-free massive MIMO with joint
downlink communication and multistatic GLRT-based target detection."""

from .config import ConfigError, ExperimentConfig, load_config, parse_config_text
from .harness import (
    preset_beamformer_comparison,
    preset_mode_comparison,
    preset_rx_sweep,
    run_arms,
    run_drop,
    run_experiment,
)
from .metrics import ResultSet

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ResultSet",
    "load_config",
    "parse_config_text",
    "preset_beamformer_comparison",
    "preset_mode_comparison",
    "preset_rx_sweep",
    "run_arms",
    "run_drop",
    "run_experiment",
    "__version__",
]
