"""Experiment configuration: baseline defaults, flat key=value files, overrides."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

SPEED_OF_LIGHT = 3e8  # m/s

VALID_MODES = ("UTC", "UC", "TC", "CF")
USER_CENTRIC_MODES = ("UTC", "UC")
TARGET_CENTRIC_MODES = ("UTC", "TC")
VALID_BEAMFORMERS = ("MF", "ZF")


class ConfigError(ValueError):
    """Raised for invalid or inconsistent experiment configurations."""


@dataclass
class ExperimentConfig:
    """All simulation knobs. Defaults reproduce the baseline network setup:

    64 APs and 32 single-antenna UEs uniform over a 1 km^2 area, 8 targets
    spread over 4 sensing regions, 8-antenna ULAs, user-and-target-centric
    clustering with 4 serving APs per UE and 6 transmit / 2 receive sensing
    APs per region, 2 W per-AP power budget, 20 MHz at 2 GHz.
    """

    # network dimensions
    m_aps: int = 64
    k_ues: int = 32
    t_targets: int = 8
    l_regions: int = 4
    n_antennas: int = 8

    # clustering / beamforming
    mode: str = "UTC"
    q_serving: int = 4
    m_tx_per_region: int = 6
    m_rx_per_region: int = 2
    beamformer: str = "MF"
    k_zf: int = 1

    # radio parameters
    p_max_w: float = 2.0
    bandwidth_hz: float = 20e6
    carrier_hz: float = 2e9
    noise_density_dbm_hz: float = -174.0
    sigma_rcs_dbsm: float = 10.0
    rician_k_db: float = 10.0
    angular_corr_deg: float = 10.0
    spacing_wavelengths: float = 0.5
    shadowing_std_db: float = 4.0
    shadowing_enabled: bool = True
    random_broadside: bool = False

    # geometry
    area_side_m: float = 1000.0
    ap_height_m: float = 10.0
    ue_height_m: float = 1.65
    target_height_min_m: float = 20.0
    target_height_max_m: float = 200.0
    inspection_height_m: float = 110.0
    cell_extent_m: float = 125.0
    bandwidth_matched_cells: bool = False

    # detection
    pfa_target: float = 0.01
    n_snapshots: int = 1
    direct_residual: float = 0.0

    # power split: None = equal share per beam, otherwise sensing gets
    # this fraction of the budget and UEs split the remainder equally
    sensing_power_fraction: Optional[float] = None

    # campaign size
    n_drops: int = 100
    n_fading: int = 100
    seed: int = 1

    # --- derived quantities -------------------------------------------------

    @property
    def sigma_z2_w(self) -> float:
        """Thermal noise power sigma_z^2 = N0 * B in watts."""
        n0_w_hz = 10.0 ** ((self.noise_density_dbm_hz - 30.0) / 10.0)
        return n0_w_hz * self.bandwidth_hz

    @property
    def sigma_rcs2_m2(self) -> float:
        return 10.0 ** (self.sigma_rcs_dbsm / 10.0)

    @property
    def rician_k_linear(self) -> float:
        return 10.0 ** (self.rician_k_db / 10.0)

    @property
    def angular_corr_rad(self) -> float:
        return math.radians(self.angular_corr_deg)

    @property
    def carrier_ghz(self) -> float:
        return self.carrier_hz / 1e9

    @property
    def resolved_cell_extent_m(self) -> float:
        """Range-cell side, optionally matched to the range resolution c/(2B)."""
        if self.bandwidth_matched_cells:
            return SPEED_OF_LIGHT / (2.0 * self.bandwidth_hz)
        return self.cell_extent_m

    # --- validation ---------------------------------------------------------

    def validate(self) -> "ExperimentConfig":
        # a NaN fails none of the range checks below, so non-finite floats go first
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if "float" in f.type and value is not None and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.shadowing_std_db < 0:
            raise ConfigError("shadowing_std_db must be >= 0")
        if min(self.m_aps, self.k_ues, self.l_regions, self.n_antennas) < 1:
            raise ConfigError("m_aps, k_ues, l_regions and n_antennas must be positive")
        if self.t_targets < 0:
            raise ConfigError("t_targets must be >= 0")
        if self.mode not in VALID_MODES:
            raise ConfigError(f"unknown mode {self.mode!r}, expected one of {VALID_MODES}")
        if self.beamformer not in VALID_BEAMFORMERS:
            raise ConfigError(
                f"unknown beamformer {self.beamformer!r}, expected one of {VALID_BEAMFORMERS}"
            )
        if self.m_rx_per_region < 1:
            raise ConfigError("m_rx_per_region must be >= 1 (no echo receivers otherwise)")
        if self.m_tx_per_region < 1:
            raise ConfigError("m_tx_per_region must be >= 1")
        if self.q_serving < 1:
            raise ConfigError("q_serving must be >= 1")
        if not 0.0 < self.pfa_target < 1.0:
            raise ConfigError("pfa_target must lie in (0, 1)")
        if self.beamformer == "ZF" and not 0 <= self.k_zf <= self.n_antennas - 1:
            raise ConfigError("k_zf must lie in [0, n_antennas - 1]")
        if self.p_max_w <= 0 or self.bandwidth_hz <= 0 or self.carrier_hz <= 0:
            raise ConfigError("p_max_w, bandwidth_hz and carrier_hz must be positive")
        if self.resolved_cell_extent_m <= 0:
            raise ConfigError("cell extent must be positive")
        if self.area_side_m <= 0:
            raise ConfigError("area_side_m must be positive")
        if self.target_height_min_m > self.target_height_max_m:
            raise ConfigError("target_height_min_m must not exceed target_height_max_m")
        if self.angular_corr_deg <= 0:
            raise ConfigError("angular_corr_deg must be positive")
        if self.spacing_wavelengths <= 0:
            raise ConfigError("spacing_wavelengths must be positive")
        if self.n_drops < 1 or self.n_fading < 1 or self.n_snapshots < 1:
            raise ConfigError("n_drops, n_fading and n_snapshots must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.sensing_power_fraction is not None and not (
            0.0 <= self.sensing_power_fraction <= 1.0
        ):
            raise ConfigError("sensing_power_fraction must lie in [0, 1]")
        if self.direct_residual < 0.0:
            raise ConfigError("direct_residual must be >= 0")

        # the AP partition of every drop: each region claims m_rx receive APs,
        # plus m_tx transmit APs in target-centric modes; the other modes must
        # leave a transmit AP over
        mode, n_regions = self.mode, self.l_regions
        rx, tx = self.m_rx_per_region, self.m_tx_per_region
        target_centric = mode in TARGET_CENTRIC_MODES
        need = (tx + rx if target_centric else rx) * n_regions
        if need > self.m_aps or (not target_centric and need >= self.m_aps):
            raise ConfigError(
                f"{self.m_aps} APs cannot satisfy {n_regions} regions with "
                f"(tx={tx}, rx={rx}) in mode {mode}"
            )
        if mode not in USER_CENTRIC_MODES:
            return self
        # user-centric serving: each UE gets q of the |M_tx| = m_aps - m_rx L
        # transmit APs, each AP at most n_antennas UEs. The greedy association
        # fills every UE whatever the gains if n_antennas (|M_tx| - q + 1) >= q K,
        # so a config that misses the bound fails here, not on the drops whose
        # gains happen not to fit
        m_tx, q = self.m_aps - rx * n_regions, self.q_serving
        if q > m_tx:
            raise ConfigError(f"q={q} exceeds the {m_tx} available transmit APs")
        if self.n_antennas * (m_tx - q + 1) < q * self.k_ues:
            raise ConfigError(
                f"mode {mode} caps each AP at n_antennas={self.n_antennas} UEs, so "
                f"{m_tx} transmit APs cannot always give each of {self.k_ues} UEs "
                f"q_serving={q} APs; need n_antennas * (m_aps - m_rx_per_region * "
                f"l_regions - q_serving + 1) >= q_serving * k_ues"
            )
        return self

    # --- flat-file round trip -----------------------------------------------

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            lines.append(f"{f.name}={'none' if value is None else value!r}")
        return "\n".join(lines) + "\n"

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _coerce(name: str, raw: str):
    if name not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {name!r}")
    text = raw.strip().strip("'\"")
    ftype = _FIELD_TYPES[name]
    if text.lower() in ("none", ""):
        if "Optional" in str(ftype):
            return None
        raise ConfigError(f"key {name!r} does not accept a none value")
    if ftype == "bool":
        if text.lower() in ("true", "1", "yes", "on"):
            return True
        if text.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"key {name!r} expects a boolean, got {raw!r}")
    if ftype == "int":
        return int(text)
    if ftype == "str":
        return text
    # float and Optional[float]
    return float(text)


def parse_config_text(text: str, base: Optional[ExperimentConfig] = None) -> ExperimentConfig:
    """Parse a flat key=value config, one assignment per line, # comments allowed."""
    cfg = base if base is not None else ExperimentConfig()
    changes = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = stripped.split("=", 1)
        changes[key.strip()] = _coerce(key.strip(), raw)
    return cfg.replace(**changes)


def load_config(path: str | Path, base: Optional[ExperimentConfig] = None) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text(), base=base)


def apply_overrides(cfg: ExperimentConfig, overrides: dict[str, str]) -> ExperimentConfig:
    return cfg.replace(**{k: _coerce(k, v) for k, v in overrides.items()})
