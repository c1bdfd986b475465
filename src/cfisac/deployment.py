"""Network layouts, sensing regions, range-cell grids and the scan schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import ExperimentConfig


@dataclass
class RangeCell:
    """One range cell: the smallest inspected spatial element of a region.

    ``center`` is the geometric center of the (possibly edge-clipped)
    horizontal footprint, raised to the configured inspection height.
    """

    center: np.ndarray  # (3,)
    extent_x: float
    extent_y: float

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        cx, cy = self.center[0], self.center[1]
        return (
            cx - self.extent_x / 2.0,
            cy - self.extent_y / 2.0,
            cx + self.extent_x / 2.0,
            cy + self.extent_y / 2.0,
        )


@dataclass
class SensingRegion:
    """Axis-aligned rectangular sensing region; regions tile the area."""

    index: int
    x_min: float
    y_min: float
    x_max: float
    y_max: float
    cells: list[RangeCell] = field(default_factory=list)

    @property
    def center_xy(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))


@dataclass
class NetworkLayout:
    """Positions of all entities plus the sensing-region partition.

    aps:    (M, 3) AP positions, common height.
    ues:    (K, 3) UE positions, common height.
    targets:(T, 3) target positions, random heights.
    target_regions: (T,) region index each target belongs to.
    broadsides: (M,) ULA broadside azimuth per AP, radians.
    """

    aps: np.ndarray
    ues: np.ndarray
    targets: np.ndarray
    target_regions: np.ndarray
    regions: list[SensingRegion]
    broadsides: np.ndarray


@dataclass
class ScanSchedule:
    """epochs[e, l] = index of the cell of region l inspected at epoch e."""

    epochs: np.ndarray  # (n_epochs, L) int

    @property
    def n_epochs(self) -> int:
        return self.epochs.shape[0]


def region_grid_shape(l_regions: int) -> tuple[int, int]:
    """Rows/cols of the region tiling: the most square factorization of L."""
    rows = int(math.isqrt(l_regions))
    while l_regions % rows != 0:
        rows -= 1
    return rows, l_regions // rows


def build_range_cell_grid(
    region: SensingRegion, cell_extent: float, inspection_height: float
) -> list[RangeCell]:
    """Tile a region with square cells of the given extent.

    The last row/column is clipped at the region edge when the extent does
    not divide the region side; an extent at least as large as the region
    yields the single-cell degenerate grid.
    """
    width = region.x_max - region.x_min
    height = region.y_max - region.y_min
    nx = max(1, math.ceil(width / cell_extent - 1e-9))
    ny = max(1, math.ceil(height / cell_extent - 1e-9))
    cells = []
    for iy in range(ny):
        y0 = region.y_min + iy * cell_extent
        y1 = min(y0 + cell_extent, region.y_max)
        for ix in range(nx):
            x0 = region.x_min + ix * cell_extent
            x1 = min(x0 + cell_extent, region.x_max)
            center = np.array([0.5 * (x0 + x1), 0.5 * (y0 + y1), inspection_height])
            cells.append(RangeCell(center=center, extent_x=x1 - x0, extent_y=y1 - y0))
    return cells


def build_regions(config: ExperimentConfig) -> list[SensingRegion]:
    rows, cols = region_grid_shape(config.l_regions)
    side = config.area_side_m
    width, height = side / cols, side / rows
    extent = config.resolved_cell_extent_m
    regions = []
    for idx in range(config.l_regions):
        r, c = divmod(idx, cols)
        region = SensingRegion(
            index=idx,
            x_min=c * width,
            y_min=r * height,
            x_max=(c + 1) * width,
            y_max=(r + 1) * height,
        )
        region.cells = build_range_cell_grid(region, extent, config.inspection_height_m)
        regions.append(region)
    return regions


def generate_layout(config: ExperimentConfig, rng: np.random.Generator) -> NetworkLayout:
    """Draw one random network drop.

    APs and UEs are uniform over the whole area at their fixed heights;
    targets are split as evenly as possible over the regions, uniform in
    (x, y) within their region and uniform in height.
    """
    regions = build_regions(config)
    side = config.area_side_m

    ap_xy = rng.uniform(0.0, side, size=(config.m_aps, 2))
    aps = np.column_stack([ap_xy, np.full(config.m_aps, config.ap_height_m)])
    ue_xy = rng.uniform(0.0, side, size=(config.k_ues, 2))
    ues = np.column_stack([ue_xy, np.full(config.k_ues, config.ue_height_m)])

    # even split: T // L targets per region, remainder to the lowest indices
    base, extra = divmod(config.t_targets, config.l_regions)
    counts = [base + (1 if l < extra else 0) for l in range(config.l_regions)]
    target_regions = np.repeat(np.arange(config.l_regions), counts)

    targets = np.zeros((config.t_targets, 3))
    for t, l in enumerate(target_regions):
        reg = regions[l]
        targets[t, 0] = rng.uniform(reg.x_min, reg.x_max)
        targets[t, 1] = rng.uniform(reg.y_min, reg.y_max)
        targets[t, 2] = rng.uniform(config.target_height_min_m, config.target_height_max_m)

    if config.random_broadside:
        broadsides = rng.uniform(-np.pi, np.pi, size=config.m_aps)
    else:
        broadsides = np.zeros(config.m_aps)

    return NetworkLayout(
        aps=aps,
        ues=ues,
        targets=targets,
        target_regions=target_regions,
        regions=regions,
        broadsides=broadsides,
    )


def build_scan_schedule(
    regions: Sequence[SensingRegion], rng: np.random.Generator, max_epochs: int | None = None
) -> ScanSchedule:
    """Coordinate the per-epoch cell choices across regions.

    Every cell of every region is scanned exactly once per sweep. At each
    epoch one region (rotating round-robin) opens with a random unscanned
    cell and the remaining regions greedily pick the unscanned cell that
    maximizes the minimum distance to the cells already picked for this
    epoch, so that simultaneously inspected cells stay far apart. Regions
    with fewer cells than the longest region repeat their last cell. Epochs
    are drawn in order, so ``max_epochs`` keeps the first rows of the sweep.
    """
    n_regions = len(regions)
    counts = [len(r.cells) for r in regions]
    n_epochs = max(counts) if max_epochs is None else min(max(counts), max_epochs)
    centers = [np.array([c.center[:2] for c in r.cells]) for r in regions]

    remaining = [list(range(n)) for n in counts]
    epochs = np.zeros((n_epochs, n_regions), dtype=np.int64)
    for e in range(n_epochs):
        order = [(e + i) % n_regions for i in range(n_regions)]
        picked_xy: list[np.ndarray] = []
        for pos, l in enumerate(order):
            if not remaining[l]:
                choice = counts[l] - 1  # pad short regions with their last cell
            elif pos == 0:
                choice = remaining[l][rng.integers(len(remaining[l]))]
                remaining[l].remove(choice)
            else:
                cand = np.array(remaining[l])
                dists = np.linalg.norm(
                    centers[l][cand][:, None, :] - np.array(picked_xy)[None, :, :], axis=-1
                )
                best = cand[int(np.argmax(dists.min(axis=1)))]
                choice = int(best)
                remaining[l].remove(choice)
            epochs[e, l] = choice
            picked_xy.append(centers[l][choice])
    return ScanSchedule(epochs=epochs)
