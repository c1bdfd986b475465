"""Network layouts, sensing regions and the scan schedule.

A region holds its range cells as two arrays, their centers and their
bounds, which the scan schedule and the drop's cell tables index. The
regions depend only on the config, so every drop shares one table of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .config import ExperimentConfig


@dataclass(frozen=True, eq=False)
class SensingRegion:
    """Axis-aligned rectangular sensing region; regions tile the area.

    Its range cells, the smallest inspected spatial elements, row by row:
    ``cell_centers`` (C, 3) are the centers of their (possibly edge-clipped)
    horizontal footprints, raised to the inspection height, and
    ``cell_bounds`` (C, 4) the footprints (x0, y0, x1, y1). A region is
    frozen because drops share it; ``build_regions`` makes its arrays
    read-only.
    """

    index: int
    x_min: float
    y_min: float
    x_max: float
    y_max: float
    cell_centers: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    cell_bounds: np.ndarray = field(default_factory=lambda: np.zeros((0, 4)))

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
    regions: tuple[SensingRegion, ...]
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
) -> tuple[np.ndarray, np.ndarray]:
    """Tile a region with square cells of the given extent: (centers, bounds).

    The last row/column is clipped at the region edge when the extent does
    not divide the region side; an extent at least as large as the region
    yields the single-cell degenerate grid. The bounds are each center
    minus and plus half the cell's clipped extent.
    """
    axes = []
    for lo, hi in ((region.x_min, region.x_max), (region.y_min, region.y_max)):
        n = max(1, math.ceil((hi - lo) / cell_extent - 1e-9))
        start = lo + np.arange(n) * cell_extent
        end = np.minimum(start + cell_extent, hi)
        center, half = 0.5 * (start + end), (end - start) / 2.0
        axes.append((center, center - half, center + half))
    (cx, x0, x1), (cy, y0, y1) = axes
    centers = np.empty((len(cy), len(cx), 3))
    centers[..., 0], centers[..., 1], centers[..., 2] = cx, cy[:, None], inspection_height
    bounds = np.empty((len(cy), len(cx), 4))
    bounds[..., 0], bounds[..., 2] = x0, x1
    bounds[..., 1], bounds[..., 3] = y0[:, None], y1[:, None]
    return centers.reshape(-1, 3), bounds.reshape(-1, 4)


def build_regions(config: ExperimentConfig) -> tuple[SensingRegion, ...]:
    """The config's regions with read-only cells, built once per distinct tiling."""
    return _regions(
        config.l_regions,
        config.area_side_m,
        config.resolved_cell_extent_m,
        config.inspection_height_m,
    )


@functools.lru_cache(maxsize=8)
def _regions(
    l_regions: int, side: float, extent: float, inspection_height: float
) -> tuple[SensingRegion, ...]:
    rows, cols = region_grid_shape(l_regions)
    width, height = side / cols, side / rows
    regions = []
    for idx in range(l_regions):
        r, c = divmod(idx, cols)
        region = SensingRegion(
            index=idx,
            x_min=c * width,
            y_min=r * height,
            x_max=(c + 1) * width,
            y_max=(r + 1) * height,
        )
        centers, bounds = build_range_cell_grid(region, extent, inspection_height)
        centers.flags.writeable = bounds.flags.writeable = False
        regions.append(replace(region, cell_centers=centers, cell_bounds=bounds))
    return tuple(regions)


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
    counts = [len(r.cell_centers) for r in regions]
    n_epochs = max(counts) if max_epochs is None else min(max(counts), max_epochs)
    xs = [r.cell_centers[:, 0] for r in regions]
    ys = [r.cell_centers[:, 1] for r in regions]

    # each epoch scans one cell of every region that has one left
    unscanned = [np.ones(n, dtype=bool) for n in counts]
    epochs = np.zeros((n_epochs, n_regions), dtype=np.int64)
    for e in range(n_epochs):
        picked_x, picked_y = [], []
        for pos in range(n_regions):
            l = (e + pos) % n_regions
            if e >= counts[l]:
                choice = counts[l] - 1  # pad short regions with their last cell
            else:
                if pos == 0:
                    choice = np.flatnonzero(unscanned[l])[rng.integers(counts[l] - e)]
                else:
                    # sqrt(dx^2 + dy^2), as np.linalg.norm rounds it
                    px, py = np.array(picked_x)[:, None], np.array(picked_y)[:, None]
                    dists = np.sqrt((xs[l] - px) ** 2 + (ys[l] - py) ** 2)  # (picked, C)
                    nearest = np.where(unscanned[l], dists.min(axis=0), -np.inf)
                    choice = np.argmax(nearest)
                unscanned[l][choice] = False
            epochs[e, l] = choice
            picked_x.append(xs[l][choice])
            picked_y.append(ys[l][choice])
    return ScanSchedule(epochs=epochs)
