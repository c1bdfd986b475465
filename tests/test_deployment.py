import math

import numpy as np
import pytest

from cfisac.config import ConfigError, ExperimentConfig
from cfisac.deployment import (
    SensingRegion,
    build_range_cell_grid,
    build_regions,
    build_scan_schedule,
    generate_layout,
    region_grid_shape,
)
from reference import angles_from, contains_xy, wrap_angle


def small_cfg(**kw):
    base = dict(m_aps=8, k_ues=4, t_targets=5, l_regions=4, cell_extent_m=250.0)
    base.update(kw)
    return ExperimentConfig(**base)


class TestRangeCellGrid:
    def test_4x4_tiling(self):
        region = SensingRegion(index=0, x_min=0, y_min=0, x_max=500, y_max=500)
        cells = build_range_cell_grid(region, 125.0, 110.0)
        assert len(cells) == 16
        assert all(c.extent_x == 125.0 and c.extent_y == 125.0 for c in cells)
        assert all(c.center[2] == 110.0 for c in cells)

    def test_degenerate_single_cell(self):
        region = SensingRegion(index=0, x_min=0, y_min=0, x_max=500, y_max=500)
        cells = build_range_cell_grid(region, 500.0, 110.0)
        assert len(cells) == 1
        np.testing.assert_allclose(cells[0].center, [250.0, 250.0, 110.0])

    def test_oversized_extent_clips_to_region(self):
        region = SensingRegion(index=0, x_min=0, y_min=0, x_max=500, y_max=500)
        (cell,) = build_range_cell_grid(region, 900.0, 50.0)
        assert cell.extent_x == 500.0

    def test_clipped_last_column(self):
        region = SensingRegion(index=0, x_min=0, y_min=0, x_max=300, y_max=300)
        cells = build_range_cell_grid(region, 200.0, 110.0)
        assert len(cells) == 4
        # cells tile the region footprint exactly
        assert math.isclose(sum(c.extent_x * c.extent_y for c in cells), 300.0 * 300.0)

    def test_bandwidth_matched_extent(self):
        # range resolution c / (2 B) with c = 3e8 and B = 20 MHz
        cfg = ExperimentConfig(bandwidth_matched_cells=True)
        assert cfg.resolved_cell_extent_m == pytest.approx(3e8 / (2 * 20e6))
        assert cfg.resolved_cell_extent_m == pytest.approx(7.5)

    def test_invalid_extent(self):
        # build_range_cell_grid trusts a validated config's extent
        for changes in ({"cell_extent_m": 0.0}, {"cell_extent_m": -125.0}):
            with pytest.raises(ConfigError, match="cell extent must be positive"):
                ExperimentConfig(**changes).validate()


class TestRegions:
    def test_square_grid(self):
        assert region_grid_shape(4) == (2, 2)
        assert region_grid_shape(16) == (4, 4)
        assert region_grid_shape(1) == (1, 1)

    def test_non_square_grid(self):
        assert region_grid_shape(8) == (2, 4)

    def test_regions_tile_area(self):
        for l in (1, 4, 8, 9):
            cfg = small_cfg(l_regions=l, t_targets=l)
            regions = build_regions(cfg)
            area = sum((r.x_max - r.x_min) * (r.y_max - r.y_min) for r in regions)
            assert math.isclose(area, cfg.area_side_m**2)
            for i, a in enumerate(regions):
                for b in regions[i + 1 :]:
                    ox = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
                    oy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
                    assert min(ox, oy) <= 0.0  # pairwise interiors disjoint


class TestGenerateLayout:
    def test_baseline_two_targets_per_region(self):
        cfg = ExperimentConfig()
        layout = generate_layout(cfg, np.random.default_rng(0))
        counts = np.bincount(layout.target_regions, minlength=4)
        assert list(counts) == [2, 2, 2, 2]
        assert layout.aps.shape == (64, 3)
        assert layout.ues.shape == (32, 3)

    def test_zero_targets(self):
        layout = generate_layout(small_cfg(t_targets=0), np.random.default_rng(0))
        assert layout.targets.shape == (0, 3)

    def test_determinism(self):
        cfg = small_cfg()
        a = generate_layout(cfg, np.random.default_rng(123))
        b = generate_layout(cfg, np.random.default_rng(123))
        np.testing.assert_array_equal(a.aps, b.aps)
        np.testing.assert_array_equal(a.ues, b.ues)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_position_invariants_many_layouts(self):
        # every generated position obeys its bounds over many random drops
        cfg = small_cfg(cell_extent_m=500.0)
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            layout = generate_layout(cfg, rng)
            assert np.all(layout.aps[:, 2] == cfg.ap_height_m)
            assert np.all(layout.ues[:, 2] == cfg.ue_height_m)
            assert np.all(layout.aps[:, :2] >= 0) and np.all(layout.aps[:, :2] <= 1000)
            assert np.all(layout.targets[:, 2] >= cfg.target_height_min_m)
            assert np.all(layout.targets[:, 2] <= cfg.target_height_max_m)
            for t, l in enumerate(layout.target_regions):
                reg = layout.regions[l]
                bounds = (reg.x_min, reg.y_min, reg.x_max, reg.y_max)
                assert contains_xy(bounds, layout.targets[t, 0], layout.targets[t, 1])


class TestAngles:
    def test_broadside_same_height(self):
        az, el = angles_from(np.array([0.0, 0.0, 10.0]), np.array([50.0, 0.0, 10.0]))
        assert az == pytest.approx(0.0)
        assert el == pytest.approx(0.0)

    def test_directly_above(self):
        az, el = angles_from(np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, 30.0]))
        assert el == pytest.approx(math.pi / 2)

    def test_diagonal_offset(self):
        # hand trigonometry on delta = (100, 100, 100)
        az, el = angles_from(np.zeros(3), np.array([100.0, 100.0, 100.0]))
        assert az == pytest.approx(math.pi / 4)
        assert el == pytest.approx(math.atan2(100.0, math.hypot(100.0, 100.0)))

    def test_coincident_positions(self):
        with pytest.raises(ValueError):
            angles_from(np.ones(3), np.ones(3))

    def test_wrap_range(self):
        for a in np.linspace(-10, 10, 101):
            w = wrap_angle(a)
            assert -math.pi < w <= math.pi


def _min_pairwise(points):
    points = np.asarray(points)
    dists = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    return dists[np.triu_indices(len(points), k=1)].min()


class TestScanSchedule:
    def _regions(self, extent=125.0):
        cfg = ExperimentConfig(cell_extent_m=extent)
        return build_regions(cfg)

    def test_bijection_per_region(self):
        regions = self._regions()
        sched = build_scan_schedule(regions, np.random.default_rng(0))
        assert sched.n_epochs == 16
        for l in range(4):
            assert sorted(sched.epochs[:, l]) == list(range(16))

    def test_single_region_is_permutation(self):
        cfg = ExperimentConfig(l_regions=1, cell_extent_m=250.0)
        regions = build_regions(cfg)
        sched = build_scan_schedule(regions, np.random.default_rng(3))
        assert sorted(sched.epochs[:, 0]) == list(range(16))

    def test_greedy_beats_raster_at_epoch_zero(self):
        # oracle: naive raster scanning picks local cell 0 everywhere at epoch 0
        regions = self._regions()
        raster = _min_pairwise([r.cells[0].center[:2] for r in regions])
        for seed in range(20):
            sched = build_scan_schedule(regions, np.random.default_rng(seed))
            picked = [regions[l].cells[sched.epochs[0, l]].center[:2] for l in range(4)]
            assert _min_pairwise(picked) >= raster - 1e-9

    def test_degenerate_single_cell_regions(self):
        regions = self._regions(extent=500.0)
        sched = build_scan_schedule(regions, np.random.default_rng(0))
        assert sched.n_epochs == 1
        picked = [regions[l].cells[0].center[:2] for l in range(4)]
        centers = [r.center_xy for r in regions]
        assert _min_pairwise(picked) == pytest.approx(_min_pairwise(centers))

    def test_deterministic_given_seed(self):
        regions = self._regions()
        a = build_scan_schedule(regions, np.random.default_rng(9))
        b = build_scan_schedule(regions, np.random.default_rng(9))
        np.testing.assert_array_equal(a.epochs, b.epochs)

    def test_capped_schedule_is_a_prefix_of_the_full_sweep(self):
        # epochs are drawn one after another, so a cap only stops the sweep early
        regions = self._regions()
        full = build_scan_schedule(regions, np.random.default_rng(4))
        for cap in (1, 5, 16, 40):
            capped = build_scan_schedule(regions, np.random.default_rng(4), max_epochs=cap)
            np.testing.assert_array_equal(capped.epochs, full.epochs[: min(cap, 16)])

    def test_unequal_cell_counts_padded(self):
        cfg = ExperimentConfig(l_regions=4, cell_extent_m=250.0)
        regions = build_regions(cfg)
        regions[2].cells = regions[2].cells[:1]  # force one short region
        sched = build_scan_schedule(regions, np.random.default_rng(0))
        assert sched.n_epochs == 4
        assert set(sched.epochs[:, 2]) == {0}
        for l in (0, 1, 3):
            assert sorted(sched.epochs[:, l]) == [0, 1, 2, 3]
