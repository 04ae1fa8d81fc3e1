"""Patch sampler oracles: exact coverage, disjoint complement, size bounds,
and a per-pixel oracle for the region masks."""

import numpy as np
import pytest

from gradtail.datasets import gen_dense_task
from gradtail.engine import _batch_stream, dense_config, train_dense
from gradtail.patches import PatchSet, patch_mean_loss, sample_patches


def covers_grid(ps):
    """Whether the regions together cover every pixel of the grid."""
    return bool(np.logical_or.reduce(ps.masks).all())


def oracle_masks(rects, height, width):
    """Region masks pixel by pixel: a pixel is in rectangle (r0, c0, h, w)
    when r0 <= row < r0 + h and c0 <= col < c0 + w, and leftover when no
    rectangle holds it."""
    masks = np.zeros((len(rects) + 1, height, width), dtype=bool)
    for row in range(height):
        for col in range(width):
            inside = [r0 <= row < r0 + h and c0 <= col < c0 + w for r0, c0, h, w in rects]
            masks[:-1, row, col] = inside
            masks[-1, row, col] = not any(inside)
    return masks


class TestSampling:
    def test_full_scale_grid_covers_all_pixels(self):
        ps = sample_patches(192, 480, np.random.default_rng(0))
        assert 192 * 480 == 92_160
        assert covers_grid(ps)
        assert ps.masks.shape == (7, 192, 480)

    def test_tiny_grid_clamps_and_empty_complement(self):
        ps = sample_patches(10, 10, np.random.default_rng(1))
        for r0, c0, h, w in ps.rects:
            assert (r0, c0, h, w) == (0, 0, 10, 10)
        assert not ps.masks[-1].any()
        assert covers_grid(ps)

    def test_repeated_draws_coverage_and_bounds_64(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            ps = sample_patches(64, 64, rng)
            assert covers_grid(ps)
            for _, _, h, w in ps.rects:
                assert 20 <= h <= 64 and 20 <= w <= 64

    def test_complement_disjoint_from_rects(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ps = sample_patches(50, 70, rng)
            covered = np.logical_or.reduce(ps.masks[:-1])
            assert not (covered & ps.masks[-1]).any()

    def test_sizes_respect_range_on_large_grid(self):
        rng = np.random.default_rng(4)
        seen_h = set()
        for _ in range(200):
            ps = sample_patches(192, 480, rng)
            for _, _, h, w in ps.rects:
                assert 20 <= h <= 100 and 20 <= w <= 100
                seen_h.add(h)
        # uniform integer sizes should hit a broad spread of the range
        assert len(seen_h) > 40

    def test_deterministic_given_stream(self):
        a = sample_patches(64, 64, np.random.default_rng(5))
        b = sample_patches(64, 64, np.random.default_rng(5))
        assert a.rects == b.rects
        np.testing.assert_array_equal(a.masks, b.masks)

    def test_errors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_patches(0, 10, rng)
        with pytest.raises(ValueError):
            sample_patches(10, 10, rng, size_min=30, size_max=20)

    def test_patchset_validation(self):
        with pytest.raises(ValueError):
            PatchSet([(0, 0, 20, 20)], 10, 10)
        # the complement is derived: every pixel the rectangles leave
        ps = PatchSet([(0, 0, 5, 10)], 10, 10)
        np.testing.assert_array_equal(np.flatnonzero(ps.masks[-1]), np.arange(50, 100))


class TestMaskOracle:
    @pytest.mark.parametrize("height, width, draws", [(64, 64, 20), (192, 480, 2)])
    def test_sampled_masks_match_oracle(self, height, width, draws):
        rng = np.random.default_rng(6)
        for _ in range(draws):
            ps = sample_patches(height, width, rng)
            np.testing.assert_array_equal(ps.masks, oracle_masks(ps.rects, height, width))

    def test_blanketing_rects_leave_an_empty_leftover(self):
        ps = sample_patches(24, 24, np.random.default_rng(7), size_min=24, size_max=24)
        np.testing.assert_array_equal(ps.masks, oracle_masks(ps.rects, 24, 24))
        assert ps.masks[:-1].all() and not ps.masks[-1].any()

    def test_arbitrary_rects_match_oracle(self):
        """Rects anywhere in the grid, overlapping, on its edges, or filling it."""
        rng = np.random.default_rng(8)
        for _ in range(50):
            height, width = (int(v) for v in rng.integers(1, 13, size=2))
            rects = []
            for _ in range(int(rng.integers(0, 5))):
                h, w = int(rng.integers(1, height + 1)), int(rng.integers(1, width + 1))
                r0, c0 = int(rng.integers(0, height - h + 1)), int(rng.integers(0, width - w + 1))
                rects.append((r0, c0, h, w))
            ps = PatchSet(rects, height, width)
            np.testing.assert_array_equal(ps.masks, oracle_masks(rects, height, width))

    @pytest.mark.parametrize("size_min, size_max, leftover", [(6, 14, True), (20, 20, False)])
    def test_train_dense_logs_oracle_counts(self, size_min, size_max, leftover):
        """PatchLog's pixels and rare_fraction count the oracle's masks over
        the valid and rare pixels, for every region that keeps a pixel."""
        grid = gen_dense_task(3, 20, 20, 0.05)
        config = dense_config(steps=6)
        log = train_dense(grid, 2, config, size_min=size_min, size_max=size_max).patch_log
        rng = _batch_stream(config, 2)  # train_dense draws only its patches from it
        expected = []
        for step in range(config.steps):
            ps = sample_patches(20, 20, rng, size_min=size_min, size_max=size_max)
            for j, mask in enumerate(oracle_masks(ps.rects, 20, 20)):
                pixels = int(np.count_nonzero(mask & grid.valid_mask))
                if pixels:
                    rare = int(np.count_nonzero(mask & grid.valid_mask & grid.rare_mask))
                    expected.append((step, j, pixels, rare / pixels))
        logged = zip(log.step, log.patch_index, log.pixels, log.rare_fraction)
        assert [(int(s), int(j), int(n), float(f)) for s, j, n, f in logged] == expected
        assert (6 in log.patch_index) == leftover  # 20x20 rectangles leave no pixel over


class TestPatchMeanLoss:
    def test_uniform_loss(self):
        losses = np.full((8, 8), 3.25)
        mask = np.ones((8, 8), dtype=bool)
        region = np.zeros((8, 8), dtype=bool)
        region[2:6, 2:6] = True
        assert patch_mean_loss(losses, mask, region) == 3.25

    def test_empty_region_contributes_zero(self):
        losses = np.ones((4, 4))
        mask = np.ones((4, 4), dtype=bool)
        assert patch_mean_loss(losses, mask, np.zeros((4, 4), dtype=bool)) == 0.0

    def test_checkerboard_half(self):
        losses = np.indices((6, 6)).sum(axis=0) % 2  # 0/1 checkerboard
        mask = np.ones((6, 6), dtype=bool)
        region = np.ones((6, 6), dtype=bool)
        assert patch_mean_loss(losses.astype(float), mask, region) == 0.5

    def test_mask_excludes_pixels(self):
        losses = np.arange(16, dtype=float).reshape(4, 4)
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[0, 1] = True
        assert patch_mean_loss(losses, mask, np.ones((4, 4), dtype=bool)) == 0.5

    def test_fully_masked_region_is_zero(self):
        losses = np.ones((4, 4))
        mask = np.zeros((4, 4), dtype=bool)
        assert patch_mean_loss(losses, mask, np.ones((4, 4), dtype=bool)) == 0.0

    def test_shape_mismatch(self):
        losses, square = np.ones((2, 2)), np.ones((2, 2), dtype=bool)
        with pytest.raises(ValueError):
            patch_mean_loss(losses, np.ones((3, 3), dtype=bool), square)
        with pytest.raises(ValueError):  # a region grid of another shape
            patch_mean_loss(losses, square, np.ones(4, dtype=bool))
