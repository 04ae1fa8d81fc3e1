"""Patch sampler oracles: exact coverage, disjoint complement, size bounds."""

import numpy as np
import pytest

from gradtail.patches import PatchSet, patch_mean_loss, sample_patches


def covers_grid(ps):
    """Whether the regions together cover every pixel of the grid."""
    seen = np.zeros(ps.height * ps.width, dtype=bool)
    for idx in ps.regions():
        seen[idx] = True
    return bool(seen.all())


class TestSampling:
    def test_full_scale_grid_covers_all_pixels(self):
        ps = sample_patches(192, 480, np.random.default_rng(0))
        assert 192 * 480 == 92_160
        assert covers_grid(ps)
        assert len(ps.regions()) == 7

    def test_tiny_grid_clamps_and_empty_complement(self):
        ps = sample_patches(10, 10, np.random.default_rng(1))
        for r0, c0, h, w in ps.rects:
            assert (r0, c0, h, w) == (0, 0, 10, 10)
        assert ps.complement.size == 0
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
            covered = np.zeros(50 * 70, dtype=bool)
            for idx in ps.regions()[:-1]:
                covered[idx] = True
            assert not covered[ps.complement].any()

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
        np.testing.assert_array_equal(a.complement, b.complement)

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
        np.testing.assert_array_equal(ps.complement, np.arange(50, 100))


class TestPatchMeanLoss:
    def test_uniform_loss(self):
        losses = np.full((8, 8), 3.25)
        mask = np.ones((8, 8), dtype=bool)
        region = (np.arange(2, 6)[:, None] * 8 + np.arange(2, 6)[None, :]).ravel()
        assert patch_mean_loss(losses, mask, region) == 3.25

    def test_empty_region_contributes_zero(self):
        losses = np.ones((4, 4))
        mask = np.ones((4, 4), dtype=bool)
        assert patch_mean_loss(losses, mask, np.array([], dtype=np.intp)) == 0.0

    def test_checkerboard_half(self):
        losses = np.indices((6, 6)).sum(axis=0) % 2  # 0/1 checkerboard
        mask = np.ones((6, 6), dtype=bool)
        region = np.arange(36)
        assert patch_mean_loss(losses.astype(float), mask, region) == 0.5

    def test_mask_excludes_pixels(self):
        losses = np.arange(16, dtype=float).reshape(4, 4)
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[0, 1] = True
        assert patch_mean_loss(losses, mask, np.arange(16)) == 0.5

    def test_fully_masked_region_is_zero(self):
        losses = np.ones((4, 4))
        mask = np.zeros((4, 4), dtype=bool)
        assert patch_mean_loss(losses, mask, np.arange(16)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            patch_mean_loss(np.ones((2, 2)), np.ones((3, 3), dtype=bool), np.arange(4))
