import numpy as np
import pytest

from mcsr import matching
from mcsr.errors import ConfigError
from mcsr.matching import (MatchConfig, MatchResult, compute_matches, map_to_scale, match_all,
                           partition_patches, region_match)
from mcsr.oracles import (coarse_match_reference, compute_matches_reference,
                          matched_level1_reference, region_match_reference)
from mcsr.pyramid import FeaturePyramid
from mcsr.tensor_ops import bilinear_upsample

DEFAULT = MatchConfig()
SMALL = MatchConfig(patch_w=6, patch_h=6, center_size=3, region_size=2)


class TestPartition:
    def test_default_patch_on_64(self):
        rng = np.random.default_rng(0)
        grid = partition_patches(rng.standard_normal((2, 64, 64)), DEFAULT)
        assert (grid.padded_h, grid.padded_w) == (65, 65)
        assert grid.patches.shape == (25, 2, 13, 13)

    def test_exact_tiling(self):
        rng = np.random.default_rng(1)
        grid = partition_patches(rng.standard_normal((1, 26, 26)), DEFAULT)
        assert grid.patches.shape[0] == 4
        assert (grid.padded_h, grid.padded_w) == (26, 26)

    def test_patches_are_slices_of_padded_map(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 20, 17))
        grid = partition_patches(x, SMALL)
        padded = np.pad(x, ((0, 0), (0, 4), (0, 1)), mode="reflect")
        assert (grid.rows, grid.cols, grid.padded_h, grid.padded_w) == (4, 3, 24, 18)
        assert grid.patches.shape == (12, 3, 6, 6)
        for n in range(12):
            ty, tx = grid.topleft(n)
            assert np.array_equal(grid.patches[n], padded[:, ty : ty + 6, tx : tx + 6])

    def test_patch_larger_than_map_rejected(self):
        with pytest.raises(ConfigError):
            partition_patches(np.zeros((1, 8, 8)), DEFAULT)


class TestCoarseMatch:
    """The coarse search as ``compute_matches`` runs it: each result's
    reference center and clamped patch corner."""

    def test_self_match_recovers_center(self):
        rng = np.random.default_rng(3)
        features = rng.standard_normal((2, 24, 24))
        cfg = SMALL
        results, grid = compute_matches(features, features, cfg)
        n = 5  # interior patch
        ty, tx = grid.topleft(n)
        row0 = (cfg.patch_h - cfg.center_size) // 2
        assert results[n].ref_center == (ty + row0 + 1, tx + row0 + 1)
        assert results[n].ref_topleft == (ty, tx)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(4)
        cfg = MatchConfig(patch_w=5, patch_h=5, center_size=3, region_size=2)
        for _ in range(10):
            ref = rng.uniform(-1, 1, size=(1, 16, 16))
            patch = rng.uniform(-1, 1, size=(1, 5, 5))  # a one-patch target
            (got,), _ = compute_matches(patch, ref, cfg)
            center, topleft, _ = coarse_match_reference(patch, ref, cfg)
            assert got.ref_center == center
            assert got.ref_topleft == topleft

    def test_search_bands_change_no_window(self, monkeypatch):
        rng = np.random.default_rng(6)
        tar, ref = rng.standard_normal((8, 45, 77)), rng.standard_normal((8, 45, 77))
        ref[:, :12, :12] = 0.5  # equal windows tie exactly
        tar[:, :12, :12] = 0.5
        results = []
        for band in (matching._SEARCH_BAND, 8, 10**6):  # 10**6: the whole matrix at once
            monkeypatch.setattr(matching, "_SEARCH_BAND", band)
            matches, _ = compute_matches(tar, ref, SMALL)
            results.append([(match.ref_center, match.ref_topleft) for match in matches])
        assert results[0] == results[1] == results[2]

    def test_zero_reference_tie_rule(self):
        rng = np.random.default_rng(5)
        cfg = MatchConfig(patch_w=5, patch_h=5, center_size=3, region_size=2)
        patch = rng.standard_normal((1, 5, 5))
        (match,), _ = compute_matches(patch, np.zeros((1, 12, 12)), cfg)
        assert match.ref_center == (1, 1)  # first valid window, reported at its center
        assert match.ref_topleft == (0, 0)
        assert np.all(match.similarity_map == 0.0)


class TestRegionMatch:
    def test_self_match(self):
        rng = np.random.default_rng(6)
        patch = rng.standard_normal((2, 6, 6))
        index_map, similarity_map = region_match(patch, patch, SMALL)
        zh, zw = similarity_map.shape
        assert (zh, zw) == (5, 5)
        for zr in range(zh):
            for zc in range(zw):
                assert tuple(index_map[zr, zc]) == (zr, zc)
        assert np.max(np.abs(similarity_map - 1.0)) <= 1e-6

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            tar = rng.uniform(-1, 1, size=(1, 6, 6))
            ref = rng.uniform(-1, 1, size=(1, 6, 6))
            index_map, similarity_map = region_match(tar, ref, SMALL)
            want_idx, want_sim = region_match_reference(tar, ref, SMALL)
            assert np.array_equal(index_map, want_idx)
            assert np.max(np.abs(similarity_map - want_sim)) <= 1e-6

    def test_anti_correlated_regions(self):
        # every reference region is the negation of every (constant) target
        # region, so the attained maximum itself is -1
        tar = np.full((1, 6, 6), 0.8)
        ref = np.full((1, 6, 6), -0.5)
        _, similarity_map = region_match(tar, ref, SMALL)
        assert np.max(np.abs(similarity_map + 1.0)) <= 1e-6


class TestMapToScale:
    def test_self_match_identity_level1(self):
        rng = np.random.default_rng(9)
        features = rng.standard_normal((2, 12, 12))
        results, grid = compute_matches(features, features, SMALL)
        out = map_to_scale(results, grid, FeaturePyramid((features,)), 1, SMALL)
        assert np.max(np.abs(out - features)) <= 1e-5

    def test_zero_similarity_annihilates(self):
        rng = np.random.default_rng(10)
        features = rng.standard_normal((2, 12, 12))
        results, grid = compute_matches(features, features, SMALL)
        zeroed = [
            MatchResult(r.patch_index, r.tar_topleft, r.ref_center, r.ref_topleft,
                        r.index_map, np.zeros_like(r.similarity_map))
            for r in results
        ]
        out = map_to_scale(zeroed, grid, FeaturePyramid((features,)), 1, SMALL)
        assert np.all(out == 0.0)

    def test_level2_shape(self):
        rng = np.random.default_rng(11)
        base = rng.standard_normal((2, 12, 12))
        pyramid = FeaturePyramid((base, bilinear_upsample(base, 2)))
        results, grid = compute_matches(base, base, SMALL)
        out = map_to_scale(results, grid, pyramid, 2, SMALL)
        assert out.shape == (2, 24, 24)

    def test_level_out_of_range(self):
        rng = np.random.default_rng(12)
        base = rng.standard_normal((2, 12, 12))
        results, grid = compute_matches(base, base, SMALL)
        with pytest.raises(ConfigError):
            map_to_scale(results, grid, FeaturePyramid((base,)), 2, SMALL)


class TestMatchAll:
    def test_self_match_full_pipeline(self):
        rng = np.random.default_rng(13)
        features = rng.standard_normal((2, 39, 39))
        pyramid = FeaturePyramid((features,))
        matched = match_all(features, features, pyramid, DEFAULT)
        assert np.max(np.abs(matched.levels[0] - features)) <= 1e-4

    def test_scale_chain_shapes(self):
        rng = np.random.default_rng(14)
        base = rng.standard_normal((2, 12, 12))
        pyramid = FeaturePyramid(
            (base, bilinear_upsample(base, 2), bilinear_upsample(base, 4))
        )
        matched = match_all(base, base, pyramid, SMALL)
        assert [level.shape for level in matched.levels] == [
            (2, 12, 12), (2, 24, 24), (2, 48, 48)
        ]

    def test_patch_count_on_padded_map(self):
        rng = np.random.default_rng(15)
        features = rng.standard_normal((1, 64, 64))
        results, grid = compute_matches(features, features, DEFAULT)
        assert len(results) == 25
        assert (grid.padded_h, grid.padded_w) == (65, 65)

    def test_shape_contract_enforced(self):
        rng = np.random.default_rng(16)
        base = rng.standard_normal((2, 12, 12))
        with pytest.raises(ConfigError):
            match_all(base, rng.standard_normal((2, 14, 14)), FeaturePyramid((base,)), SMALL)


class TestOracleEquivalence:
    def test_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            channels = int(rng.integers(1, 3))
            h = int(rng.integers(8, 21))
            w = int(rng.integers(8, 21))
            patch = int(rng.integers(3, min(9, h + 1, w + 1)))
            center = int(rng.integers(1, patch + 1))
            region = int(rng.integers(1, min(4, patch + 1)))
            cfg = MatchConfig(patch_w=patch, patch_h=patch, center_size=center,
                              region_size=region)
            f_tar = rng.uniform(-1, 1, size=(channels, h, w))
            f_ref = rng.uniform(-1, 1, size=(channels, h, w))
            results, grid = compute_matches(f_tar, f_ref, cfg)
            wants = compute_matches_reference(f_tar, f_ref, cfg)
            assert len(results) == len(wants)
            for result, want in zip(results, wants):
                assert result.ref_center == want["center"]
                assert result.ref_topleft == want["topleft"]
                assert np.array_equal(result.index_map, want["index_map"])
                assert np.max(np.abs(result.similarity_map - want["similarity_map"])) <= 1e-6
            got_level1 = map_to_scale(results, grid, FeaturePyramid((f_ref,)), 1, cfg)
            want_level1 = matched_level1_reference(f_tar, f_ref, f_ref, cfg)
            assert np.max(np.abs(got_level1 - want_level1)) <= 1e-6

    def test_similarity_bounds(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            f_tar = rng.standard_normal((2, 14, 14)) * rng.uniform(0.1, 10)
            f_ref = rng.standard_normal((2, 14, 14)) * rng.uniform(0.1, 10)
            results, _ = compute_matches(f_tar, f_ref, SMALL)
            for result in results:
                assert np.all(result.similarity_map >= -1.0 - 1e-6)
                assert np.all(result.similarity_map <= 1.0 + 1e-6)

    def test_cosine_scale_invariance(self):
        rng = np.random.default_rng(19)
        f_tar = rng.standard_normal((2, 12, 12))
        f_ref = rng.standard_normal((2, 12, 12))
        base, _ = compute_matches(f_tar, f_ref, SMALL)
        for scalar in (0.03, 7.5):
            scaled, _ = compute_matches(f_tar, scalar * f_ref, SMALL)
            for a, b in zip(base, scaled):
                assert np.array_equal(a.index_map, b.index_map)
                assert np.max(np.abs(a.similarity_map - b.similarity_map)) <= 1e-6

    def test_translation_consistency(self):
        rng = np.random.default_rng(20)
        f_tar = rng.standard_normal((1, 26, 26))
        shift = (2, 3)
        f_ref = np.roll(f_tar, shift, axis=(1, 2))
        cfg = DEFAULT
        results, grid = compute_matches(f_tar, f_ref, cfg)
        row0 = (cfg.patch_h - cfg.center_size) // 2
        offset = row0 + cfg.center_size // 2
        for result in results:
            ty, tx = result.tar_topleft
            # template centers stay clear of the wrap for this size/shift
            assert result.ref_center == (ty + offset + shift[0], tx + offset + shift[1])

    def test_tie_determinism_on_constant_maps(self):
        features = np.ones((1, 12, 12))
        first, _ = compute_matches(features, features, SMALL)
        second, _ = compute_matches(features, features, SMALL)
        for a, b in zip(first, second):
            assert np.array_equal(a.index_map, b.index_map)
            assert a.ref_center == b.ref_center
        # every argmax resolved to the smallest row-major candidate
        for result in first:
            assert result.ref_center == (1, 1)
            assert np.all(result.index_map[:, :, 0] == 0)
            assert np.all(result.index_map[:, :, 1] == 0)

    def test_negative_similarity_weights_stay_signed(self):
        f_tar = np.full((1, 12, 12), 0.8)
        f_ref = np.full((1, 12, 12), -0.5)
        cfg = MatchConfig(patch_w=6, patch_h=6, center_size=3, region_size=2)
        matched = match_all(f_tar, f_ref, FeaturePyramid((f_ref,)), cfg)
        # similarities are -1 everywhere, so F_M is the reference sign-flipped
        assert np.max(np.abs(matched.levels[0] - 0.5)) <= 1e-6
