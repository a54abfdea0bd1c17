import warnings
from dataclasses import replace

import numpy as np
import pytest
from oracles import (coarse_match_reference, compute_matches_reference, matched_level1_reference,
                     region_match_reference)
from prior_kernels import map_to_scale_by_region
from support import on_recording_blas, recording_score_bands, run_child

from mcsr import matching, tensor_ops
from mcsr.errors import InputError
from mcsr.matching import MatchConfig, compute_matches, map_to_scale, partition_patches, region_match
from mcsr.pyramid import FeaturePyramid
from mcsr.tensor_ops import bilinear_upsample

DEFAULT = MatchConfig()
SMALL = MatchConfig(patch_size=6, center_size=3, region_size=2)


# Per region count, the digests of region_match's bits over 20 random 32-channel
# patch pairs, and of the same argmax over one unblocked score GEMM, reference
# regions as its rows.
REGION_BITS = """
import hashlib, json
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from mcsr.matching import NORM_EPS, MatchConfig, region_match

def regions(patch):  # every 3x3 region as a row, (channel, ky, kx), and its norm
    rows = sliding_window_view(patch, (3, 3), axis=(1, 2)).transpose(1, 2, 0, 3, 4)
    rows = rows.reshape(-1, len(patch) * 9)
    return rows, np.sqrt(np.einsum("ij,ij->i", rows, rows)) + NORM_EPS

bits = {}
for side in (8, 11, 13, 15):
    cfg = MatchConfig(patch_size=side, center_size=3, region_size=3)
    rng = np.random.default_rng(side)
    blocked, unblocked = hashlib.sha256(), hashlib.sha256()
    for _ in range(20):
        tar, ref = rng.standard_normal((2, 32, side, side))
        index_map, similarity_map = region_match(tar, ref, cfg)
        blocked.update(index_map[..., 0] * (side - 2) + index_map[..., 1])
        blocked.update(similarity_map)
        (tar_mat, tar_norms), (ref_mat, ref_norms) = regions(tar), regions(ref)
        scores = (ref_mat @ tar_mat.T) / (ref_norms[:, None] * tar_norms)
        best = np.argmax(scores, axis=0).astype(np.int64)
        unblocked.update(best.reshape(side - 2, side - 2))
        unblocked.update(scores[best, np.arange(best.size)].reshape(side - 2, side - 2))
    bits[(side - 2) ** 2] = [blocked.hexdigest(), unblocked.hexdigest()]
print(json.dumps(bits))
"""


# The seeds, of 300 periodic patch pairs, whose region_match index map is not
# the exhaustive oracle's. Every target region has byte-equal copies among the
# reference regions: the period fits in the region grid, and a roll leaves a
# whole period of regions clear of its seam. So the first copy must win.
REGION_TIES = """
import json
import numpy as np
from oracles import region_match_reference
from mcsr.matching import MatchConfig, region_match

wrong = []
for seed in range(300):
    rng = np.random.default_rng(seed)
    channels, patch, region = (int(rng.integers(low, high)) for low, high in ((1, 33), (4, 16), (1, 5)))
    cfg = MatchConfig(patch_size=patch, center_size=1, region_size=region)
    period = rng.integers(1, min(4, patch - region + 1) + 1, size=2)
    plane = np.tile(rng.standard_normal((channels, *period)), (1, 2 * patch, 2 * patch))
    top, left = rng.integers(0, patch, size=2)
    tar, ref = plane[:, top : top + patch, left : left + patch], plane[:, :patch, :patch]
    if seed % 3 == 0:
        ref = np.roll(ref, tuple(rng.integers(0, patch - region + 2 - period)), axis=(1, 2))
    if not np.array_equal(region_match(tar, ref, cfg)[0], region_match_reference(tar, ref, cfg)[0]):
        wrong.append(seed)
print(json.dumps(wrong))
"""


# Per template depth K and template count, the coarse search's picks and the
# digest of its score bands, in window order, on a random map.
SEARCH_BITS = """
import hashlib, json
import numpy as np
from mcsr import matching
from support import recording_score_bands

bands = {}
matching._conv_core = recording_score_bands(bands)
bits = {}
for channels, side, count in ((1, 33, 5), (8, 45, 30), (12, 45, 65), (20, 45, 30), (32, 64, 100),
                             (32, 64, 1)):
    rng = np.random.default_rng(channels)
    features = rng.standard_normal((channels, side, side))
    templates = rng.standard_normal((count, channels, 7, 7))
    bands.clear()
    picks = matching._best_windows(features, templates)[0]
    digest = hashlib.sha256()
    for top in sorted(bands):
        digest.update(bands[top])
    bits[f"K{channels * 49} x{count}"] = [picks, digest.hexdigest()]
print(json.dumps(bits))
"""


def patch_corner(grid, n, cfg):
    """Corner of patch ``n`` on the padded map: patches are numbered row-major."""
    gy, gx = divmod(n, grid.cols)
    return gy * cfg.patch_size, gx * cfg.patch_size


class TestPartition:
    def test_default_patch_on_64(self):
        rng = np.random.default_rng(0)
        patches, grid = partition_patches(rng.standard_normal((2, 64, 64)), DEFAULT)
        assert (grid.rows, grid.cols, grid.height, grid.width) == (5, 5, 64, 64)  # padded to 65²
        assert patches.shape == (25, 2, 13, 13)

    def test_exact_tiling(self):
        rng = np.random.default_rng(1)
        patches, grid = partition_patches(rng.standard_normal((1, 26, 26)), DEFAULT)
        assert patches.shape[0] == 4
        assert (grid.rows, grid.cols, grid.height, grid.width) == (2, 2, 26, 26)

    def test_patches_are_slices_of_padded_map(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 20, 17))
        patches, grid = partition_patches(x, SMALL)
        padded = np.pad(x, ((0, 0), (0, 4), (0, 1)), mode="reflect")
        assert (grid.rows * 6, grid.cols * 6) == padded.shape[1:] == (24, 18)
        assert patches.shape == (12, 3, 6, 6)
        for n in range(12):
            ty, tx = patch_corner(grid, n, SMALL)
            assert np.array_equal(patches[n], padded[:, ty : ty + 6, tx : tx + 6])

    def test_patch_larger_than_map_rejected(self):
        with pytest.raises(InputError):
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
        ty, tx = patch_corner(grid, n, cfg)
        offset = (cfg.patch_size - cfg.center_size) // 2
        assert results[n].ref_center == (ty + offset + 1, tx + offset + 1)
        assert results[n].ref_topleft == (ty, tx)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(4)
        cfg = MatchConfig(patch_size=5, center_size=3, region_size=2)
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
        for band_bytes in (1, tensor_ops._BAND_BYTES, 1 << 40):  # the floor's bands, the default, one band
            monkeypatch.setattr(tensor_ops, "_BAND_BYTES", band_bytes)
            matches, _ = compute_matches(tar, ref, SMALL)
            results.append([(match.ref_center, match.ref_topleft) for match in matches])
        assert results[0] == results[1] == results[2]

    def test_zero_reference_tie_rule(self):
        rng = np.random.default_rng(5)
        cfg = MatchConfig(patch_size=5, center_size=3, region_size=2)
        patch = rng.standard_normal((1, 5, 5))
        (match,), _ = compute_matches(patch, np.zeros((1, 12, 12)), cfg)
        assert match.ref_center == (1, 1)  # first valid window, reported at its center
        assert match.ref_topleft == (0, 0)
        assert np.all(match.similarity_map == 0.0)


def window_copies(features, size, window):
    """Row-major positions of every stride-1 window of ``features`` byte-equal
    to the one at ``window``."""
    views = np.lib.stride_tricks.sliding_window_view(features, (size, size), axis=(1, 2))
    equal = np.all(views == views[:, window[0], window[1]][:, None, None], axis=(0, 3, 4))
    return [tuple(int(i) for i in position) for position in np.argwhere(equal)]


def search_scores(monkeypatch, features, templates):
    """``_best_windows``'s picks and the (windows, templates) score matrix it
    built, band by band, through ``_conv_core``."""
    bands = {}
    monkeypatch.setattr(matching, "_conv_core", recording_score_bands(bands))
    picks = matching._best_windows(features, templates)[0]
    return picks, np.concatenate([bands[top] for top in sorted(bands)])


def tie_case(seed):
    """Seed ``seed``'s map of the tie sweep: random rows above a periodic
    tail that runs to the last row, and templates that are copies of windows
    in the tail. Channels, width and template count cycle with the seed."""
    rng = np.random.default_rng(seed)
    channels, width = (1, 4, 8, 32)[seed % 4], (20, 33, 45, 71, 100)[seed // 4 % 5]
    height = int(rng.integers(12, 40))
    features = rng.standard_normal((channels, height, width))
    period = rng.integers(2, 5, size=2)
    start = int(rng.integers(0, height - 10))
    tile = rng.standard_normal((channels, *period))
    features[:, start:] = np.tile(tile, (1, height // period[0] + 1, width // period[1] + 1))[
        :, : height - start, :width]
    count = 2 + seed % 24
    windows = list(zip(rng.integers(start, height - 6, count), rng.integers(0, width - 6, count)))
    return features, np.stack([features[:, r : r + 7, c : c + 7] for r, c in windows]), windows


def final_band_duplicates():
    """Rows 5-39 repeat with period 3 down and 2 across, to the last row: the
    7x7 window at (6, 1) recurs 190 times, the last time at (33, 37), next to
    the map's last window."""
    rng = np.random.default_rng(4)
    features = rng.standard_normal((4, 40, 45))
    tile = rng.standard_normal((4, 3, 2))
    features[:, 5:] = np.tile(tile, (1, 12, 23))[:, 1:36, :45]
    template = features[None, :, 6:13, 1:8]
    assert np.array_equal(template[0], features[:, 33:40, 37:44])
    return features, template


class TestCoarseSearchBits:
    """Ties in the coarse search: byte-equal windows get equal score bits
    wherever their band and their row of the GEMM fall, so the first wins."""

    @pytest.mark.parametrize("band_bytes, seed", [(1, 4), (tensor_ops._BAND_BYTES, 8), (1 << 40, 20)],
                             ids=["floor", "budget", "whole"])
    def test_duplicated_windows_pick_the_first(self, monkeypatch, band_bytes, seed):
        # Rows 5-35 repeat with period 3 down and 2 across, so the window at
        # (5, 0) recurs at every third window row (across the floor's band
        # edge at window row 12) and every second column. The last rows are
        # left random; final_band_duplicates repeats them too.
        monkeypatch.setattr(tensor_ops, "_BAND_BYTES", band_bytes)
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((4, 40, 45))
        tile = rng.standard_normal((4, 3, 2))
        features[:, 5:36] = np.tile(tile, (1, 11, 23))[:, 1:32, :45]
        templates = np.stack([features[:, 5:12, :7], features[:, 6:13, 1:8], rng.standard_normal((4, 7, 7))])
        picks, scores = search_scores(monkeypatch, features, templates)
        assert picks[:2] == [(5, 0), (6, 1)]
        for n, first in enumerate(picks[:2]):
            copies = [r * 39 + c for r, c in window_copies(features, 7, first)]
            assert len(copies) > 100
            assert np.all(scores[copies, n] == np.max(scores[:, n]))

    @pytest.mark.parametrize("band_bytes", [1, tensor_ops._BAND_BYTES, 1 << 40],
                             ids=["floor", "budget", "whole"])  # bands at the floor, 4 MiB, one band
    def test_constant_map_picks_the_first_window(self, monkeypatch, band_bytes):
        monkeypatch.setattr(tensor_ops, "_BAND_BYTES", band_bytes)
        features = np.full((3, 30, 31), 0.25)
        templates = np.random.default_rng(4).standard_normal((5, 3, 7, 7))
        picks, scores = search_scores(monkeypatch, features, templates)
        assert np.all(scores == scores[:1])
        assert picks == [(0, 0)] * 5

    @on_recording_blas
    def test_tie_sweep_picks_the_first_copy(self):
        # 100 maps: 1, 4, 8 and 32 channels, widths 20-100, 2-25 templates.
        # Scoring templates x windows (windows as the GEMM's columns) picked
        # a later copy in some of these.
        wrong = []
        for seed in range(100):
            features, templates, windows = tie_case(seed)
            firsts = [window_copies(features, 7, window)[0] for window in windows]
            if matching._best_windows(features, templates)[0] != firsts:
                wrong.append(seed)
        assert wrong == []

    def test_duplicate_in_final_band_remainder_picks_the_first_of_several_templates(self):
        features, template = final_band_duplicates()
        assert matching._best_windows(features, np.concatenate([template, template]))[0] == [(6, 1)] * 2

    def test_duplicate_in_final_band_remainder_picks_the_first(self):
        # Scored alone, as a GEMV, the template would meet OpenBLAS's remainder
        # path, which sums a band's last len % 4 windows apart and scored the
        # copy at (33, 37) 0.9999999986487957 against the other 189 copies'
        # 0.9999999986487953; a zero template beside it makes the call a GEMM.
        features, template = final_band_duplicates()
        assert matching._best_windows(features, template)[0] == [(6, 1)]

    @on_recording_blas
    def test_bits_do_not_depend_on_blas_threads(self):
        # K = channels x 7² = 49, 392, 588, 980 and 1568; 392 and 588, and
        # 980's rest after one 384-deep slab, lie where OpenBLAS cuts a GEMM's
        # depth at a thread-dependent point. A threaded GEMV of one template
        # (or of the 65th) would cut its windows too.
        one, two = (run_child(SEARCH_BITS, threads) for threads in ("1", "2"))
        assert list(one) == ["K49 x5", "K392 x30", "K588 x65", "K980 x30", "K1568 x100", "K1568 x1"]
        assert [k for k in one if one[k] != two[k]] == [], "the bits depend on the threads"


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

    @on_recording_blas
    def test_periodic_pairs_pick_the_first_copy(self):
        # Scoring target regions x reference regions (reference regions as the
        # GEMM's columns) picked a later copy in 2 of these. The child runs 1
        # OpenBLAS thread: at 2, a 49-region match still may (README, Threads).
        assert run_child(REGION_TIES, "1") == []

    @on_recording_blas
    def test_bits_do_not_depend_on_blas_threads(self):
        # 6², 9², 11² and 13² regions. One unblocked score GEMM rounds differently
        # at 2 OpenBLAS threads from 81 regions up; the 64-region blocks do not.
        one, two = (run_child(REGION_BITS, threads) for threads in ("1", "2"))
        assert list(one) == ["36", "81", "121", "169"]
        assert [n for n in one if one[n][0] != one[n][1]] == [], "blocking moved the 1-thread bits"
        assert [n for n in one if one[n][0] != two[n][0]] == [], "the bits depend on the threads"


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
        zeroed = [replace(r, similarity_map=np.zeros_like(r.similarity_map)) for r in results]
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
        with pytest.raises(InputError):
            map_to_scale(results, grid, FeaturePyramid((base,)), 2, SMALL)

    @pytest.mark.parametrize("keep", [3, 0])  # one patch short of the 2x2 grid; none at all
    def test_results_not_one_per_patch_rejected(self, keep):
        rng = np.random.default_rng(12)
        base = rng.standard_normal((2, 12, 12))
        results, grid = compute_matches(base, base, SMALL)
        assert len(results) == 4
        with pytest.raises(InputError, match=f"{keep} matches for a 2x2 patch grid"):
            map_to_scale(results[:keep], grid, FeaturePyramid((base,)), 1, SMALL)

    # matched with 6x6 patches, center 3 and region 3; mapped with another config,
    # these ended in a broadcast ValueError, an IndexError and a map of NaNs
    @pytest.mark.parametrize("changes", [
        pytest.param(dict(patch_size=5), id="patch 5"),
        pytest.param(dict(region_size=4), id="region 4"), pytest.param(dict(region_size=2), id="region 2")])
    def test_config_other_than_the_matches_rejected(self, changes):
        features = np.random.default_rng(13).standard_normal((2, 26, 26))
        made = MatchConfig(patch_size=6, center_size=3, region_size=3)
        results, grid = compute_matches(features, features, made)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="25 matches for a 5x5 patch grid do not fit"):
                map_to_scale(results, grid, FeaturePyramid((features,)), 1,
                             replace(made, **changes))


class TestAssemblyBits:
    """Region assembly by offset against adding one region at a time, the
    loop it replaced: ``map_to_scale`` gives equal bits at every level."""

    # 13x13 patches: a padded 3x3 grid at UF 2 and UF 4, and 2x4 and 4x2 grids,
    # where a placement that swaps the grid's rows and columns shows.
    @pytest.mark.parametrize("levels,shape,grid_shape", [
        pytest.param(2, (30, 33), (3, 3), id="2"), pytest.param(3, (30, 33), (3, 3), id="3"),
        pytest.param(3, (20, 45), (2, 4), id="2x4"), pytest.param(3, (45, 20), (4, 2), id="4x2")])
    def test_map_to_scale_matches_region_loop(self, levels, shape, grid_shape):
        rng = np.random.default_rng(levels)
        h, w = shape
        f_tar = rng.standard_normal((8, h, w))
        pyramid = FeaturePyramid(tuple(
            rng.standard_normal((h * 2**i, w * 2**i, 8)).transpose(2, 0, 1)
            for i in range(levels)))
        results, grid = compute_matches(f_tar, pyramid.levels[0], DEFAULT)
        assert (grid.rows, grid.cols) == grid_shape
        assert (grid.height, grid.width) == shape
        # Negative weights: every other patch's similarities flipped in sign.
        results = [replace(r, similarity_map=-r.similarity_map) if n % 2 else r
                   for n, r in enumerate(results)]
        assert min(np.min(r.similarity_map) for r in results) < 0
        for level in range(1, levels + 1):
            got = map_to_scale(results, grid, pyramid, level, DEFAULT)
            want = map_to_scale_by_region(results, grid, pyramid, level, DEFAULT)
            assert np.array_equal(got, want), level
            assert got.strides == want.strides, level


class TestMatchAll:
    """Matching end to end: ``compute_matches`` once, then ``map_to_scale`` per level."""

    def test_self_match_full_pipeline(self):
        rng = np.random.default_rng(13)
        features = rng.standard_normal((2, 39, 39))
        results, grid = compute_matches(features, features, DEFAULT)
        matched = map_to_scale(results, grid, FeaturePyramid((features,)), 1, DEFAULT)
        assert np.max(np.abs(matched - features)) <= 1e-4

    def test_scale_chain_shapes(self):
        rng = np.random.default_rng(14)
        base = rng.standard_normal((2, 12, 12))
        pyramid = FeaturePyramid(
            (base, bilinear_upsample(base, 2), bilinear_upsample(base, 4))
        )
        results, grid = compute_matches(base, base, SMALL)
        assert [map_to_scale(results, grid, pyramid, level, SMALL).shape for level in (1, 2, 3)] == [
            (2, 12, 12), (2, 24, 24), (2, 48, 48)
        ]

    def test_patch_count_on_padded_map(self):
        rng = np.random.default_rng(15)
        features = rng.standard_normal((1, 64, 64))
        results, grid = compute_matches(features, features, DEFAULT)
        assert len(results) == 25
        assert (grid.rows * 13, grid.cols * 13) == (65, 65)


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
            cfg = MatchConfig(patch_size=patch, center_size=center, region_size=region)
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
        offset = (cfg.patch_size - cfg.center_size) // 2 + cfg.center_size // 2
        for n, result in enumerate(results):
            ty, tx = patch_corner(grid, n, cfg)
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
        cfg = MatchConfig(patch_size=6, center_size=3, region_size=2)
        results, grid = compute_matches(f_tar, f_ref, cfg)
        matched = map_to_scale(results, grid, FeaturePyramid((f_ref,)), 1, cfg)
        # similarities are -1 everywhere, so F_M is the reference sign-flipped
        assert np.max(np.abs(matched - 0.5)) <= 1e-6
