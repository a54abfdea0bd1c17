"""Multi-scale contextual matching.

The target LR features are split into non-overlapping patches. For each
patch, a coarse search slides the patch's center template over the reference
LR features (cosine similarity, stride 1, all valid positions) to pick the
best-matching reference patch. Region matching then compares every r-by-r
region of the target patch against every region of the matched reference
patch, producing an index map (argmax region position) and a similarity map
(the attained maximum). Mapping onto pyramid level ``i`` copies the matched
regions out of the level-``i`` reference patch at scaled positions, blends
overlapping writes by visit count, and multiplies by the (bilinearly
upsampled) similarity weights.

Ties always break toward the smallest row-major position so repeated runs
are bit-identical.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError
from .pyramid import FeaturePyramid, _as_pyramid
from .tensor_ops import _as_feature_map, bilinear_upsample

NORM_EPS = 1e-8
_SEARCH_BAND = 4  # window rows per band of the coarse search


@dataclass(frozen=True)
class MatchConfig:
    patch_w: int = 13
    patch_h: int = 13
    center_size: int = 7
    region_size: int = 3

    def __post_init__(self):
        if min(self.patch_w, self.patch_h, self.center_size, self.region_size) < 1:
            raise ConfigError("patch, center and region sizes must be positive")
        if self.center_size > min(self.patch_w, self.patch_h):
            raise ConfigError(
                f"center template {self.center_size} exceeds patch "
                f"{self.patch_h}x{self.patch_w}"
            )
        if self.region_size > min(self.patch_w, self.patch_h):
            raise ConfigError(
                f"region size {self.region_size} exceeds patch {self.patch_h}x{self.patch_w}"
            )


@dataclass(frozen=True)
class PatchGrid:
    """Non-overlapping patch decomposition of a (reflection-padded) map."""

    patches: np.ndarray  # (N, channels, patch_h, patch_w)
    rows: int
    cols: int
    patch_h: int
    patch_w: int
    height: int  # original (pre-padding) feature size
    width: int
    padded_h: int
    padded_w: int

    def topleft(self, n):
        gy, gx = divmod(n, self.cols)
        return gy * self.patch_h, gx * self.patch_w


@dataclass(frozen=True)
class MatchResult:
    patch_index: int  # 0-based patch number, row-major over the grid
    tar_topleft: tuple  # patch corner on the padded target grid
    ref_center: tuple
    ref_topleft: tuple
    index_map: np.ndarray  # (zh, zw, 2): matched region position per target region
    similarity_map: np.ndarray  # (zh, zw): cosine similarity attained at the match


class MatchedPyramid(FeaturePyramid):
    """Matched reference features per scale, coarsest (LR scale) first."""


def partition_patches(features, cfg):
    """Split features into N = ceil(H/ph) * ceil(W/pw) non-overlapping
    patches, reflection-padding the bottom/right edges to a full tiling."""
    features = _as_feature_map(features)
    channels, h, w = features.shape
    if cfg.patch_h > h or cfg.patch_w > w:
        raise ConfigError(
            f"patch {cfg.patch_h}x{cfg.patch_w} larger than feature map {h}x{w}"
        )
    pad_h = (-h) % cfg.patch_h
    pad_w = (-w) % cfg.patch_w
    padded = features
    if pad_h or pad_w:
        padded = np.pad(features, ((0, 0), (0, pad_h), (0, pad_w)), mode="reflect")
    rows = (h + pad_h) // cfg.patch_h
    cols = (w + pad_w) // cfg.patch_w
    patches = (
        padded.reshape(channels, rows, cfg.patch_h, cols, cfg.patch_w)
        .transpose(1, 3, 0, 2, 4)
        .reshape(rows * cols, channels, cfg.patch_h, cfg.patch_w)
    )
    return PatchGrid(
        patches=patches,
        rows=rows,
        cols=cols,
        patch_h=cfg.patch_h,
        patch_w=cfg.patch_w,
        height=h,
        width=w,
        padded_h=h + pad_h,
        padded_w=w + pad_w,
    )


def _window_matrix(features, size):
    """Every stride-1 ``size x size`` window of a feature map as one
    C-contiguous row, row-major by window position, with the row norms and
    the window grid's (rows, cols)."""
    view = sliding_window_view(features, (size, size), axis=(1, 2))
    rows, cols = view.shape[1:3]
    matrix = np.ascontiguousarray(view.transpose(1, 2, 0, 3, 4).reshape(rows * cols, -1))
    return matrix, np.sqrt(np.einsum("ij,ij->i", matrix, matrix)), (rows, cols)


def _best_windows(features, templates):
    """Row-major (row, col) of the stride-1 window of ``features`` most
    cosine-similar to each template, the first occurrence on ties.

    The window matrix is built ``_SEARCH_BAND`` window rows at a time, and
    each band is scored against every template. A GEMV split into blocks of a
    multiple of 4 rows computes every score as the whole one did (OpenBLAS),
    so the bands change no bit; they keep the matrix (187 MB at a 128x128 map
    of 32 channels) from ever existing whole."""
    size = templates.shape[-1]
    rows, cols = features.shape[1] - size + 1, features.shape[2] - size + 1
    flat = templates.reshape(len(templates), -1)
    scores = np.empty((len(flat), rows * cols))
    for top in range(0, rows, _SEARCH_BAND):
        matrix, norms, _ = _window_matrix(features[:, top : top + _SEARCH_BAND + size - 1], size)
        for score, template in zip(scores[:, top * cols : top * cols + len(matrix)], flat):
            norm = np.sqrt(template @ template)
            score[:] = (matrix @ template) / ((norms + NORM_EPS) * (norm + NORM_EPS))
    return [divmod(int(np.argmax(score)), cols) for score in scores]  # first of ties


def region_match(tar_patch, ref_patch, cfg):
    """Dense region correspondence between two patches: for every target
    region position z, the reference region g maximizing cosine similarity
    (smallest row-major g on ties) and the attained value."""
    tar_patch = _as_feature_map(tar_patch)
    ref_patch = _as_feature_map(ref_patch)
    if tar_patch.shape != ref_patch.shape or cfg.region_size > min(tar_patch.shape[1:]):
        raise ConfigError(f"patch shapes {tar_patch.shape} and {ref_patch.shape} differ or "
                          f"are smaller than the region size {cfg.region_size}")
    tar_mat, tar_norms, (zh, zw) = _window_matrix(tar_patch, cfg.region_size)
    ref_mat, ref_norms, (_, gw) = _window_matrix(ref_patch, cfg.region_size)
    scores = (tar_mat @ ref_mat.T) / (
        (tar_norms + NORM_EPS)[:, None] * (ref_norms + NORM_EPS)[None, :]
    )
    best = np.argmax(scores, axis=1)  # first occurrence wins ties
    similarity_map = scores[np.arange(best.size), best].reshape(zh, zw)
    index_map = np.stack(divmod(best, gw), axis=1).reshape(zh, zw, 2).astype(np.int64)
    return index_map, similarity_map


def compute_matches(f_tar_lr, f_ref_lr, cfg):
    """Patch partition + coarse search + region matching for every patch."""
    f_tar_lr = _as_feature_map(f_tar_lr)
    f_ref_lr = _as_feature_map(f_ref_lr)
    if f_tar_lr.shape[0] != f_ref_lr.shape[0]:
        raise ConfigError("target and reference channel counts differ")
    if cfg.patch_h > f_ref_lr.shape[1] or cfg.patch_w > f_ref_lr.shape[2]:
        raise ConfigError("reference map is smaller than one patch")
    grid = partition_patches(f_tar_lr, cfg)
    # The reference patch is anchored so the matched window occupies the same
    # offset inside it as the center template does inside the target patch
    # (equal to centering for the default odd patch/template sizes).
    row0 = (cfg.patch_h - cfg.center_size) // 2
    col0 = (cfg.patch_w - cfg.center_size) // 2
    templates = grid.patches[:, :, row0 : row0 + cfg.center_size, col0 : col0 + cfg.center_size]
    h, w = f_ref_lr.shape[1:]
    results = []
    for n, (win_row, win_col) in enumerate(_best_windows(f_ref_lr, templates)):
        patch = grid.patches[n]
        center = (win_row + cfg.center_size // 2, win_col + cfg.center_size // 2)
        top = min(max(win_row - row0, 0), h - cfg.patch_h)
        left = min(max(win_col - col0, 0), w - cfg.patch_w)
        ref_patch = f_ref_lr[:, top : top + cfg.patch_h, left : left + cfg.patch_w]
        index_map, similarity_map = region_match(patch, ref_patch, cfg)
        results.append(
            MatchResult(
                patch_index=n,
                tar_topleft=grid.topleft(n),
                ref_center=center,
                ref_topleft=(top, left),
                index_map=index_map,
                similarity_map=similarity_map,
            )
        )
    return results, grid


def _assemble_patch(result, ref_patch_scaled, cfg, scale):
    """Rearrange matched regions into the target layout at one scale and
    weight them by the similarity map.

    Content writes overlap (stride-1 regions); both the feature values and
    the similarity values are blended by visit count, which makes the
    self-match case reproduce the target patch exactly. The blended
    similarity plane lives on the LR patch grid and is bilinearly upsampled
    before the elementwise multiply when ``scale > 1``.
    """
    r = cfg.region_size
    u = scale
    channels = ref_patch_scaled.shape[0]
    sim = result.similarity_map
    zh, zw = sim.shape
    content = np.zeros((channels, cfg.patch_h * u, cfg.patch_w * u))
    hits = np.zeros((cfg.patch_h * u, cfg.patch_w * u))
    sim_acc = np.zeros((cfg.patch_h, cfg.patch_w))
    sim_hits = np.zeros((cfg.patch_h, cfg.patch_w))
    for zr in range(zh):
        for zc in range(zw):
            gr, gc = result.index_map[zr, zc]
            content[:, zr * u : (zr + r) * u, zc * u : (zc + r) * u] += ref_patch_scaled[
                :, gr * u : (gr + r) * u, gc * u : (gc + r) * u
            ]
            hits[zr * u : (zr + r) * u, zc * u : (zc + r) * u] += 1.0
            sim_acc[zr : zr + r, zc : zc + r] += sim[zr, zc]
            sim_hits[zr : zr + r, zc : zc + r] += 1.0
    content /= hits
    plane = sim_acc / sim_hits
    if u > 1:
        plane = bilinear_upsample(plane[None], u)[0]
    return content * plane[None]


def map_to_scale(results, grid, pyramid, level, cfg):
    """Matched reference features at pyramid level ``level`` (1-based).

    The level-``i`` reference patch is the LR match's clamped corner scaled
    by ``u_i = 2**(i-1)``, so content stays aligned with the LR-scale match.
    """
    pyramid = _as_pyramid(pyramid)
    if not 1 <= level <= pyramid.num_levels:
        raise ConfigError(f"pyramid has {pyramid.num_levels} levels, asked for {level}")
    u = 2 ** (level - 1)
    features = pyramid.levels[level - 1]
    channels = features.shape[0]
    canvas = np.zeros((channels, grid.padded_h * u, grid.padded_w * u))
    for result in results:
        top, left = result.ref_topleft
        ref_patch = features[
            :, top * u : (top + cfg.patch_h) * u, left * u : (left + cfg.patch_w) * u
        ]
        if ref_patch.shape[1:] != (cfg.patch_h * u, cfg.patch_w * u):
            raise ConfigError(f"pyramid level {level} of size {features.shape[1:]} cuts "
                              f"the reference patch at {(top * u, left * u)} short")
        block = _assemble_patch(result, ref_patch, cfg, u)
        ty, tx = result.tar_topleft
        canvas[:, ty * u : (ty + cfg.patch_h) * u, tx * u : (tx + cfg.patch_w) * u] = block
    return canvas[:, : grid.height * u, : grid.width * u]


def match_all(f_tar_lr, f_ref_lr, pyramid, cfg):
    """Full matching pipeline: partition, coarse search, region matching and
    mapping onto every pyramid scale."""
    f_tar_lr = _as_feature_map(f_tar_lr)
    f_ref_lr = _as_feature_map(f_ref_lr)
    base = _as_pyramid(pyramid).levels[0]
    if f_tar_lr.shape != f_ref_lr.shape or f_tar_lr.shape != base.shape:
        raise ConfigError(
            "target LR, reference LR and pyramid level 1 must share shape: "
            f"{f_tar_lr.shape}, {f_ref_lr.shape}, {base.shape}"
        )
    results, grid = compute_matches(f_tar_lr, f_ref_lr, cfg)
    levels = tuple(
        map_to_scale(results, grid, pyramid, level, cfg)
        for level in range(1, pyramid.num_levels + 1)
    )
    return MatchedPyramid(levels)
