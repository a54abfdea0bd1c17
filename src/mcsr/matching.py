"""Multi-scale contextual matching.

The target LR features are split into non-overlapping patches. For each
patch, a coarse search slides the patch's center template over the reference
LR features (cosine similarity, stride 1, all valid positions) to pick the
best-matching reference patch. Region matching then runs the same search in
the matched reference patch, with each r-by-r region of the target patch as a
template: an index map (argmax region position) and a similarity map (the
attained maximum). ``compute_matches`` does all of this once, at the LR scale.
``map_to_scale`` then builds one pyramid level's matched features, when that
level's aggregation stage reads them: it copies the matched regions out of the
level-``i`` reference patch at scaled positions, blends overlapping writes by
visit count, and multiplies by the (bilinearly upsampled) similarity weights.

Repeated runs are bit-identical. Ties break toward the smallest row-major
position: both stages are one window search, ``_best_windows``, which scores
with ``tensor_ops``'s banded driver, laid out so that OpenBLAS gives equal
windows equal bits wherever they sit.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, check_field_types
from .pyramid import FeaturePyramid, _as_pyramid
from .tensor_ops import (_GEMM_BLOCK, ConvSpec, _as_feature_map, _conv_core, _least_rows,
                         bilinear_upsample)

NORM_EPS = 1e-8


@dataclass(frozen=True)
class MatchConfig:
    patch_size: int = 13
    center_size: int = 7
    region_size: int = 3

    def __post_init__(self):
        check_field_types(self)
        if min(self.patch_size, self.center_size, self.region_size) < 1:
            raise InputError("patch, center and region sizes must be positive")
        if max(self.center_size, self.region_size) > self.patch_size:
            raise InputError(f"center template {self.center_size} or region size "
                              f"{self.region_size} exceeds patch {self.patch_size}")


@dataclass(frozen=True)
class PatchGrid:
    """Geometry of a non-overlapping patch decomposition of a
    (reflection-padded) map. Patch n sits at grid cell ``divmod(n, cols)``."""

    rows: int
    cols: int
    height: int  # original (pre-padding) feature size
    width: int


@dataclass(frozen=True)
class MatchResult:
    ref_center: tuple
    ref_topleft: tuple
    index_map: np.ndarray  # (zh, zw, 2): matched region position per target region
    similarity_map: np.ndarray  # (zh, zw): cosine similarity attained at the match


class MatchedPyramid(FeaturePyramid):
    """Matched reference features per scale, coarsest (LR scale) first."""


def partition_patches(features, cfg):
    """Split features into N = ceil(H/p) * ceil(W/p) non-overlapping p-by-p
    patches, reflection-padding the bottom/right edges to a full tiling:
    ``(N, channels, p, p)``, row-major over the grid, and the grid."""
    features = _as_feature_map(features)
    channels, h, w = features.shape
    if cfg.patch_size > min(h, w):
        raise InputError(f"patch {cfg.patch_size} larger than feature map {h}x{w}")
    pad_h = (-h) % cfg.patch_size
    pad_w = (-w) % cfg.patch_size
    padded = np.pad(features, ((0, 0), (0, pad_h), (0, pad_w)), mode="reflect")
    rows = (h + pad_h) // cfg.patch_size
    cols = (w + pad_w) // cfg.patch_size
    patches = (
        padded.reshape(channels, rows, cfg.patch_size, cols, cfg.patch_size)
        .transpose(1, 3, 0, 2, 4)
        .reshape(rows * cols, channels, cfg.patch_size, cfg.patch_size)
    )
    return patches, PatchGrid(rows=rows, cols=cols, height=h, width=w)


def _best_windows(features, templates):
    """Row-major (row, col) of the stride-1 window of ``features`` most
    cosine-similar to each template, the first on ties, and the picks' scores:
    ``_conv_core`` correlates the map with the templates, and each band's
    scores are divided by its windows' norms. OpenBLAS gives a GEMM row the
    same bits wherever it sits, but not in a GEMV or on its small-matrix path,
    so a lone template in its block gets a zero one beside it, and zero rows
    pad a map with fewer window rows than a band's floor; no window that reads
    them is picked."""
    count, size = len(templates), templates.shape[-1]
    rows, cols = features.shape[1] - size + 1, features.shape[2] - size + 1
    if count % _GEMM_BLOCK == 1:
        templates = np.concatenate([templates, np.zeros_like(templates[:1])])
    spec = ConvSpec(len(features), len(templates), 1, templates, np.zeros(len(templates)))
    flat = spec.weights.reshape(len(templates), -1)
    flat_norms = np.sqrt(np.einsum("ij,ij->i", flat, flat)) + NORM_EPS
    padded = max(rows, _least_rows([len(templates)], cols))
    scores = np.empty((padded * cols, len(templates)))

    def score(band, windows, out):  # the band's cosines, into (and returned as) its rows of scores
        norms = np.sqrt(np.einsum("ij,ij->i", windows, windows)) + NORM_EPS
        return np.divide(out.reshape(len(flat), -1).T, norms[:, None] * flat_norms,
                         out=scores[band.start * cols : band.stop * cols])

    features = np.pad(features, ((0, 0), (0, padded - rows), (0, 0)))
    _conv_core([features], [spec], epilogue=score, size=size, pad=0)
    best = np.argmax(scores[: rows * cols], axis=0)[:count]  # first of ties
    return [divmod(int(window), cols) for window in best], scores[best, np.arange(count)]


def region_match(tar_patch, ref_patch, cfg):
    """Dense region correspondence between two patches: for every target
    region position z, the reference region g maximizing cosine similarity
    (smallest row-major g on ties) and the attained value. The target's
    regions are ``_best_windows``'s templates over the reference patch."""
    tar_patch = _as_feature_map(tar_patch)
    ref_patch = _as_feature_map(ref_patch)
    if tar_patch.shape != ref_patch.shape or cfg.region_size > min(tar_patch.shape[1:]):
        raise InputError(f"patch shapes {tar_patch.shape} and {ref_patch.shape} differ or "
                          f"are smaller than the region size {cfg.region_size}")
    r = cfg.region_size
    regions = sliding_window_view(tar_patch, (r, r), axis=(1, 2))
    zh, zw = regions.shape[1:3]
    picks, scores = _best_windows(ref_patch, regions.transpose(1, 2, 0, 3, 4).reshape(zh * zw, -1, r, r))
    return np.array(picks, dtype=np.int64).reshape(zh, zw, 2), scores.reshape(zh, zw)


def compute_matches(f_tar_lr, f_ref_lr, cfg):
    """Patch partition + coarse search + region matching for every patch."""
    f_tar_lr = _as_feature_map(f_tar_lr)
    f_ref_lr = _as_feature_map(f_ref_lr)
    if f_tar_lr.shape[0] != f_ref_lr.shape[0]:
        raise InputError("target and reference channel counts differ")
    if cfg.patch_size > min(f_ref_lr.shape[1:]):
        raise InputError("reference map is smaller than one patch")
    patches, grid = partition_patches(f_tar_lr, cfg)
    # The matched window sits at the template's offset inside the reference patch
    # too (centered when, as by default, patch and template sizes are both odd).
    offset = (cfg.patch_size - cfg.center_size) // 2
    templates = patches[:, :, offset : offset + cfg.center_size, offset : offset + cfg.center_size]
    h, w = f_ref_lr.shape[1:]
    results = []
    for patch, (win_row, win_col) in zip(patches, _best_windows(f_ref_lr, templates)[0]):
        center = (win_row + cfg.center_size // 2, win_col + cfg.center_size // 2)
        top = min(max(win_row - offset, 0), h - cfg.patch_size)
        left = min(max(win_col - offset, 0), w - cfg.patch_size)
        ref_patch = f_ref_lr[:, top : top + cfg.patch_size, left : left + cfg.patch_size]
        index_map, similarity_map = region_match(patch, ref_patch, cfg)
        results.append(
            MatchResult(
                ref_center=center,
                ref_topleft=(top, left),
                index_map=index_map,
                similarity_map=similarity_map,
            )
        )
    return results, grid


def _assemble_patches(results, cells, cfg):
    """Rearrange each patch's matched regions into the target layout and
    weight them by the similarity map. ``cells`` is the reference level as
    ``(rows, scale, cols, scale, channels)``; the patches come back as
    ``(patches, patch_size, patch_size, scale, scale, channels)``.

    Content writes overlap (stride-1 regions); both the feature values and
    the similarity values are blended by visit count, which makes the
    self-match case reproduce the target patch exactly. The blended
    similarity plane lives on the LR patch grid and is bilinearly upsampled
    (the identity at scale 1) before the elementwise multiply.

    Regions are added one offset (dy, dx) at a time, all at once: cell (y, x)
    receives region (y - dy, x - dx), so descending offsets add each cell's
    regions in the row-major order of a loop over the regions.
    """
    p, r, u, n = cfg.patch_size, cfg.region_size, cells.shape[1], len(results)
    sims = np.stack([result.similarity_map for result in results])
    zh, zw = sims.shape[1:]
    corners = np.array([result.ref_topleft for result in results])[:, None, None]
    region_rows, region_cols = np.moveaxis(
        np.stack([result.index_map for result in results]) + corners, -1, 0)
    content = np.zeros((n, p, p, u, u, cells.shape[-1]))
    sim_acc = np.zeros((n, p, p))
    hits = np.zeros((p, p))
    for dy in range(r - 1, -1, -1):
        for dx in range(r - 1, -1, -1):
            content[:, dy : dy + zh, dx : dx + zw] += cells[region_rows + dy, :, region_cols + dx]
            sim_acc[:, dy : dy + zh, dx : dx + zw] += sims
            hits[dy : dy + zh, dx : dx + zw] += 1.0
    content /= hits[:, :, None, None, None]
    planes = bilinear_upsample(sim_acc / hits, u)
    content *= planes.reshape(n, p, u, p, u).transpose(0, 1, 3, 2, 4)[..., None]
    return content


def map_to_scale(results, grid, pyramid, level, cfg):
    """Matched reference features at pyramid level ``level`` (1-based).

    ``results`` holds one match per patch of ``grid``, in row-major order,
    both as ``compute_matches`` made them under ``cfg``.
    The level-``i`` reference patch is the LR match's clamped corner scaled
    by ``u_i = 2**(i-1)``, so content stays aligned with the LR-scale match.
    """
    pyramid = _as_pyramid(pyramid)
    if not 1 <= level <= pyramid.num_levels:
        raise InputError(f"pyramid has {pyramid.num_levels} levels, asked for {level}")
    p, zone = cfg.patch_size, cfg.patch_size - cfg.region_size + 1
    if (len(results) != grid.rows * grid.cols
            or any(result.similarity_map.shape != (zone, zone) for result in results)):
        raise InputError(f"{len(results)} matches for a {grid.rows}x{grid.cols} patch grid do not fit {cfg}")
    u = 2 ** (level - 1)
    features = pyramid.levels[level - 1]
    channels, height, width = features.shape
    for result in results:
        top, left = result.ref_topleft
        if min(top, left) < 0 or (top + p) * u > height or (left + p) * u > width:
            raise InputError(f"pyramid level {level} of size {features.shape[1:]} cuts "
                              f"the reference patch at {(top * u, left * u)} short")
    cells = features.transpose(1, 2, 0).reshape(height // u, u, width // u, u, channels)
    canvas = (_assemble_patches(results, cells, cfg)
              .reshape(grid.rows, grid.cols, p, p, u, u, channels)
              .transpose(6, 0, 2, 4, 1, 3, 5)
              .reshape(channels, grid.rows * p * u, grid.cols * p * u))
    return canvas[:, : grid.height * u, : grid.width * u]

