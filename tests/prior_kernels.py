"""Earlier implementations of two kernels that were rewritten for speed,
kept as bit-level oracles: each rewrite must reproduce their output exactly.

* :func:`window_scores_by_template` is the coarse search's score matrix as
  one GEMV per template over each whole band of windows;
* :func:`assemble_patch_by_region` adds the matched regions into a patch one
  region at a time, in row-major order.

Unlike ``mcsr.oracles`` these share the production building blocks (the
window matrix, the bilinear upsampling), because bit equality is the point:
they differ from the production code only in the order of the work.
"""

import numpy as np

from mcsr import matching
from mcsr.matching import NORM_EPS, _window_matrix
from mcsr.tensor_ops import bilinear_upsample


def window_scores_by_template(features, templates):
    """The coarse search's (templates, windows) cosine score matrix, one GEMV
    per template and band of ``matching._SEARCH_BAND`` window rows."""
    size = templates.shape[-1]
    rows, cols = features.shape[1] - size + 1, features.shape[2] - size + 1
    flat = templates.reshape(len(templates), -1)
    band = matching._SEARCH_BAND
    scores = np.empty((len(flat), rows * cols))
    for top in range(0, rows, band):
        matrix, norms, _ = _window_matrix(features[:, top : top + band + size - 1], size)
        for score, template in zip(scores[:, top * cols : top * cols + len(matrix)], flat):
            norm = np.sqrt(template @ template)
            score[:] = (matrix @ template) / ((norms + NORM_EPS) * (norm + NORM_EPS))
    return scores


def assemble_patch_by_region(result, ref_patch_scaled, cfg, scale):
    """``matching._assemble_patch`` as a loop over the regions."""
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


def map_to_scale_by_region(results, grid, pyramid, level, cfg):
    """``matching.map_to_scale`` assembling each patch region by region."""
    u = 2 ** (level - 1)
    features = pyramid.levels[level - 1]
    canvas = np.zeros((features.shape[0], grid.padded_h * u, grid.padded_w * u))
    for result in results:
        top, left = result.ref_topleft
        ref_patch = features[
            :, top * u : (top + cfg.patch_h) * u, left * u : (left + cfg.patch_w) * u
        ]
        ty, tx = result.tar_topleft
        canvas[:, ty * u : (ty + cfg.patch_h) * u, tx * u : (tx + cfg.patch_w) * u] = (
            assemble_patch_by_region(result, ref_patch, cfg, u))
    return canvas[:, : grid.height * u, : grid.width * u]

