"""Earlier implementations of kernels that were rewritten for speed, kept
as bit-level oracles: each rewrite must reproduce their output exactly.

* :func:`assemble_patch_by_region` adds the matched regions into a patch one
  region at a time, in row-major order;
* :func:`layer_norm_two_pass` is the layer norm as ``mean`` then ``var``;
* :func:`stl_forward_by_roll` is the Swin layer that pads, rolls and
  partitions the map with array copies, adds the bias and a mask to every
  window, and takes the softmax row max with ``max``;
* :func:`conv2d_by_padded_copy` and :func:`conv_transpose2d_by_dilated_copy`
  are the convolutions that im2col a padded copy of the whole (zero-dilated)
  map and add the bias into a new array; :func:`sab_forward_by_concatenation`
  and :func:`jrfab_forward_by_concatenation` concatenate their two maps and
  convolve the copy, SAB once per modulation convolution.

Unlike ``oracles`` these share the production building blocks (the
bilinear upsampling, the worker pool), because bit equality is the point:
they differ from the production code only in the order of the work.
"""

import math

import numpy as np
from scipy.special import erf

from numpy.lib.stride_tricks import sliding_window_view

from mcsr import tensor_ops
from mcsr.swin import MASKED_LOGIT, _WINDOW_CHUNK, relative_position_index
from mcsr.tensor_ops import KERNEL, VARIANCE_EPS, _for_each_block, bilinear_upsample


def assemble_patch_by_region(result, ref_patch_scaled, cfg, scale):
    """``matching._assemble_patch`` as a loop over the regions."""
    r = cfg.region_size
    u = scale
    channels = ref_patch_scaled.shape[0]
    sim = result.similarity_map
    zh, zw = sim.shape
    content = np.zeros((channels, cfg.patch_size * u, cfg.patch_size * u))
    hits = np.zeros((cfg.patch_size * u, cfg.patch_size * u))
    sim_acc = np.zeros((cfg.patch_size, cfg.patch_size))
    sim_hits = np.zeros((cfg.patch_size, cfg.patch_size))
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
    """``matching.map_to_scale`` assembling each patch region by region.
    ``results[n]`` is the match of patch n, numbered row-major over the grid."""
    u = 2 ** (level - 1)
    features = pyramid.levels[level - 1]
    canvas = np.zeros((features.shape[0], grid.rows * cfg.patch_size * u, grid.cols * cfg.patch_size * u))
    for n, result in enumerate(results):
        top, left = result.ref_topleft
        ref_patch = features[
            :, top * u : (top + cfg.patch_size) * u, left * u : (left + cfg.patch_size) * u
        ]
        ty, tx = n // grid.cols * cfg.patch_size, n % grid.cols * cfg.patch_size
        canvas[:, ty * u : (ty + cfg.patch_size) * u, tx * u : (tx + cfg.patch_size) * u] = (
            assemble_patch_by_region(result, ref_patch, cfg, u))
    return canvas[:, : grid.height * u, : grid.width * u]



def layer_norm_two_pass(tokens, gain, bias):
    """The layer norm as numpy's ``mean`` and ``var``, each summing the rows."""
    mean = tokens.mean(axis=1, keepdims=True)
    var = tokens.var(axis=1, keepdims=True)
    return (tokens - mean) / np.sqrt(var + VARIANCE_EPS) * gain + bias


def _softmax_by_max(rows):
    np.subtract(rows, rows.max(axis=1, keepdims=True), out=rows)
    np.maximum(rows, -1e4, out=rows)
    np.exp(rows, out=rows)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def partition_grid(grid, window):
    hp, wp, channels = grid.shape
    ny, nx = hp // window, wp // window
    windows = np.array(grid.reshape(ny, window, nx, window, channels).transpose(0, 2, 1, 3, 4),
                       order="C")
    return windows.reshape(ny * nx, window * window, channels), ny, nx


def _merge_grid(windows, ny, nx, window):
    channels = windows.shape[-1]
    return (windows.reshape(ny, nx, window, window, channels).transpose(0, 2, 1, 3, 4)
            .reshape(ny * window, nx * window, channels))


def shift_mask_by_partition(padded_h, padded_w, window, shift):
    """Per-window mask of a rolled map, from a partitioned region-id map."""
    ids = np.zeros((padded_h, padded_w, 1))
    bands = (slice(0, -window), slice(-window, -shift), slice(-shift, None))
    value = 0.0
    for row_band in bands:
        for col_band in bands:
            ids[row_band, col_band] = value
            value += 1.0
    window_ids = partition_grid(ids, window)[0][:, :, 0]
    return np.where(window_ids[:, :, None] != window_ids[:, None, :], MASKED_LOGIT, 0.0)


def _attention_by_roll(windows, cfg, params, mask):
    n_windows, n_tokens, dim = windows.shape
    heads = cfg.num_heads
    head_dim = dim // heads
    qkv = windows.reshape(-1, dim) @ params.qkv_weight.T + params.qkv_bias
    qkv = qkv.reshape(n_windows, n_tokens, 3, heads, head_dim)
    queries = np.ascontiguousarray(qkv[:, :, 0].transpose(0, 2, 1, 3)).reshape(-1, n_tokens, head_dim)
    keys_t = np.ascontiguousarray(qkv[:, :, 1].transpose(0, 2, 3, 1)).reshape(-1, head_dim, n_tokens)
    values = np.ascontiguousarray(qkv[:, :, 2].transpose(0, 2, 1, 3)).reshape(-1, n_tokens, head_dim)
    queries /= math.sqrt(head_dim)
    logits = np.matmul(queries, keys_t)
    bias = params.bias_table[relative_position_index(cfg.window)]
    grouped = logits.reshape(n_windows, heads, n_tokens, n_tokens)
    grouped += bias.transpose(2, 0, 1)[None]
    if mask is not None:
        grouped += mask[:, None]
    attn = _softmax_by_max(logits.reshape(-1, n_tokens)).reshape(logits.shape)
    merged = np.matmul(attn, values).reshape(n_windows, heads, n_tokens, head_dim)
    merged = merged.transpose(0, 2, 1, 3).reshape(n_windows, n_tokens, dim)
    return merged @ params.proj_weight.T + params.proj_bias


def _gelu_by_passes(x):
    scaled = x * (1.0 / math.sqrt(2.0))
    erf(scaled, out=scaled)
    scaled += 1.0
    scaled *= x
    scaled *= 0.5
    return scaled


def stl_forward_by_roll(x, cfg, params):
    """``swin.stl_forward`` with ``np.pad``, ``np.roll``, partition and merge
    copies, and a full-map mask added to every window of a shifted layer. The
    partition copies in C order: with ``np.array``'s default order a planar
    single-window map stayed channel-major, and its layer norms' bits
    depended on the input's layout."""
    channels, h, w = x.shape
    window, shift = cfg.window, cfg.shift
    grid = np.pad(x.transpose(1, 2, 0), ((0, (-h) % window), (0, (-w) % window), (0, 0)),
                  mode="reflect")
    if shift:
        grid = np.roll(grid, (-shift, -shift), axis=(0, 1))
    windows, ny, nx = partition_grid(grid, window)
    mask = shift_mask_by_partition(*grid.shape[:2], window, shift) if shift else None

    def sublayers(start):
        stop = start + _WINDOW_CHUNK
        chunk = windows[start:stop]
        tokens = chunk.reshape(-1, channels)
        normed = layer_norm_two_pass(tokens, params.norm1_gain, params.norm1_bias)
        chunk += _attention_by_roll(normed.reshape(chunk.shape), cfg, params,
                                    None if mask is None else mask[start:stop])
        normed = layer_norm_two_pass(tokens, params.norm2_gain, params.norm2_bias)
        hidden = _gelu_by_passes(normed @ params.fc1_weight.T + params.fc1_bias)
        tokens += hidden @ params.fc2_weight.T + params.fc2_bias

    _for_each_block(sublayers, range(0, len(windows), _WINDOW_CHUNK))
    grid = _merge_grid(windows, ny, nx, window)
    if shift:
        grid = np.roll(grid, (shift, shift), axis=(0, 1))
    return grid[:h, :w].transpose(2, 0, 1)


def _conv_core_by_padded_copy(x, weights, bias, stride):
    c_out = weights.shape[0]
    c_in, h, w = x.shape
    h_out = (h - 1) // stride + 1
    w_out = (w - 1) // stride + 1
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    view = sliding_window_view(padded, (KERNEL, KERNEL), axis=(1, 2))
    if stride > 1:
        view = view[:, ::stride, ::stride]
    kernel = weights.reshape(c_out, -1).T
    out = np.empty((h_out * w_out, c_out))
    band = max(1, tensor_ops._BAND_BYTES // (w_out * c_in * KERNEL * KERNEL * 8))

    def gemm(top):
        cols = view[:, top : top + band].transpose(1, 2, 0, 3, 4).reshape(-1, kernel.shape[0])
        np.matmul(cols, kernel, out=out[top * w_out : top * w_out + len(cols)])

    _for_each_block(gemm, range(0, h_out, band))
    return out.T.reshape(c_out, h_out, w_out) + bias[:, None, None]


def conv2d_by_padded_copy(x, spec):
    return _conv_core_by_padded_copy(x, spec.weights, spec.bias, spec.stride)


def conv_transpose2d_by_dilated_copy(x, spec):
    _, h, w = x.shape
    dilated = np.zeros((spec.in_channels, 2 * h, 2 * w))
    dilated[:, ::2, ::2] = x
    flipped = spec.weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    return _conv_core_by_padded_copy(dilated, flipped, spec.bias, 1)


def instance_norm_by_copies(x):
    mean = x.mean(axis=(1, 2), keepdims=True)
    var = x.var(axis=(1, 2), keepdims=True)
    return (x - mean) / np.sqrt(var + VARIANCE_EPS)


def sab_forward_by_concatenation(x_tar, f_m, params, cfg):
    x_up = conv_transpose2d_by_dilated_copy(x_tar, params.upsample) if cfg.upsample else x_tar
    stats_src = x_tar if cfg.stats_source == "pre" else x_up
    mu = stats_src.mean(axis=(1, 2))
    sigma = stats_src.std(axis=(1, 2))
    stacked = np.concatenate([x_up, f_m], axis=0)
    raw_alpha = conv2d_by_padded_copy(stacked, params.conv_alpha)
    raw_beta = conv2d_by_padded_copy(stacked, params.conv_beta)
    alpha = sigma[:, None, None] * (1.0 + raw_alpha)
    beta = mu[:, None, None] + raw_beta
    return instance_norm_by_copies(f_m) * alpha + beta


def jrfab_forward_by_concatenation(f_hat, x_tar, params, cfg):
    expand = conv_transpose2d_by_dilated_copy if cfg.level > 1 else conv2d_by_padded_copy
    down = conv2d_by_padded_copy(f_hat, params.reduce)
    ref_branch = f_hat + expand(down - x_tar, params.expand_ref)
    tar_branch = expand(x_tar + (x_tar - down), params.expand_tar)
    return conv2d_by_padded_copy(np.concatenate([ref_branch, tar_branch], axis=0), params.fuse)
