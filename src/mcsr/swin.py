"""Swin Transformer layers (windowed multi-head self-attention with optional
cyclic shift), residual blocks of them, and the groups used as the deep
feature extractor of all three branches.

Sublayers follow the pre-norm residual ordering: ``x += MHSA(LN(x))`` then
``x += MLP(LN(x))``. Attention is computed per window at scale
``1 / sqrt(embed_dim / num_heads)`` with a learned relative position bias;
shifted layers mask cross-boundary token pairs with a ``-1e9`` logit.

A layer partitions its padded, rolled map into windows once and runs both
sublayers on chunks of ``_WINDOW_CHUNK`` windows, so a chunk's logits stay in
cache. Every step is per token or per window, so the bits do not depend on
the chunking. Both layer norms reduce over C-contiguous ``(tokens, C)`` rows
whatever the input's memory layout, since numpy's reduction order follows it.

After the roll only the last window row and the last window column straddle
the wrap, so a shifted layer's mask is one of four per-class blocks
(interior, right edge, bottom edge, corner): the masks of a 2x2-window map,
whatever the map size.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erf

from .errors import ConfigError
from .tensor_ops import ConvSpec, _for_each_block, _softmax_inplace, conv2d, layer_norm

MASKED_LOGIT = -1e9
_WINDOW_CHUNK = 16  # windows per fused chunk: 2 MiB of logits at 4 heads of 8x8


@dataclass(frozen=True)
class StlConfig:
    """Shape of a single Swin Transformer layer."""

    embed_dim: int
    num_heads: int
    window: int
    shift: int
    mlp_ratio: float

    def __post_init__(self):
        if min(self.embed_dim, self.num_heads, self.window) < 1:
            raise ConfigError("embed_dim, num_heads and window must be positive")
        if self.embed_dim % self.num_heads:
            raise ConfigError(f"embed_dim {self.embed_dim} not divisible by {self.num_heads} heads")
        if self.shift not in (0, self.window // 2):
            raise ConfigError(f"shift must be 0 or {self.window // 2}, got {self.shift}")
        if not float(self.mlp_ratio * self.embed_dim).is_integer():
            raise ConfigError("mlp_ratio * embed_dim must be an integer")
        if self.hidden_dim < 1:
            raise ConfigError(f"mlp_ratio must be positive, got {self.mlp_ratio}")

    @property
    def hidden_dim(self):
        return int(self.mlp_ratio * self.embed_dim)


@dataclass(frozen=True)
class StgConfig:
    """Shape of a Swin Transformer group; even layers are unshifted, odd ones
    use a half-window cyclic shift."""

    num_rstb: int = 4
    stl_per_rstb: int = 6
    embed_dim: int = 32
    num_heads: int = 4
    window: int = 8
    mlp_ratio: float = 2.0

    def __post_init__(self):
        if self.num_rstb < 1 or self.stl_per_rstb < 1:
            raise ConfigError("num_rstb and stl_per_rstb must be positive")
        self.stl_config(0)  # validates embed/head/window compatibility

    def stl_config(self, layer_index):
        shift = 0 if layer_index % 2 == 0 else self.window // 2
        return StlConfig(self.embed_dim, self.num_heads, self.window, shift, self.mlp_ratio)


@dataclass(frozen=True)
class StlParams:
    norm1_gain: np.ndarray
    norm1_bias: np.ndarray
    qkv_weight: np.ndarray  # (3*dim, dim)
    qkv_bias: np.ndarray
    proj_weight: np.ndarray  # (dim, dim)
    proj_bias: np.ndarray
    bias_table: np.ndarray  # ((2*window - 1)**2, num_heads)
    norm2_gain: np.ndarray
    norm2_bias: np.ndarray
    fc1_weight: np.ndarray  # (hidden, dim)
    fc1_bias: np.ndarray
    fc2_weight: np.ndarray  # (dim, hidden)
    fc2_bias: np.ndarray


@dataclass(frozen=True)
class RstbParams:
    stls: tuple
    conv: ConvSpec


@dataclass(frozen=True)
class StgParams:
    rstbs: tuple
    conv: ConvSpec


STL_PARAM_SHAPES = (
    ("norm1.gain", lambda c: (c.embed_dim,)),
    ("norm1.bias", lambda c: (c.embed_dim,)),
    ("attn.qkv.weight", lambda c: (3 * c.embed_dim, c.embed_dim)),
    ("attn.qkv.bias", lambda c: (3 * c.embed_dim,)),
    ("attn.proj.weight", lambda c: (c.embed_dim, c.embed_dim)),
    ("attn.proj.bias", lambda c: (c.embed_dim,)),
    ("attn.bias_table", lambda c: ((2 * c.window - 1) ** 2, c.num_heads)),
    ("norm2.gain", lambda c: (c.embed_dim,)),
    ("norm2.bias", lambda c: (c.embed_dim,)),
    ("mlp.fc1.weight", lambda c: (c.hidden_dim, c.embed_dim)),
    ("mlp.fc1.bias", lambda c: (c.hidden_dim,)),
    ("mlp.fc2.weight", lambda c: (c.embed_dim, c.hidden_dim)),
    ("mlp.fc2.bias", lambda c: (c.embed_dim,)),
)


def load_stl_params(store, prefix, cfg):
    values = []
    for suffix, shape_of in STL_PARAM_SHAPES:
        arr = store.fetch(f"{prefix}.{suffix}")
        want = shape_of(cfg)
        if arr.shape != want:
            raise ConfigError(f"{prefix}.{suffix} has shape {arr.shape}, expected {want}")
        values.append(arr)
    return StlParams(*values)


def load_rstb_params(store, prefix, cfg):
    stls = tuple(
        load_stl_params(store, f"{prefix}.stl{j}", cfg.stl_config(j))
        for j in range(cfg.stl_per_rstb)
    )
    conv = ConvSpec.load(store, f"{prefix}.conv", cfg.embed_dim, cfg.embed_dim)
    return RstbParams(stls, conv)


def load_stg_params(store, prefix, cfg):
    rstbs = tuple(
        load_rstb_params(store, f"{prefix}.rstb{i}", cfg) for i in range(cfg.num_rstb)
    )
    conv = ConvSpec.load(store, f"{prefix}.conv", cfg.embed_dim, cfg.embed_dim)
    return StgParams(rstbs, conv)


@lru_cache(maxsize=None)
def relative_position_index(window):
    """Lookup table mapping each in-window token pair to its bias-table row,
    a pure function of the pair's (drow, dcol)."""
    coords = np.stack(np.meshgrid(np.arange(window), np.arange(window), indexing="ij"))
    flat = coords.reshape(2, -1)
    rel = flat[:, :, None] - flat[:, None, :]
    index = (rel[0] + window - 1) * (2 * window - 1) + (rel[1] + window - 1)
    index.flags.writeable = False
    return index


def _partition_grid(grid, window):
    # Always a fresh C-contiguous copy, which stl_forward updates in place.
    hp, wp, channels = grid.shape
    ny, nx = hp // window, wp // window
    windows = np.array(grid.reshape(ny, window, nx, window, channels).transpose(0, 2, 1, 3, 4))
    return windows.reshape(ny * nx, window * window, channels), ny, nx


def _merge_grid(windows, ny, nx, window):
    channels = windows.shape[-1]
    return (
        windows.reshape(ny, nx, window, window, channels)
        .transpose(0, 2, 1, 3, 4)
        .reshape(ny * window, nx * window, channels)
    )


def _pad_to_window(grid, window):
    h, w = grid.shape[:2]
    pad_h = (-h) % window
    pad_w = (-w) % window
    if pad_h >= h or pad_w >= w:
        raise ConfigError(f"map {h}x{w} too small to reflection-pad to window {window}")
    if pad_h or pad_w:
        grid = np.pad(grid, ((0, pad_h), (0, pad_w), (0, 0)), mode="reflect")
    return grid


def _shift_mask(padded_h, padded_w, window, shift):
    """Per-window mask of a rolled ``padded_h x padded_w`` map."""
    # Region ids follow the standard shifted-window construction: the three
    # bands per axis encode where wrapped content lands after the roll.
    ids = np.zeros((padded_h, padded_w, 1))
    bands = (slice(0, -window), slice(-window, -shift), slice(-shift, None))
    value = 0.0
    for row_band in bands:
        for col_band in bands:
            ids[row_band, col_band] = value
            value += 1.0
    window_ids = _partition_grid(ids, window)[0][:, :, 0]
    mask = np.where(window_ids[:, :, None] != window_ids[:, None, :], MASKED_LOGIT, 0.0)
    return mask


@lru_cache(maxsize=None)
def _mask_blocks(window, shift):
    """The interior, right-edge, bottom-edge and corner masks, in class order."""
    blocks = _shift_mask(2 * window, 2 * window, window, shift)
    blocks.flags.writeable = False
    return blocks


def _window_classes(ny, nx):
    """Mask class of each window of an ``ny x nx`` grid, row-major."""
    rows, cols = np.divmod(np.arange(ny * nx), nx)
    return 2 * (rows == ny - 1) + (cols == nx - 1)


def _window_attention(windows, cfg, params, mask=None):
    n_windows, n_tokens, dim = windows.shape
    heads = cfg.num_heads
    head_dim = dim // heads
    qkv = windows.reshape(-1, dim) @ params.qkv_weight.T + params.qkv_bias
    qkv = qkv.reshape(n_windows, n_tokens, 3, heads, head_dim)
    # Contiguous (batch, n, d) stacks keep the batched matmuls on the BLAS
    # fast path; strided 4-D views are an order of magnitude slower.
    queries = np.ascontiguousarray(qkv[:, :, 0].transpose(0, 2, 1, 3)).reshape(-1, n_tokens, head_dim)
    keys_t = np.ascontiguousarray(qkv[:, :, 1].transpose(0, 2, 3, 1)).reshape(-1, head_dim, n_tokens)
    values = np.ascontiguousarray(qkv[:, :, 2].transpose(0, 2, 1, 3)).reshape(-1, n_tokens, head_dim)
    queries /= math.sqrt(head_dim)  # cheaper than scaling the n*n logits
    logits = np.matmul(queries, keys_t)
    bias = params.bias_table[relative_position_index(cfg.window)]
    grouped = logits.reshape(n_windows, heads, n_tokens, n_tokens)
    grouped += bias.transpose(2, 0, 1)[None]
    if mask is not None:
        grouped += mask[:, None]
    attn = _softmax_inplace(logits.reshape(-1, n_tokens)).reshape(logits.shape)
    merged = np.matmul(attn, values).reshape(n_windows, heads, n_tokens, head_dim)
    merged = merged.transpose(0, 2, 1, 3).reshape(n_windows, n_tokens, dim)
    return merged @ params.proj_weight.T + params.proj_bias


def _gelu(x):
    scaled = x * (1.0 / math.sqrt(2.0))
    erf(scaled, out=scaled)
    scaled += 1.0
    scaled *= x
    scaled *= 0.5
    return scaled


def stl_forward(x, cfg, params):
    """One Swin Transformer layer (windowed MHSA + MLP, pre-norm residuals),
    run over chunks of windows; returns a channels-last view."""
    channels, h, w = x.shape
    if channels != cfg.embed_dim:
        raise ConfigError(f"input has {channels} channels, STL expects {cfg.embed_dim}")
    grid = _pad_to_window(x.transpose(1, 2, 0), cfg.window)
    if cfg.shift:
        grid = np.roll(grid, (-cfg.shift, -cfg.shift), axis=(0, 1))
    windows, ny, nx = _partition_grid(grid, cfg.window)
    if cfg.shift:
        blocks, classes = _mask_blocks(cfg.window, cfg.shift), _window_classes(ny, nx)

    def sublayers(start):
        stop = start + _WINDOW_CHUNK
        chunk = windows[start:stop]
        tokens = chunk.reshape(-1, channels)  # the contiguous rows both norms need
        normed = layer_norm(tokens, params.norm1_gain, params.norm1_bias)
        chunk += _window_attention(normed.reshape(chunk.shape), cfg, params,
                                   blocks[classes[start:stop]] if cfg.shift else None)
        normed = layer_norm(tokens, params.norm2_gain, params.norm2_bias)
        hidden = _gelu(normed @ params.fc1_weight.T + params.fc1_bias)
        tokens += hidden @ params.fc2_weight.T + params.fc2_bias

    _for_each_block(sublayers, range(0, len(windows), _WINDOW_CHUNK))
    grid = _merge_grid(windows, ny, nx, cfg.window)
    if cfg.shift:
        grid = np.roll(grid, (cfg.shift, cfg.shift), axis=(0, 1))
    return grid[:h, :w].transpose(2, 0, 1)


def rstb_forward(x, cfg, params):
    """Residual Swin Transformer block: a chain of STLs, a 3x3 convolution,
    and a residual add of the block input."""
    if x.shape[0] != cfg.embed_dim:
        raise ConfigError(f"input has {x.shape[0]} channels, RSTB expects {cfg.embed_dim}")
    y = x
    for j, stl in enumerate(params.stls):
        y = stl_forward(y, cfg.stl_config(j), stl)
    return conv2d(y, params.conv) + x


def stg_forward(x, cfg, params):
    """Swin Transformer group: sequential RSTBs, a 3x3 convolution, and a
    group-level residual add."""
    if x.shape[0] != cfg.embed_dim:
        raise ConfigError(f"input has {x.shape[0]} channels, STG expects {cfg.embed_dim}")
    y = x
    for rstb in params.rstbs:
        y = rstb_forward(y, cfg, rstb)
    return conv2d(y, params.conv) + x
