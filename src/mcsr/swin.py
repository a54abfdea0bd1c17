"""Swin Transformer layers (windowed multi-head self-attention with optional
cyclic shift), residual blocks of them, and the groups used as the deep
feature extractor of all three branches.

Sublayers follow the pre-norm residual ordering: ``x += MHSA(LN(x))`` then
``x += MLP(LN(x))``. Attention is computed per window at scale
``1 / sqrt(embed_dim / num_heads)`` with a learned relative position bias;
shifted layers mask cross-boundary token pairs with a ``-1e9`` logit.

A layer gathers its map into window tokens with one index array, which
folds in the reflection padding, the roll and the partition, and gathers
them back with another, which crops and un-rolls. In between it runs both
sublayers on chunks of ``_WINDOW_CHUNK`` windows, so a chunk's
logits stay in cache. Every step is per token or per window, so the bits do
not depend on the chunking. The gather makes fresh C-contiguous
``(tokens, C)`` rows whatever the input's memory layout, so both layer norms
reduce the same rows, and the output is channels-last. A residual block's
layers keep their tokens in window order, each gathering from the last one's
through the composed index ``back[source]``; only the last gathers back.

Each layer adds its relative position bias to every window's logits as one
contiguous ``(heads, n, n)`` block. After the roll only the last window row
and the last window column straddle the wrap, so a shifted layer's mask is
one of four per-class blocks (interior, right edge, bottom edge, corner):
the masks of a 2x2-window map, whatever the map size. The interior block is
all zeros, so only edge windows get a mask added, after the bias.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InputError, check_field_types
from .tensor_ops import ConvSpec, _for_each_block, _softmax_inplace, conv2d, erf, layer_norm

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
        check_field_types(self)
        if min(self.embed_dim, self.num_heads, self.window) < 1:
            raise InputError("embed_dim, num_heads and window must be positive")
        if self.embed_dim % self.num_heads:
            raise InputError(f"embed_dim {self.embed_dim} not divisible by {self.num_heads} heads")
        if self.shift not in (0, self.window // 2):
            raise InputError(f"shift must be 0 or {self.window // 2}, got {self.shift}")
        if not float(self.mlp_ratio * self.embed_dim).is_integer():
            raise InputError("mlp_ratio * embed_dim must be an integer")
        if self.hidden_dim < 1:
            raise InputError(f"mlp_ratio must be positive, got {self.mlp_ratio}")

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
        check_field_types(self)
        if self.num_rstb < 1 or self.stl_per_rstb < 1:
            raise InputError("num_rstb and stl_per_rstb must be positive")
        self.stl_config(0)  # validates embed/head/window compatibility

    def stl_config(self, layer_index):
        shift = 0 if layer_index % 2 == 0 else self.window // 2
        return StlConfig(self.embed_dim, self.num_heads, self.window, shift, self.mlp_ratio)


def _stl_param(suffix, shape_of):
    """A layer parameter's store name suffix and its shape under an StlConfig."""
    return field(metadata={"suffix": suffix, "shape": shape_of})


@dataclass(frozen=True)
class StlParams:
    norm1_gain: np.ndarray = _stl_param("norm1.gain", lambda c: (c.embed_dim,))
    norm1_bias: np.ndarray = _stl_param("norm1.bias", lambda c: (c.embed_dim,))
    qkv_weight: np.ndarray = _stl_param("attn.qkv.weight", lambda c: (3 * c.embed_dim, c.embed_dim))
    qkv_bias: np.ndarray = _stl_param("attn.qkv.bias", lambda c: (3 * c.embed_dim,))
    proj_weight: np.ndarray = _stl_param("attn.proj.weight", lambda c: (c.embed_dim, c.embed_dim))
    proj_bias: np.ndarray = _stl_param("attn.proj.bias", lambda c: (c.embed_dim,))
    bias_table: np.ndarray = _stl_param("attn.bias_table",
                                        lambda c: ((2 * c.window - 1) ** 2, c.num_heads))
    norm2_gain: np.ndarray = _stl_param("norm2.gain", lambda c: (c.embed_dim,))
    norm2_bias: np.ndarray = _stl_param("norm2.bias", lambda c: (c.embed_dim,))
    fc1_weight: np.ndarray = _stl_param("mlp.fc1.weight", lambda c: (c.hidden_dim, c.embed_dim))
    fc1_bias: np.ndarray = _stl_param("mlp.fc1.bias", lambda c: (c.hidden_dim,))
    fc2_weight: np.ndarray = _stl_param("mlp.fc2.weight", lambda c: (c.embed_dim, c.hidden_dim))
    fc2_bias: np.ndarray = _stl_param("mlp.fc2.bias", lambda c: (c.embed_dim,))


@dataclass(frozen=True)
class RstbParams:
    stls: tuple
    conv: ConvSpec


@dataclass(frozen=True)
class StgParams:
    rstbs: tuple
    conv: ConvSpec


def load_stl_params(store, prefix, cfg):
    return StlParams(**{param.name: store.fetch(f"{prefix}.{param.metadata['suffix']}",
                                                param.metadata["shape"](cfg))
                        for param in fields(StlParams)})


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


def relative_position_index(window):
    """Lookup table mapping each in-window token pair to its bias-table row,
    a pure function of the pair's (drow, dcol)."""
    coords = np.stack(np.meshgrid(np.arange(window), np.arange(window), indexing="ij"))
    flat = coords.reshape(2, -1)
    rel = flat[:, :, None] - flat[:, None, :]
    return (rel[0] + window - 1) * (2 * window - 1) + (rel[1] + window - 1)


def _windowed(rows, cols, window):
    """``rows[i] + cols[j]`` for each token ``(i, j)`` of a map whose padded
    sides are ``len(rows)`` and ``len(cols)``, as ``(windows, window**2)``,
    windows and their tokens row-major."""
    ny, nx = len(rows) // window, len(cols) // window
    tokens = rows.reshape(ny, 1, window, 1) + cols.reshape(1, nx, 1, window)
    return tokens.reshape(ny * nx, window * window)


def _window_index(h, w, window, shift):
    """How a flat ``h*w`` map becomes window tokens and back: the source pixel
    of each token of the reflection-padded, rolled map, and the token that
    holds each pixel (padding tokens hold none)."""
    hp, wp = h + (-h) % window, w + (-w) % window
    if hp - h >= h or wp - w >= w:
        raise InputError(f"map {h}x{w} too small to reflection-pad to window {window}")

    def source(n, padded):  # undo the roll, then the reflection padding
        i = (np.arange(padded) + shift) % padded
        return np.where(i < n, i, 2 * n - 2 - i)

    def token(n, padded, stride):  # the offset of each pixel's token after the roll
        i = (np.arange(n) - shift) % padded
        return i // window * stride + i % window

    gather = _windowed(source(h, hp) * w, source(w, wp), window).ravel()
    back = token(h, hp, wp)[:, None] * window + token(w, wp, window * window)
    return gather, back.ravel()


def _shift_mask(padded_h, padded_w, window, shift):
    """Per-window mask of a rolled ``padded_h x padded_w`` map."""
    # Region ids follow the standard shifted-window construction: the three
    # bands per axis encode where wrapped content lands after the roll.
    def band(n):
        i = np.arange(n)
        return (i >= n - window).astype(np.intp) + (i >= n - shift)

    ids = _windowed(3 * band(padded_h), band(padded_w), window)
    return np.where(ids[:, :, None] != ids[:, None, :], MASKED_LOGIT, 0.0)


def _window_classes(ny, nx):
    """Mask class of each window of an ``ny x nx`` grid, row-major."""
    rows, cols = np.divmod(np.arange(ny * nx), nx)
    return 2 * (rows == ny - 1) + (cols == nx - 1)


def relative_position_bias(bias_table, window):
    """A layer's relative position bias as one contiguous (heads, n, n) block."""
    return np.ascontiguousarray(bias_table[relative_position_index(window)].transpose(2, 0, 1))


def _window_attention(windows, cfg, params, bias, masks=()):
    """Attention over ``(windows, n, dim)`` tokens with the ``(heads, n, n)``
    ``bias``; ``masks`` holds ``(window, mask)`` pairs, each an ``(n, n)``
    mask added to one window's logits after the bias."""
    n_windows, n_tokens, dim = windows.shape
    heads = cfg.num_heads
    head_dim = dim // heads
    qkv = windows.reshape(-1, dim) @ params.qkv_weight.T
    qkv += params.qkv_bias
    # (windows, heads, n, head_dim) views; the BLAS reads their rows in place,
    # but a strided transposed operand would cost an order of magnitude more
    queries, keys, values = qkv.reshape(n_windows, n_tokens, 3, heads, head_dim).transpose(2, 0, 3, 1, 4)
    queries /= math.sqrt(head_dim)  # cheaper than scaling the n*n logits
    logits = np.matmul(queries, np.ascontiguousarray(keys.transpose(0, 1, 3, 2)))
    logits += bias
    for window, mask in masks:
        logits[window] += mask
    _softmax_inplace(logits.reshape(-1, n_tokens))
    merged = np.empty((n_windows * n_tokens, dim))
    np.matmul(logits, values, out=merged.reshape(n_windows, n_tokens, heads, head_dim).transpose(0, 2, 1, 3))
    out = merged @ params.proj_weight.T
    out += params.proj_bias
    return out.reshape(n_windows, n_tokens, dim)


def _gelu(x):
    scaled = x * (1.0 / math.sqrt(2.0))
    erf(scaled, out=scaled)
    scaled += 1.0
    scaled *= x
    scaled *= 0.5
    return scaled


def _stl_chain(x, layers):
    """STLs, each a ``(cfg, params)`` pair, in sequence over a map, each run
    over chunks of windows; returns a channels-last array."""
    channels, h, w = x.shape
    # back: the token that holds each pixel; before the first layer, the pixel itself
    tokens, back = x.transpose(1, 2, 0).reshape(-1, channels), np.arange(h * w)
    for cfg, params in layers:
        if channels != cfg.embed_dim:
            raise InputError(f"input has {channels} channels, STL expects {cfg.embed_dim}")
        source, next_back = _window_index(h, w, cfg.window, cfg.shift)
        n = cfg.window ** 2
        # one gather from the last layer's tokens pads, rolls and partitions into fresh
        # C-contiguous (tokens, C) rows whatever the input's layout; the chunks update them
        tokens, back = tokens[back[source]], next_back
        bias = relative_position_bias(params.bias_table, cfg.window)
        if cfg.shift:
            classes = _window_classes(-(-h // cfg.window), -(-w // cfg.window))
            blocks = _shift_mask(2 * cfg.window, 2 * cfg.window, cfg.window, cfg.shift)

        def sublayers(start):  # runs within this layer's iteration, so reads its names
            stop = start + _WINDOW_CHUNK
            chunk = tokens[start * n : stop * n]
            masks = ()
            if cfg.shift:  # only edge windows have a nonzero mask
                masks = [(i, blocks[c]) for i, c in enumerate(classes[start:stop]) if c]
            normed = layer_norm(chunk, params.norm1_gain, params.norm1_bias)
            chunk += _window_attention(normed.reshape(-1, n, channels), cfg, params, bias,
                                       masks).reshape(-1, channels)
            normed = layer_norm(chunk, params.norm2_gain, params.norm2_bias)
            hidden = normed @ params.fc1_weight.T
            hidden += params.fc1_bias
            mlp = _gelu(hidden) @ params.fc2_weight.T
            mlp += params.fc2_bias
            chunk += mlp

        _for_each_block(sublayers, range(0, len(source) // n, _WINDOW_CHUNK))
    # and one gather back crops and un-rolls
    return tokens[back].reshape(h, w, channels).transpose(2, 0, 1)


def stl_forward(x, cfg, params):
    """One Swin Transformer layer (windowed MHSA + MLP, pre-norm residuals): the one-layer chain."""
    return _stl_chain(x, [(cfg, params)])


def rstb_forward(x, cfg, params):
    """Residual Swin Transformer block: a chain of STLs, a 3x3 convolution,
    and a residual add of the block input."""
    y = _stl_chain(x, [(cfg.stl_config(j), stl) for j, stl in enumerate(params.stls)])
    out = conv2d(y, params.conv)
    out += x
    return out


def stg_forward(x, cfg, params):
    """Swin Transformer group: sequential RSTBs, a 3x3 convolution, and a
    group-level residual add."""
    y = x
    for rstb in params.rstbs:
        y = rstb_forward(y, cfg, rstb)
    out = conv2d(y, params.conv)
    out += x
    return out
