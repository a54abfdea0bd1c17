"""Dense-array kernels on which every other module is built.

Conventions, fixed package-wide:

* feature maps are float64 arrays of shape ``(channels, height, width)``,
  row-major by (channel, row, column);
* token matrices are ``(tokens, dim)``;
* every convolution is 3x3 with zero padding 1: stride 1 preserves the
  spatial size, stride 2 halves it (ceiling), and the stride-2 transposed
  convolution exactly doubles it;
* resampling uses the align-corners-false convention (sample centres at
  ``(i + 0.5) / scale - 0.5``).

All functions are pure and deterministic: identical inputs produce
bitwise-identical outputs.

Convolutions build their im2col column matrix one band of output rows at a
time, about ``_BAND_BYTES`` of it, and write each band's GEMM into one
preallocated output. The band height depends on the shape alone, since a BLAS
may round a smaller GEMM differently (OpenBLAS's small-matrix kernels do).
:func:`_for_each_block` runs the bands, and the Swin window chunks, on the
CPUs in the process's affinity when the BLAS runs one thread; a block makes
the same calls whichever thread runs it, so outputs do not depend on the
worker count. :func:`layer_norm` is the one kernel whose bits depend on the
memory layout of its input: numpy sums C-contiguous rows pairwise, but may sum
a strided view sequentially, moving about 0.1% of outputs by 1 ulp. Callers
that need layout-independent bits pass C-contiguous ``(tokens, dim)`` rows.
"""

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, InputError

KERNEL = 3
VARIANCE_EPS = 1e-5  # added to the variance by both norms
_BAND_BYTES = 16 << 20  # column-matrix budget of one im2col band


# GEMMs issued from several threads contend for a multithreaded BLAS's own
# threads, so blocks run in parallel only when the BLAS is pinned to one
# thread: some of these variables are set, and each one set is 1.
_BLAS_PINNED = {os.environ.get(v, "").strip() for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")} - {""} == {"1"}
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
_WORKERS = (_CPUS or 1) if _BLAS_PINNED else 1
_POOLS = {}  # by process id: a forked child's copy of a pool has no threads


def _for_each_block(fn, starts):
    """Call ``fn(start)`` for every start on up to ``_WORKERS`` threads, the
    caller one of them, each call under the caller's ``np.geterr()``; a call
    writes only its own block. Raises only after every call has ended."""
    if os.getpid() not in _POOLS:  # threads start on the first submit
        _POOLS[os.getpid()] = ThreadPoolExecutor(thread_name_prefix="mcsr")
    starts = list(starts)
    threads = max(1, min(_WORKERS, len(starts)))
    pending = deque(starts + [None] * threads)  # each thread stops at its own None
    settings = np.geterr()

    def drain():
        with np.errstate(**settings):
            for start in iter(pending.popleft, None):
                fn(start)

    futures = [_POOLS[os.getpid()].submit(drain) for _ in range(threads - 1)]
    try:
        drain()
    finally:
        wait(futures)
    for future in futures:
        future.result()


@dataclass(frozen=True)
class ConvSpec:
    """Parameters of one 3x3 convolution (or its stride-2 transpose).

    ``weights`` is ``(out, in, 3, 3)`` for :func:`conv2d` and
    ``(in, out, 3, 3)`` for :func:`conv_transpose2d`, so a single array can
    serve as both a convolution and its exact adjoint.
    """

    in_channels: int
    out_channels: int
    stride: int
    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise ConfigError("channel counts must be positive")
        if self.stride not in (1, 2):
            raise ConfigError(f"stride must be 1 or 2, got {self.stride}")
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "bias", np.asarray(self.bias, dtype=np.float64))
        if self.bias.shape != (self.out_channels,):
            raise ConfigError(f"bias shape {self.bias.shape} != ({self.out_channels},)")

    @classmethod
    def load(cls, store, prefix, in_channels, out_channels, stride=1):
        """The convolution stored as ``{prefix}.weight`` and ``{prefix}.bias``."""
        return cls(in_channels, out_channels, stride, store.fetch(f"{prefix}.weight"),
                   store.fetch(f"{prefix}.bias"))


def _require_weights(spec, shape, what):
    if spec.weights.shape != shape:
        raise ConfigError(f"{what} weights shape {spec.weights.shape} != {shape}")


def _as_feature_map(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or not x.size:
        raise ConfigError(f"expected a non-empty (channels, height, width) map, got shape {x.shape}")
    return x


def _as_image(x, name="image"):
    """``x`` as a finite float64 2-D image; anything else raises InputError."""
    try:
        x = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError):
        raise InputError(f"{name} is not a numeric array") from None
    if x.ndim != 2:
        raise InputError(f"{name} must be a 2-D image, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError(f"{name} contains non-finite values")
    return x


def _conv_core(x, weights, bias, stride):
    # Banded im2col + GEMM; a per-tap loop is 4-5x slower at these sizes.
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
    band = max(1, _BAND_BYTES // (w_out * c_in * KERNEL * KERNEL * 8))

    def gemm(top):
        cols = view[:, top : top + band].transpose(1, 2, 0, 3, 4).reshape(-1, kernel.shape[0])
        np.matmul(cols, kernel, out=out[top * w_out : top * w_out + len(cols)])

    _for_each_block(gemm, range(0, h_out, band))
    return out.T.reshape(c_out, h_out, w_out) + bias[:, None, None]


def conv2d(x, spec):
    """Direct 3x3 convolution with zero padding 1 and stride 1 or 2."""
    x = _as_feature_map(x)
    if x.shape[0] != spec.in_channels:
        raise ConfigError(f"input has {x.shape[0]} channels, spec expects {spec.in_channels}")
    _require_weights(spec, (spec.out_channels, spec.in_channels, KERNEL, KERNEL), "conv2d")
    return _conv_core(x, spec.weights, spec.bias, spec.stride)


def conv_transpose2d(x, spec):
    """Stride-2 transposed 3x3 convolution; output is exactly 2x the input.

    With the same weight array, this is the adjoint of the stride-2
    :func:`conv2d` (up to the bias terms). Computed as a stride-1
    convolution with the flipped kernel over the zero-dilated input, which
    is arithmetically the transposed scatter.
    """
    x = _as_feature_map(x)
    if spec.stride != 2:
        raise ConfigError("conv_transpose2d requires stride 2")
    if x.shape[0] != spec.in_channels:
        raise ConfigError(f"input has {x.shape[0]} channels, spec expects {spec.in_channels}")
    _require_weights(spec, (spec.in_channels, spec.out_channels, KERNEL, KERNEL), "conv_transpose2d")
    _, h, w = x.shape
    dilated = np.zeros((spec.in_channels, 2 * h, 2 * w))
    dilated[:, ::2, ::2] = x
    flipped = spec.weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    return _conv_core(dilated, flipped, spec.bias, 1)


def _grid_coords(n_out, n_in, scale):
    pos = np.clip((np.arange(n_out) + 0.5) / scale - 0.5, 0.0, n_in - 1.0)
    lo = np.floor(pos).astype(np.intp)
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, pos - lo


def bilinear_upsample(x, factor):
    """Bilinear upsampling of a feature map by an integer factor."""
    x = _as_feature_map(x)
    if factor < 1:
        raise ConfigError(f"factor must be >= 1, got {factor}")
    _, h, w = x.shape
    ylo, yhi, fy = _grid_coords(h * factor, h, factor)
    xlo, xhi, fx = _grid_coords(w * factor, w, factor)
    top = x[:, ylo, :]
    bot = x[:, yhi, :]
    row_top = top[:, :, xlo] * (1.0 - fx) + top[:, :, xhi] * fx
    row_bot = bot[:, :, xlo] * (1.0 - fx) + bot[:, :, xhi] * fx
    return row_top * (1.0 - fy[:, None]) + row_bot * fy[:, None]


def _cubic_kernel(t):
    # Keys cubic with a = -0.75 (the common convolution-interpolation choice).
    a = -0.75
    at = np.abs(t)
    inner = (a + 2.0) * at**3 - (a + 3.0) * at**2 + 1.0
    outer = a * (at**3 - 5.0 * at**2 + 8.0 * at - 4.0)
    return np.where(at <= 1.0, inner, np.where(at < 2.0, outer, 0.0))


def _cubic_axis(n_out, n_in, scale):
    pos = (np.arange(n_out) + 0.5) / scale - 0.5
    base = np.floor(pos).astype(np.intp)
    frac = pos - base
    offsets = np.arange(-1, 3)
    idx = np.clip(base[:, None] + offsets[None, :], 0, n_in - 1)
    weights = _cubic_kernel(frac[:, None] - offsets[None, :])
    return idx, weights


def bicubic_upsample(image, factor):
    """Separable bicubic upsampling of a 2-D image plane."""
    image = _as_image(image)
    if factor < 1:
        raise ConfigError(f"factor must be >= 1, got {factor}")
    h, w = image.shape
    ridx, rw = _cubic_axis(h * factor, h, factor)
    rows = np.einsum("rkc,rk->rc", image[ridx, :], rw)
    cidx, cw = _cubic_axis(w * factor, w, factor)
    return np.einsum("rck,ck->rc", rows[:, cidx], cw)


def instance_norm(x):
    """Per-channel normalization over the spatial extent (population std)."""
    x = _as_feature_map(x)
    mean = x.mean(axis=(1, 2), keepdims=True)
    var = x.var(axis=(1, 2), keepdims=True)
    return (x - mean) / np.sqrt(var + VARIANCE_EPS)


def layer_norm(tokens, gain, bias):
    """Per-token normalization over the feature dim, then affine gain/bias.
    The reduction order, and so the last bit, follows the memory layout of
    ``tokens``; C-contiguous rows give numpy's pairwise sums."""
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 2:
        raise ConfigError(f"expected (tokens, dim), got shape {tokens.shape}")
    mean = tokens.mean(axis=1, keepdims=True)
    var = tokens.var(axis=1, keepdims=True)
    return (tokens - mean) / np.sqrt(var + VARIANCE_EPS) * gain + bias


def _softmax_inplace(rows):
    # Mutates and returns its argument; callers own the buffer.
    np.subtract(rows, rows.max(axis=1, keepdims=True), out=rows)
    # exp underflows to exactly 0 below -746, so flooring the (non-positive)
    # shifted logits changes nothing numerically; it only keeps libm off its
    # slow path for the huge negative values attention masking produces.
    np.maximum(rows, -1e4, out=rows)
    np.exp(rows, out=rows)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows
