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

Convolutions and both matching stages build their im2col column matrix
one band of output rows at a time, about ``_BAND_BYTES`` of it, from only the
padded rows that band reads, and write each band's GEMM (:func:`_gemm`) into
one output or to an epilogue. The band height depends on the shape alone, and
no band is thin enough for a BLAS to round it apart from one GEMM over the
whole map (see ``_SMALL_GEMM``). :func:`_for_each_block` runs the bands, and
the Swin window chunks, on the CPUs in the process's affinity when the BLAS
runs one thread; a block makes the same calls whichever thread runs it, so
outputs do not depend on the worker count. :func:`layer_norm` is the one kernel whose bits depend on the
memory layout of its input: numpy sums C-contiguous rows pairwise, but may sum
a strided view sequentially, moving about 0.1% of outputs by 1 ulp. Callers
that need layout-independent bits pass C-contiguous ``(tokens, dim)`` rows.
It centres each token once, in the operation order of numpy's ``mean`` and
``var``, so it keeps the bits of ``(x - mean) / sqrt(var + eps)``.
:func:`erf` reproduces scipy's bits, so numpy is the only dependency.
"""

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError

KERNEL = 3
VARIANCE_EPS = 1e-5  # added to the variance by both norms
_BAND_BYTES = 4 << 20  # column-matrix budget of one im2col band
# SAB's 256x256 conv took 184 ms on 2 AVX-512 cores (median of 10), 202-217 at 16 MiB, 191-208 at 2 MiB.
# OpenBLAS 0.3.31's SkylakeX GEMM of P pixels by N > 1 outputs rounds apart from a larger one's rows
# when P * N <= 1200 (its small-matrix path), and numpy's GEMV (N = 1) sums the last P % 4 rows apart.
# So a band has more than _SMALL_GEMM / N pixels, N its narrowest GEMM block, and every band but the
# last a multiple of 4 pixels. A GEMV is never cut (below): that moved 3,487 of 4,096 outputs at K = 576.
_SMALL_GEMM = 1200
# GEMMs run in blocks of 64 columns, which alone gave region matching's 81-169 their 1-thread bits at 2
# threads. OpenBLAS takes 384-deep slabs while 768 or more remain and cuts a rest in (384, 768) at half
# of it up to a multiple of 16 at 1 thread, but at half of it at 2, so _gemm makes the 1-thread slabs
# and adds each after the first in place.
_GEMM_BLOCK = 64


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
            raise InputError("channel counts must be positive")
        if self.stride not in (1, 2):
            raise InputError(f"stride must be 1 or 2, got {self.stride}")
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "bias", np.asarray(self.bias, dtype=np.float64))
        if self.bias.shape != (self.out_channels,):
            raise InputError(f"bias shape {self.bias.shape} != ({self.out_channels},)")

    @classmethod
    def load(cls, store, prefix, in_channels, out_channels, stride=1):
        """The convolution stored as ``{prefix}.weight``, ``(out, in, 3, 3)``, and its bias;
        the model's transposed convolutions map C to C, so ``(in, out, 3, 3)`` is equal."""
        return cls(in_channels, out_channels, stride,
                   store.fetch(f"{prefix}.weight", (out_channels, in_channels, KERNEL, KERNEL)),
                   store.fetch(f"{prefix}.bias", (out_channels,)))


def _require_weights(spec, shape, what):
    if spec.weights.shape != shape:
        raise InputError(f"{what} weights shape {spec.weights.shape} != {shape}")


def _as_feature_map(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or not x.size:
        raise InputError(f"expected a non-empty (channels, height, width) map, got shape {x.shape}")
    return x


def _as_image(x, name="image"):
    """``x`` as a finite, non-empty, real float64 2-D image; else InputError."""
    try:
        x = np.asarray(x)
        if np.iscomplexobj(x):
            raise InputError(f"{name} is complex, not a real image")
        x = x.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name} is not a numeric array") from None
    if x.ndim != 2 or not x.size:
        raise InputError(f"{name} must be a non-empty 2-D image, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError(f"{name} contains non-finite values")
    return x


def _padded_rows(x, first, rows, dilate, pad):
    """Rows ``first:first + rows`` of ``x`` zero-dilated by ``dilate`` and then
    zero-padded by ``pad``, channels-last: a band's share of the padded map."""
    _, h, w = x.shape
    block = np.zeros((rows, dilate * w + 2 * pad, x.shape[0]))
    lo = max(0, -(-(first - pad) // dilate))  # map row i sits at padded row dilate * i + pad
    hi = max(lo, min(h, (first + rows - 1 - pad) // dilate + 1))
    block[dilate * lo + pad - first :: dilate][: hi - lo, pad : dilate * w + pad : dilate] = (
        x[:, lo:hi].transpose(1, 2, 0))
    return block


def _least_rows(outputs, width):  # a band's fewest rows, for GEMMs of these widths (_SMALL_GEMM)
    return _SMALL_GEMM // (min((n - 1) % _GEMM_BLOCK + 1 for n in outputs) * width) + 1


def _gemm(rows, kernel, out):
    """``rows @ kernel.T`` into ``out``, by blocks and depth slabs (``_GEMM_BLOCK``)."""
    depth = rows.shape[1]
    for s in range(0, len(kernel), _GEMM_BLOCK):
        block, part = out[:, s : s + _GEMM_BLOCK], kernel[s : s + _GEMM_BLOCK]
        start = 0
        while start < depth:
            rest = depth - start  # a GEMV is never cut (_SMALL_GEMM)
            cut = depth if rest <= 384 or len(part) == 1 else start + min(384, -(-rest // 32) * 16)
            if start:
                block += rows[:, start:cut] @ part[:, start:cut].T
            else:
                np.matmul(rows[:, :cut], part[:, :cut].T, out=block)
            start = cut
    return out


def _conv_core(maps, specs, dilate=1, epilogue=None, size=KERNEL, pad=1):
    """One convolution per spec of the channel concatenation of ``maps``, all
    specs sharing each band's im2col columns, ordered (channel, ky, kx): 3x3
    with zero padding 1, or matching's templates with ``pad=0``.
    ``dilate=2`` convolves the zero-dilated maps, whose output is 2x the input.
    Returns a channels-last view of each ``(pixels, c_out)`` GEMM output, or
    calls ``epilogue(rows, cols, *outputs)`` on each band's thread with its
    slice of output rows, its im2col rows and each spec's outputs there,
    ``(c_out, rows, width)`` views of buffers it may overwrite."""
    maps = [_as_feature_map(x) for x in maps]  # of one size; the specs share a stride
    c_in = sum(x.shape[0] for x in maps)
    for spec in specs:
        if c_in != spec.in_channels:
            raise InputError(f"input has {c_in} channels, spec expects {spec.in_channels}")
        _require_weights(spec, (spec.out_channels, spec.in_channels, size, size), "conv2d")
    # Banded im2col + GEMM; a per-tap loop is 4-5x slower at these sizes.
    stride = specs[0].stride
    h_out, w_out = ((dilate * n + 2 * pad - size) // stride + 1 for n in maps[0].shape[1:])
    kernels = [spec.weights.reshape(spec.out_channels, -1) for spec in specs]
    outs = None if epilogue else [np.empty((h_out * w_out, spec.out_channels)) for spec in specs]
    least = _least_rows([spec.out_channels for spec in specs], w_out)
    step = 4 // math.gcd(w_out, 4)  # rows per 4 pixels
    band = -(-max(least, _BAND_BYTES // (w_out * c_in * size * size * 8)) // step) * step
    stop = max(1, h_out - least + 1)  # the last band starts before it, so it has least rows

    def gemm(top):
        rows = band if top + band < stop else h_out - top
        cols = np.empty((rows, w_out, c_in, size, size))
        at = 0
        for x in maps:
            block = _padded_rows(x, top * stride, (rows - 1) * stride + size, dilate, pad)
            view = sliding_window_view(block, (size, size), axis=(0, 1))
            cols[:, :, at : at + x.shape[0]] = view[::stride, ::stride]
            at += x.shape[0]
        cols = cols.reshape(rows * w_out, -1)
        bands = ([np.empty((rows * w_out, spec.out_channels)) for spec in specs] if epilogue
                 else [out[top * w_out : (top + rows) * w_out] for out in outs])
        for kernel, spec, band_out in zip(kernels, specs, bands):
            _gemm(cols, kernel, band_out)
            band_out += spec.bias
        if epilogue:
            epilogue(slice(top, top + rows), cols, *(b.T.reshape(-1, rows, w_out) for b in bands))

    _for_each_block(gemm, range(0, stop, band))
    if not epilogue:
        return [out.T.reshape(spec.out_channels, h_out, w_out) for spec, out in zip(specs, outs)]


def conv2d(x, spec):
    """Direct 3x3 convolution with zero padding 1 and stride 1 or 2."""
    return _conv_core([x], [spec])[0]


def conv_transpose2d(x, spec):
    """Stride-2 transposed 3x3 convolution; output is exactly 2x the input.

    With the same weight array, this is the adjoint of the stride-2
    :func:`conv2d` (up to the bias terms). Computed as a stride-1
    convolution with the flipped kernel over the zero-dilated input, which
    is arithmetically the transposed scatter.
    """
    if spec.stride != 2:
        raise InputError("conv_transpose2d requires stride 2")
    _require_weights(spec, (spec.in_channels, spec.out_channels, KERNEL, KERNEL), "conv_transpose2d")
    flipped = spec.weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    return _conv_core([x], [ConvSpec(spec.in_channels, spec.out_channels, 1, flipped, spec.bias)],
                      dilate=2)[0]


def _grid_coords(n_out, n_in, scale):
    pos = np.clip((np.arange(n_out) + 0.5) / scale - 0.5, 0.0, n_in - 1.0)
    lo = np.floor(pos).astype(np.intp)
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, pos - lo


def bilinear_upsample(x, factor):
    """Bilinear upsampling of a feature map by an integer factor."""
    x = _as_feature_map(x)
    if factor < 1:
        raise InputError(f"factor must be >= 1, got {factor}")
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
        raise InputError(f"factor must be >= 1, got {factor}")
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
    out = x - mean
    out /= np.sqrt(var + VARIANCE_EPS)
    return out


def layer_norm(tokens, gain, bias):
    """Per-token normalization over the feature dim, then affine gain/bias,
    bit for bit ``(x - x.mean()) / sqrt(x.var() + eps) * gain + bias``. The
    reduction order, and so the last bit, follows the memory layout of
    ``tokens``; C-contiguous rows give numpy's pairwise sums."""
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 2:
        raise InputError(f"expected (tokens, dim), got shape {tokens.shape}")
    # numpy's _mean and _var: a sum divided by the count, then the sum of the
    # centred squares divided by the count; the centred tokens are kept
    dim = tokens.shape[1]
    out = tokens - np.add.reduce(tokens, axis=1, keepdims=True) / dim
    var = np.add.reduce(np.square(out), axis=1, keepdims=True) / dim
    var += VARIANCE_EPS
    out /= np.sqrt(var, out=var)
    out *= gain
    out += bias
    return out


def _softmax_inplace(rows):
    # Mutates and returns its argument; callers own the buffer. fmax skips
    # NaN, but a NaN logit still turns its whole row NaN.
    np.subtract(rows, np.fmax.reduce(rows, axis=1, keepdims=True), out=rows)
    np.exp(rows, out=rows)  # exactly 0 below -746, masked logits included
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


# cephes ndtr.c coefficients, highest power first; U and Q are monic (cephes
# p1evl), their leading 1 implied.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


def _horner(x, coefs, monic=False):
    # cephes polevl's order, ((c0 x + c1) x + c2) x + ..., or p1evl's (x + c0) x + ...
    out = x + coefs[0] if monic else x * coefs[0] + coefs[1]
    for c in coefs[1 if monic else 2:]:
        out *= x
        out += c
    return out


def erf(x, out=None):
    """The error function, bit for bit scipy's (cephes) ``erf``, NaN aside,
    which stays NaN; ``out`` may be ``x``. ``x T(x^2) / U(x^2)`` where ``|x| <=
    1``, else ``±(1 - exp(-x^2) P(|x|) / Q(|x|))`` with libm's ``exp`` per value,
    as cephes calls it (about 0.1 us a value; numpy's ``exp`` differs in the
    last bit on a few percent of values). From 8 on, cephes's erfc (by R / S) is
    below 1e-28, so ``1 - erfc`` rounds to 1, as it does with P / Q at 8."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x) if out is None else out
    with np.errstate(over="ignore", invalid="ignore"):  # wide entries are replaced
        squares = x * x
        wide = np.flatnonzero(squares > 1.0)  # exactly |x| > 1; a mask's take and put cost 5x
        signs = x.take(wide)  # read before ``out`` overwrites them
        np.multiply(x, _horner(squares, _ERF_T), out=out)
        out /= _horner(squares, _ERF_U, monic=True)
    if signs.size:
        a = np.minimum(np.abs(signs), 8.0)
        erfc = np.fromiter(map(math.exp, (-(a * a)).tolist()), np.float64, count=a.size)
        erfc *= _horner(a, _ERFC_P)
        erfc /= _horner(a, _ERFC_Q, monic=True)
        out.put(wide, np.copysign(1.0 - erfc, signs))
    return out
