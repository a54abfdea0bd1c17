import math
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from oracles import bilinear_reference, conv2d_reference, conv_transpose2d_reference
from scipy.special import erf as scipy_erf
from support import identity_conv_spec, random_conv_spec

from mcsr import tensor_ops
from mcsr.errors import InputError
from mcsr.tensor_ops import (ConvSpec, bicubic_upsample, bilinear_upsample, conv2d,
                             conv_transpose2d, erf, instance_norm, layer_norm)


class TestConv2d:
    def test_zero_input_any_weights(self):
        rng = np.random.default_rng(0)
        spec = ConvSpec(1, 1, 1, rng.standard_normal((1, 1, 3, 3)), np.zeros(1))
        out = conv2d(np.zeros((1, 4, 4)), spec)
        assert out.shape == (1, 4, 4)
        assert np.all(out == 0.0)

    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 6, 7))
        assert np.array_equal(conv2d(x, identity_conv_spec(3)), x)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_brute_force_oracle(self, stride):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 5, 5))
        spec = random_conv_spec(rng, 2, 4, stride)
        want = conv2d_reference(x, spec.weights, spec.bias, stride)
        assert np.max(np.abs(conv2d(x, spec) - want)) <= 1e-6

    @pytest.mark.parametrize("size,stride,expected", [(8, 1, 8), (8, 2, 4), (7, 2, 4), (5, 2, 3)])
    def test_stride_size_rule(self, size, stride, expected):
        rng = np.random.default_rng(3)
        out = conv2d(np.zeros((1, size, size)), random_conv_spec(rng, 1, 1, stride))
        assert out.shape == (1, expected, expected)

    def test_channel_mismatch_raises(self):
        rng = np.random.default_rng(4)
        with pytest.raises(InputError):
            conv2d(np.zeros((3, 4, 4)), random_conv_spec(rng, 2, 2))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 9, 9))
        spec = random_conv_spec(rng, 3, 3)
        assert np.array_equal(conv2d(x, spec), conv2d(x, spec))


class TestConvTranspose2d:
    def test_zero_input(self):
        rng = np.random.default_rng(10)
        spec = random_conv_spec(rng, 1, 1, stride=2, transposed=True)
        out = conv_transpose2d(np.zeros((1, 2, 2)), ConvSpec(1, 1, 2, spec.weights, np.zeros(1)))
        assert out.shape == (1, 4, 4)
        assert np.all(out == 0.0)

    def test_output_shape_doubles(self):
        rng = np.random.default_rng(11)
        spec = random_conv_spec(rng, 1, 1, stride=2, transposed=True)
        assert conv_transpose2d(np.zeros((1, 3, 3)), spec).shape == (1, 6, 6)

    def test_adjoint_identity_shared_weights(self):
        # 100 random shapes: <conv2d(x), y> == <x, conv_transpose2d(y)> when
        # both ops are handed the same weight array.
        rng = np.random.default_rng(12)
        for _ in range(100):
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 4))
            h = int(rng.integers(1, 7)) * 2
            w = int(rng.integers(1, 7)) * 2
            weights = rng.standard_normal((c_out, c_in, 3, 3))
            x = rng.standard_normal((c_in, h, w))
            y = rng.standard_normal((c_out, h // 2, w // 2))
            fwd = conv2d(x, ConvSpec(c_in, c_out, 2, weights, np.zeros(c_out)))
            back = conv_transpose2d(y, ConvSpec(c_out, c_in, 2, weights, np.zeros(c_in)))
            lhs = float(np.sum(fwd * y))
            rhs = float(np.sum(x * back))
            assert abs(lhs - rhs) <= 1e-5 * max(abs(lhs), abs(rhs), 1.0)

    def test_matches_scatter_oracle(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 4, 5))
        spec = random_conv_spec(rng, 3, 2, stride=2, transposed=True)
        want = conv_transpose2d_reference(x, spec.weights, spec.bias)
        assert np.max(np.abs(conv_transpose2d(x, spec) - want)) <= 1e-6

    def test_requires_stride_two(self):
        rng = np.random.default_rng(14)
        with pytest.raises(InputError):
            conv_transpose2d(np.zeros((1, 2, 2)), random_conv_spec(rng, 1, 1, 1, transposed=True))

    def test_channel_mismatch_raises(self):
        rng = np.random.default_rng(15)
        with pytest.raises(InputError):
            conv_transpose2d(np.zeros((3, 2, 2)), random_conv_spec(rng, 2, 2, 2, transposed=True))


def unbanded_conv(x, weights, bias, stride):
    """The im2col convolution with one column matrix for the whole map."""
    c_out = weights.shape[0]
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    view = sliding_window_view(padded, (3, 3), axis=(1, 2))[:, ::stride, ::stride]
    h_out, w_out = view.shape[1:3]
    cols = view.transpose(1, 2, 0, 3, 4).reshape(h_out * w_out, -1)
    out = cols @ weights.reshape(c_out, -1).T
    return out.T.reshape(c_out, h_out, w_out) + bias[:, None, None]


def band_rows(c_in, w_out):
    return tensor_ops._BAND_BYTES // (w_out * c_in * 9 * 8)


class TestBandedConv:
    @pytest.mark.parametrize("stride,size", [(1, (50, 300)), (2, (99, 300))])
    def test_conv2d_bits_match_unbanded(self, stride, size):
        rng = np.random.default_rng(20)
        c_in = 64 * stride
        x = rng.standard_normal((c_in, *size))
        spec = random_conv_spec(rng, c_in, 8, stride)
        h_out, w_out = (size[0] - 1) // stride + 1, (size[1] - 1) // stride + 1
        band = band_rows(c_in, w_out)
        assert 1 < band < h_out and h_out % band
        want = unbanded_conv(x, spec.weights, spec.bias, stride)
        assert np.array_equal(conv2d(x, spec), want)

    def test_conv_transpose2d_bits_match_unbanded(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((64, 25, 150))
        spec = random_conv_spec(rng, 64, 64, 2, transposed=True)
        band = band_rows(64, 300)
        assert 1 < band < 50 and 50 % band
        dilated = np.zeros((64, 50, 300))
        dilated[:, ::2, ::2] = x
        flipped = spec.weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
        want = unbanded_conv(dilated, flipped, spec.bias, 1)
        assert np.array_equal(conv_transpose2d(x, spec), want)


class TestBilinearUpsample:
    def test_factor_one_identity(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((2, 5, 4))
        assert np.array_equal(bilinear_upsample(x, 1), x)

    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_constant_preserved(self, factor):
        x = np.full((2, 3, 3), 0.7)
        assert np.allclose(bilinear_upsample(x, factor), 0.7, atol=1e-12)

    def test_two_by_two_against_oracle(self):
        x = np.array([[[0.0, 1.0], [2.0, 3.0]]])
        got = bilinear_upsample(x, 2)
        want = bilinear_reference(x, 2)
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_random_against_oracle(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((3, 4, 5))
        for factor in (2, 3):
            assert np.max(np.abs(bilinear_upsample(x, factor) - bilinear_reference(x, factor))) <= 1e-6

    def test_bounds_preserved(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            x = rng.standard_normal((2, int(rng.integers(2, 6)), int(rng.integers(2, 6))))
            out = bilinear_upsample(x, int(rng.integers(2, 5)))
            assert out.min() >= x.min() - 1e-6
            assert out.max() <= x.max() + 1e-6


class TestBicubicUpsample:
    def test_constant_preserved(self):
        assert np.allclose(bicubic_upsample(np.full((4, 4), 0.3), 4), 0.3, atol=1e-12)

    def test_factor_one_identity(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((5, 5))
        assert np.array_equal(bicubic_upsample(x, 1), x)

    def test_shape(self):
        assert bicubic_upsample(np.zeros((6, 7)), 2).shape == (12, 14)


class TestInstanceNorm:
    def test_constant_channel_zeroed(self):
        out = instance_norm(np.full((2, 4, 4), 3.5))
        assert np.all(out == 0.0)

    def test_symmetric_channel(self):
        x = np.array([[[-1.0, 1.0]]])
        assert np.max(np.abs(instance_norm(x) - x)) <= 1e-4

    def test_random_statistics(self):
        rng = np.random.default_rng(30)
        out = instance_norm(rng.standard_normal((3, 8, 8)))
        assert np.max(np.abs(out.mean(axis=(1, 2)))) <= 1e-5
        assert np.max(np.abs(out.std(axis=(1, 2)) - 1.0)) <= 1e-4

    def test_idempotent_up_to_epsilon(self):
        rng = np.random.default_rng(31)
        once = instance_norm(rng.standard_normal((3, 8, 8)))
        twice = instance_norm(once)
        assert np.max(np.abs(twice - once)) <= 1e-4


class TestLayerNorm:
    def test_constant_token(self):
        out = layer_norm(np.array([[2.0, 2.0]]), np.ones(2), np.zeros(2))
        assert np.allclose(out, 0.0)

    def test_zero_gain_replicates_bias(self):
        rng = np.random.default_rng(32)
        bias = np.array([1.0, -2.0, 0.5])
        out = layer_norm(rng.standard_normal((4, 3)), np.zeros(3), bias)
        assert np.array_equal(out, np.tile(bias, (4, 1)))

    def test_random_statistics_before_affine(self):
        rng = np.random.default_rng(33)
        out = layer_norm(rng.standard_normal((4, 8)), np.ones(8), np.zeros(8))
        assert np.max(np.abs(out.mean(axis=1))) <= 1e-5
        assert np.max(np.abs(out.std(axis=1) - 1.0)) <= 1e-4


def softmax(rows):
    return tensor_ops._softmax_inplace(np.array(rows, dtype=np.float64))


class TestSoftmax:
    def test_uniform_row(self):
        assert np.array_equal(softmax(np.zeros((1, 4))), np.full((1, 4), 0.25))

    def test_large_values_stable(self):
        out = softmax(np.array([[1000.0, 1000.0]]))
        assert np.array_equal(out, np.array([[0.5, 0.5]]))
        assert np.all(np.isfinite(out))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(34)
        out = softmax(rng.standard_normal((50, 7)) * 50)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-6

    def test_nan_turns_its_row_nan(self):
        out = softmax(np.array([[0.0, np.nan, 1.0], [np.nan, np.nan, np.nan], [1.0, 2.0, 3.0]]))
        assert np.all(np.isnan(out[:2]))
        assert np.array_equal(out[2], softmax(np.array([[1.0, 2.0, 3.0]]))[0])

    def test_masked_logits_underflow_cleanly(self):
        out = softmax(np.array([[0.0, -1e9, -1e9, 0.0]]))
        assert np.array_equal(out, np.array([[0.5, 0.0, 0.0, 0.5]]))

    def test_deterministic(self):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((10, 10))
        assert np.array_equal(softmax(x), softmax(x))


def _bits(x):
    # array_equal takes -0.0 for 0.0 and never matches NaN; the raw bits do both
    return np.ascontiguousarray(x).view(np.uint64)


_MAXLOG = math.log(np.finfo(np.float64).max)  # cephes's erfc underflows where x^2 passes it
_ROOT = math.sqrt(_MAXLOG)
ERF_EDGES = np.array([
    0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
    -np.nextafter(1.0, 0.0), -np.nextafter(1.0, 2.0), 8.0, np.nextafter(8.0, 0.0), -8.0,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
    np.nextafter(_ROOT, 0.0), _ROOT, np.nextafter(_ROOT, 30.0), -np.nextafter(_ROOT, 30.0),
    1e154, 1e300, -1e300, np.inf, -np.inf, np.nan])


class TestErf:
    """scipy's ``erf`` is the oracle here and only here: the package has its
    own, which must reproduce scipy's bits."""

    @pytest.mark.parametrize("lo,hi", [(-1.0, 1.0), (1.0, 8.0), (8.0, 27.0)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_bits_match_scipy_over_a_million_values(self, lo, hi, sign):
        x = sign * np.random.default_rng(40).uniform(lo, hi, 10**6)
        want = _bits(scipy_erf(x))
        assert np.array_equal(_bits(erf(x)), want)
        erf(x, out=x)  # how swin._gelu calls it
        assert np.array_equal(_bits(x), want)

    def test_bits_match_scipy_at_the_edges(self):
        assert np.nextafter(_ROOT, 0.0) ** 2 <= _MAXLOG < np.nextafter(_ROOT, 30.0) ** 2
        assert np.array_equal(_bits(erf(ERF_EDGES)), _bits(scipy_erf(ERF_EDGES)))
        assert np.isnan(erf(ERF_EDGES)[-1])

    def test_in_place_mixed_entries_read_before_written(self):
        # wide (|x| > 1) and narrow entries interleaved, at GELU's proportions and beyond
        rng = np.random.default_rng(41)
        x = rng.standard_normal(50_000) * rng.choice([0.5, 3.0, 30.0], 50_000)
        want = _bits(scipy_erf(x))
        erf(x, out=x)
        assert np.array_equal(_bits(x), want)

    def test_strided_input_and_out(self):
        base = np.random.default_rng(42).standard_normal((40, 60)) * 2.0
        view = base[:, ::3]
        want = _bits(scipy_erf(view))
        assert np.array_equal(_bits(erf(view)), want)
        erf(view, out=view)
        assert np.array_equal(_bits(view), want)
        assert np.array_equal(_bits(erf(base.T)), _bits(scipy_erf(base.T)))

    def test_scalar_and_empty(self):
        assert erf(0.5) == scipy_erf(0.5) and erf(-3.0) == scipy_erf(-3.0)
        assert erf(np.empty((0, 3))).shape == (0, 3)

    def test_no_runtime_warning_on_any_input(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            erf(ERF_EDGES)
            erf(np.full(4, np.inf))
            erf(np.array([np.nan, 1e308, -1e308]))
