from dataclasses import replace

import numpy as np
import pytest
from support import random_stl_params, zero_stg_store, zero_stl_params

from mcsr import swin
from mcsr.errors import ConfigError
from mcsr.oracles import attention_reference, stl_reference
from mcsr.swin import (StgConfig, StlConfig, _window_attention, load_rstb_params,
                       load_stg_params, relative_position_index, rstb_forward,
                       stg_forward, stl_forward)
from mcsr.tensor_ops import conv2d
from mcsr.weights import WeightStore

TINY = StgConfig(num_rstb=1, stl_per_rstb=2, embed_dim=4, num_heads=1, window=2, mlp_ratio=2.0)


def stl_cfg(embed=4, heads=1, window=2, shift=0, ratio=2.0):
    return StlConfig(embed, heads, window, shift, ratio)


class TestWindowPartition:
    """The pad, partition and merge steps of stl_forward, on (H, W, C) grids."""

    def test_counts(self):
        rng = np.random.default_rng(0)
        grid = swin._pad_to_window(rng.standard_normal((4, 4, 1)), 2)
        windows, ny, nx = swin._partition_grid(grid, 2)
        assert windows.shape == (4, 4, 1)
        assert (ny, nx) == (2, 2)
        assert np.array_equal(windows[1], grid[:2, 2:].reshape(4, 1))  # row-major windows

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 8, 3))
        windows, ny, nx = swin._partition_grid(swin._pad_to_window(x, 4), 4)
        assert np.array_equal(swin._merge_grid(windows, ny, nx, 4), x)

    def test_padded_round_trip(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 5, 1))
        grid = swin._pad_to_window(x, 4)
        assert grid.shape == (8, 8, 1)
        windows, ny, nx = swin._partition_grid(grid, 4)
        assert windows.shape[0] == 4
        assert np.array_equal(swin._merge_grid(windows, ny, nx, 4)[:5, :5], x)


class TestStl:
    @pytest.mark.parametrize("shift", [0, 1])
    def test_zero_weights_identity(self, shift):
        rng = np.random.default_rng(3)
        cfg = stl_cfg(shift=shift)
        x = rng.standard_normal((4, 6, 6))
        assert np.array_equal(stl_forward(x, cfg, zero_stl_params(cfg)), x)

    def test_shift_round_trip_bitwise(self):
        rng = np.random.default_rng(4)
        cfg = stl_cfg(window=4, shift=2)
        x = rng.standard_normal((4, 8, 8))
        assert np.array_equal(stl_forward(x, cfg, zero_stl_params(cfg)), x)

    def test_single_window_attention_matches_brute_force(self):
        rng = np.random.default_rng(5)
        cfg = stl_cfg(embed=2, heads=1, window=2)
        params = random_stl_params(rng, cfg, scale=0.5)
        tokens = rng.standard_normal((1, 4, 2))
        got = _window_attention(tokens, cfg, params)
        want = attention_reference(
            tokens[0], params.qkv_weight, params.qkv_bias, params.proj_weight,
            params.proj_bias, params.bias_table, relative_position_index(2),
            num_heads=1,
        )
        assert np.max(np.abs(got[0] - want)) <= 1e-5

    def test_multi_head_attention_matches_brute_force(self):
        rng = np.random.default_rng(6)
        cfg = stl_cfg(embed=8, heads=2, window=3)
        params = random_stl_params(rng, cfg, scale=0.3)
        tokens = rng.standard_normal((2, 9, 8))
        got = _window_attention(tokens, cfg, params)
        for w in range(2):
            want = attention_reference(
                tokens[w], params.qkv_weight, params.qkv_bias, params.proj_weight,
                params.proj_bias, params.bias_table, relative_position_index(3),
                num_heads=2,
            )
            assert np.max(np.abs(got[w] - want)) <= 1e-5

    def test_attention_rows_sum_to_one_with_mask(self):
        rng = np.random.default_rng(7)
        cfg = stl_cfg(embed=4, heads=2, window=4, shift=2)
        params = random_stl_params(rng, cfg)
        x = rng.standard_normal((4, 8, 8))
        # the masked windows of a shifted layer, as stl_forward builds them
        grid = np.roll(x.transpose(1, 2, 0), (-2, -2), axis=(0, 1))
        windows, _, _ = swin._partition_grid(grid, 4)
        mask = swin._shift_mask(8, 8, 4, 2)
        got = _window_attention(windows, cfg, params, mask)
        for w in range(len(windows)):
            want = attention_reference(
                windows[w], params.qkv_weight, params.qkv_bias, params.proj_weight,
                params.proj_bias, params.bias_table, relative_position_index(4),
                num_heads=2, mask_row=mask[w],
            )
            assert np.max(np.abs(got[w] - want)) <= 1e-9
        # every value 1 and an identity projection: each output is a row sum
        qkv_weight, qkv_bias = params.qkv_weight.copy(), params.qkv_bias.copy()
        qkv_weight[8:], qkv_bias[8:] = 0.0, 1.0
        ones = replace(params, qkv_weight=qkv_weight, qkv_bias=qkv_bias,
                       proj_weight=np.eye(4), proj_bias=np.zeros(4))
        assert np.max(np.abs(_window_attention(windows, cfg, ones, mask) - 1.0)) <= 1e-12

    def test_window_locality_unshifted(self):
        rng = np.random.default_rng(8)
        cfg = stl_cfg(embed=4, heads=2, window=4, shift=0)
        params = random_stl_params(rng, cfg)
        zeroed = zero_stl_params(cfg)
        params = type(params)(
            **{
                **params.__dict__,
                "fc1_weight": zeroed.fc1_weight, "fc1_bias": zeroed.fc1_bias,
                "fc2_weight": zeroed.fc2_weight, "fc2_bias": zeroed.fc2_bias,
            }
        )
        x = rng.standard_normal((4, 8, 8))
        base = stl_forward(x, cfg, params)
        bumped = x.copy()
        bumped[:, 1, 2] += 1.0  # inside window (0, 0)
        delta = stl_forward(bumped, cfg, params) - base
        assert np.any(delta[:, :4, :4] != 0.0)
        outside = delta.copy()
        outside[:, :4, :4] = 0.0
        assert np.all(outside == 0.0)

    def test_channel_mismatch_raises(self):
        cfg = stl_cfg()
        with pytest.raises(ConfigError):
            stl_forward(np.zeros((3, 4, 4)), cfg, zero_stl_params(cfg))


class TestChunkedStl:
    @pytest.mark.parametrize("size,window,shift,windows", [
        ((60, 60), 7, 3, 81),  # reflection-padded to 63x63, a partial last chunk
        ((8, 40), 6, 3, 14),  # padded on both axes, fewer windows than one chunk
        ((6, 7), 8, 0, 1),  # a single window
        ((8, 8), 8, 4, 1),
    ])
    def test_matches_token_by_token_oracle(self, size, window, shift, windows):
        rng = np.random.default_rng(15)
        cfg = stl_cfg(embed=8, heads=2, window=window, shift=shift)
        params = random_stl_params(rng, cfg, scale=0.3)
        x = rng.standard_normal((8, *size))
        assert windows == -(-size[0] // window) * -(-size[1] // window)
        assert windows == 1 or windows % swin._WINDOW_CHUNK
        want = stl_reference(x, params, window, shift, num_heads=2)
        assert np.max(np.abs(stl_forward(x, cfg, params) - want)) <= 1e-9

    @pytest.mark.parametrize("shift", [0, 4])
    def test_bits_independent_of_input_layout(self, shift):
        rng = np.random.default_rng(16)
        cfg = stl_cfg(embed=32, heads=4, window=8, shift=shift)
        params = random_stl_params(rng, cfg)
        planar = rng.standard_normal((32, 64, 64))
        channels_last = np.ascontiguousarray(planar.transpose(1, 2, 0)).transpose(2, 0, 1)
        assert np.array_equal(stl_forward(planar, cfg, params),
                              stl_forward(channels_last, cfg, params))

    @pytest.mark.parametrize("window,shift,size", [
        (4, 2, (4, 4)),  # a 1x1 grid: the corner block only
        (4, 2, (4, 20)),  # 1xn
        (4, 2, (20, 4)),  # nx1
        (7, 3, (60, 45)),  # reflection-padded to 63x49
        (8, 4, (256, 256)),  # the reference map of the default config
    ])
    def test_mask_blocks_match_full_map_mask(self, window, shift, size):
        padded = [n + (-n) % window for n in size]
        classes = swin._window_classes(padded[0] // window, padded[1] // window)
        per_class = swin._mask_blocks(window, shift)[classes]
        assert np.array_equal(per_class, swin._shift_mask(*padded, window, shift))

    def test_single_window_column_leaves_input_untouched(self):
        rng = np.random.default_rng(17)
        cfg = stl_cfg(embed=4, heads=1, window=4)
        x = rng.standard_normal((4, 40, 4))
        before = x.copy()
        stl_forward(x, cfg, random_stl_params(rng, cfg))
        assert np.array_equal(x, before)


class TestRstb:
    def test_zero_conv_collapses_to_input(self):
        rng = np.random.default_rng(9)
        store = zero_stg_store("stg.t", TINY)
        params = load_rstb_params(store, "stg.t.rstb0", TINY)
        x = rng.standard_normal((4, 6, 6))
        assert np.array_equal(rstb_forward(x, TINY, params), x)

    def test_zero_input_zero_biases(self):
        store = zero_stg_store("stg.t", TINY)
        params = load_rstb_params(store, "stg.t.rstb0", TINY)
        out = rstb_forward(np.zeros((4, 6, 6)), TINY, params)
        assert np.all(out == 0.0)

    def test_matches_scripted_composition(self):
        rng = np.random.default_rng(10)
        cfg = StgConfig(num_rstb=1, stl_per_rstb=1, embed_dim=4, num_heads=1, window=2, mlp_ratio=2.0)
        store = WeightStore()
        from mcsr.weights import _stg_parameter_names

        for name, shape in _stg_parameter_names("stg.t", cfg):
            store.set(name, 0.1 * rng.standard_normal(shape))
        params = load_rstb_params(store, "stg.t.rstb0", cfg)
        x = rng.standard_normal((4, 6, 6))
        want = conv2d(stl_forward(x, cfg.stl_config(0), params.stls[0]), params.conv) + x
        assert np.max(np.abs(rstb_forward(x, cfg, params) - want)) <= 1e-12


class TestStg:
    def test_zero_weights_identity(self):
        rng = np.random.default_rng(11)
        store = zero_stg_store("stg.t", TINY)
        params = load_stg_params(store, "stg.t", TINY)
        x = rng.standard_normal((4, 8, 8))
        assert np.array_equal(stg_forward(x, TINY, params), x)

    def test_shape_preserved_default_window(self):
        rng = np.random.default_rng(12)
        cfg = StgConfig(num_rstb=1, stl_per_rstb=2, embed_dim=8, num_heads=2, window=8, mlp_ratio=2.0)
        store = zero_stg_store("stg.t", cfg)
        x = rng.standard_normal((8, 64, 64))
        assert stg_forward(x, cfg, load_stg_params(store, "stg.t", cfg)).shape == x.shape

    def test_two_rstb_matches_manual_chain(self):
        rng = np.random.default_rng(13)
        cfg = StgConfig(num_rstb=2, stl_per_rstb=1, embed_dim=4, num_heads=1, window=2, mlp_ratio=2.0)
        store = WeightStore()
        from mcsr.weights import _stg_parameter_names

        for name, shape in _stg_parameter_names("stg.t", cfg):
            store.set(name, 0.1 * rng.standard_normal(shape))
        params = load_stg_params(store, "stg.t", cfg)
        x = rng.standard_normal((4, 6, 6))
        y = rstb_forward(x, cfg, params.rstbs[0])
        y = rstb_forward(y, cfg, params.rstbs[1])
        want = conv2d(y, params.conv) + x
        assert np.max(np.abs(stg_forward(x, cfg, params) - want)) <= 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        from support import random_stg_store

        store = random_stg_store("stg.t", TINY, rng)
        params = load_stg_params(store, "stg.t", TINY)
        x = rng.standard_normal((4, 8, 8))
        assert np.array_equal(stg_forward(x, TINY, params), stg_forward(x, TINY, params))


class TestConfigValidation:
    def test_heads_must_divide_embed(self):
        with pytest.raises(ConfigError):
            StlConfig(embed_dim=6, num_heads=4, window=2, shift=0, mlp_ratio=2.0)

    def test_shift_values(self):
        with pytest.raises(ConfigError):
            StlConfig(embed_dim=4, num_heads=1, window=4, shift=1, mlp_ratio=2.0)

    def test_alternating_shift_pattern(self):
        cfg = StgConfig(embed_dim=4, num_heads=1, window=4)
        assert cfg.stl_config(0).shift == 0
        assert cfg.stl_config(1).shift == 2
        assert cfg.stl_config(2).shift == 0
