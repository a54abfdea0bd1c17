from dataclasses import fields, replace

import numpy as np
import pytest
from oracles import attention_reference, stl_reference
from prior_kernels import partition_grid, shift_mask_by_partition
from support import random_stg_store, random_stl_params, zero_stg_store, zero_stl_params

from mcsr import swin
from mcsr.errors import InputError
from mcsr.swin import (StgConfig, StlConfig, _window_attention, load_rstb_params,
                       load_stg_params, load_stl_params, relative_position_bias,
                       relative_position_index, rstb_forward, stg_forward, stl_forward)
from mcsr.tensor_ops import conv2d
from mcsr.weights import WeightStore, _InventoryRecorder

TINY = StgConfig(num_rstb=1, stl_per_rstb=2, embed_dim=4, num_heads=1, window=2, mlp_ratio=2.0)


def stl_cfg(embed=4, heads=1, window=2, shift=0, ratio=2.0):
    return StlConfig(embed, heads, window, shift, ratio)


def window_tokens(grid, window, shift=0):
    """``(windows, n, C)`` tokens of an ``(H, W, C)`` grid, by stl_forward's gather."""
    source, _ = swin._window_index(*grid.shape[:2], window, shift)
    return grid.reshape(-1, grid.shape[2])[source].reshape(-1, window * window, grid.shape[2])


def merge_tokens(tokens, h, w, window, shift=0):
    """The ``(h, w, C)`` grid back from its window tokens, by stl_forward's gather back."""
    _, back = swin._window_index(h, w, window, shift)
    return tokens.reshape(-1, tokens.shape[-1])[back].reshape(h, w, -1)


class TestWindowPartition:
    """The gather that pads, rolls and partitions a map into window tokens,
    and the gather that merges them back, on (H, W, C) grids."""

    def test_counts(self):
        rng = np.random.default_rng(0)
        grid = rng.standard_normal((4, 4, 1))
        windows = window_tokens(grid, 2)
        assert windows.shape == (4, 4, 1)
        assert np.array_equal(windows[1], grid[:2, 2:].reshape(4, 1))  # row-major windows

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 8, 3))
        for shift in (0, 2):  # the gather is the roll and partition copies
            windows = window_tokens(x, 4, shift)
            rolled = np.roll(x, (-shift, -shift), axis=(0, 1))
            assert np.array_equal(windows, partition_grid(rolled, 4)[0])
            assert np.array_equal(merge_tokens(windows, 8, 8, 4, shift), x)

    def test_padded_round_trip(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 7, 1))
        padded = np.pad(x, ((0, 3), (0, 1), (0, 0)), mode="reflect")
        for shift in (0, 2):  # and the reflection padding
            windows = window_tokens(x, 4, shift)
            assert windows.shape[0] == 4
            rolled = np.roll(padded, (-shift, -shift), axis=(0, 1))
            assert np.array_equal(windows, partition_grid(rolled, 4)[0])
            assert np.array_equal(merge_tokens(windows, 5, 7, 4, shift), x)

    def test_map_smaller_than_its_padding_raises(self):
        with pytest.raises(InputError):
            swin._window_index(3, 8, 8, 0)


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
        got = _window_attention(tokens, cfg, params, relative_position_bias(params.bias_table, 2))
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
        got = _window_attention(tokens, cfg, params, relative_position_bias(params.bias_table, 3))
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
        windows = window_tokens(np.ascontiguousarray(x.transpose(1, 2, 0)), 4, shift=2)
        mask = swin._shift_mask(8, 8, 4, 2)
        every = list(enumerate(mask))
        bias = relative_position_bias(params.bias_table, 4)
        got = _window_attention(windows, cfg, params, bias, every)
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
        assert np.max(np.abs(_window_attention(windows, cfg, ones, bias, every) - 1.0)) <= 1e-12

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
        with pytest.raises(InputError):
            stl_forward(np.zeros((3, 4, 4)), cfg, zero_stl_params(cfg))


class TestStlParams:
    def test_each_field_holds_its_own_tensor(self):
        """Each tensor is a distinct constant, so a field loaded with another
        parameter of the same shape names the wrong store entry."""
        cfg = stl_cfg()
        recorder = _InventoryRecorder()
        load_stl_params(recorder, "stl", cfg)
        names = [name for name, _ in recorder.inventory]
        store = WeightStore()
        for k, (name, shape) in enumerate(recorder.inventory):
            store.set(name, np.full(shape, float(k)))
        params = load_stl_params(store, "stl", cfg)
        assert len(names) == len(fields(params)) == 13
        for param in fields(params):
            value = getattr(params, param.name)
            name = names[int(value.flat[0])]
            assert np.all(value == value.flat[0])
            assert name.replace(".", "_").endswith(f"_{param.name}"), (param.name, name)


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
        # 8x8 at window 8 and 4x4 at window 4 are single windows, which no
        # padding copy makes contiguous
        rng = np.random.default_rng(16)
        for size, window in ((64, 8), (8, 8), (4, 4)):
            cfg = stl_cfg(embed=32, heads=4, window=window, shift=shift * window // 8)
            params = random_stl_params(rng, cfg)
            planar = rng.standard_normal((32, size, size))
            channels_last = np.ascontiguousarray(planar.transpose(1, 2, 0)).transpose(2, 0, 1)
            assert np.array_equal(stl_forward(planar, cfg, params),
                                  stl_forward(channels_last, cfg, params)), (size, window)

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
        per_class = swin._shift_mask(2 * window, 2 * window, window, shift)[classes]
        assert np.array_equal(per_class, shift_mask_by_partition(*padded, window, shift))
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
        store = random_stg_store("stg.t", cfg, rng, scale=0.1)
        params = load_rstb_params(store, "stg.t.rstb0", cfg)
        x = rng.standard_normal((4, 6, 6))
        want = conv2d(stl_forward(x, cfg.stl_config(0), params.stls[0]), params.conv) + x
        assert np.max(np.abs(rstb_forward(x, cfg, params) - want)) <= 1e-12

    # maps that need reflection padding, and one that does not, at 2-6 layers:
    # the chain keeps its tokens in window order between layers, unshifted and
    # shifted in turn, and gathers back to a map once
    @pytest.mark.parametrize("size, window, layers", [
        ((45, 77), 8, 2), ((20, 33), 8, 3), ((13, 10), 4, 6), ((9, 9), 4, 5), ((64, 64), 8, 4)])
    def test_chain_keeps_the_bits_of_layer_by_layer_maps(self, size, window, layers):
        rng = np.random.default_rng(size[0] * 100 + size[1])
        cfg = StgConfig(num_rstb=1, stl_per_rstb=layers, embed_dim=8, num_heads=2, window=window)
        params = load_rstb_params(random_stg_store("stg.t", cfg, rng, scale=0.3), "stg.t.rstb0", cfg)
        planar = rng.standard_normal((8, *size))
        for x in (planar, np.ascontiguousarray(planar.transpose(1, 2, 0)).transpose(2, 0, 1)):
            y = x
            for j, stl in enumerate(params.stls):
                y = stl_forward(y, cfg.stl_config(j), stl)
            assert np.array_equal(rstb_forward(x, cfg, params), conv2d(y, params.conv) + x)


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
        store = random_stg_store("stg.t", cfg, rng, scale=0.1)
        params = load_stg_params(store, "stg.t", cfg)
        x = rng.standard_normal((4, 6, 6))
        y = rstb_forward(x, cfg, params.rstbs[0])
        y = rstb_forward(y, cfg, params.rstbs[1])
        want = conv2d(y, params.conv) + x
        assert np.max(np.abs(stg_forward(x, cfg, params) - want)) <= 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        store = random_stg_store("stg.t", TINY, rng)
        params = load_stg_params(store, "stg.t", TINY)
        x = rng.standard_normal((4, 8, 8))
        assert np.array_equal(stg_forward(x, TINY, params), stg_forward(x, TINY, params))


class TestConfigValidation:
    def test_heads_must_divide_embed(self):
        with pytest.raises(InputError):
            StlConfig(embed_dim=6, num_heads=4, window=2, shift=0, mlp_ratio=2.0)

    def test_shift_values(self):
        with pytest.raises(InputError):
            StlConfig(embed_dim=4, num_heads=1, window=4, shift=1, mlp_ratio=2.0)

    @pytest.mark.parametrize("key,value", [
        ("num_heads", 0), ("num_heads", -2), ("window", 0), ("window", -8),
        ("embed_dim", 0), ("embed_dim", -4), ("mlp_ratio", 0.0), ("mlp_ratio", -1.0),
    ])
    def test_degenerate_shapes_rejected(self, key, value):
        with pytest.raises(InputError):
            StgConfig(**{key: value})

    def test_integer_mlp_ratio(self):
        assert StgConfig(mlp_ratio=2).stl_config(0).hidden_dim == 64

    def test_alternating_shift_pattern(self):
        cfg = StgConfig(embed_dim=4, num_heads=1, window=4)
        assert cfg.stl_config(0).shift == 0
        assert cfg.stl_config(1).shift == 2
        assert cfg.stl_config(2).shift == 0
