import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from oracles import LcgReference

from mcsr import weights
from mcsr.aggregation import load_jrfab_params, load_sab_params
from mcsr.config import default_config
from mcsr.errors import CorruptFileError, InputError, MissingWeightsError
from mcsr.imageio import read_image, write_image
from mcsr.pipeline import validate_store
from mcsr.selftest import TINY
from mcsr.swin import load_stg_params
from mcsr.tensor_ops import ConvSpec
from mcsr.weights import (WeightStore, init_random_weights, load_weights, parameter_inventory,
                          save_weights)


class TestWeightStoreRoundTrip:
    def test_empty_store(self, tmp_path):
        path = tmp_path / "empty.mcsrw"
        save_weights(WeightStore(), path)
        assert len(load_weights(path)) == 0

    def test_fifty_random_tensors_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        store = WeightStore()
        for i in range(50):
            ndim = int(rng.integers(1, 5))
            shape = tuple(int(rng.integers(1, 6)) for _ in range(ndim))
            store.set(f"tensor{i:02d}.weight", rng.standard_normal(shape).astype(np.float32))
        path = tmp_path / "fifty.mcsrw"
        save_weights(store, path)
        loaded = load_weights(path)
        assert loaded.names() == store.names()
        for name in store.names():
            got = loaded.get(name)
            want = store.get(name)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        # saving what was loaded reproduces the file byte for byte
        second = tmp_path / "fifty2.mcsrw"
        save_weights(loaded, second)
        assert second.read_bytes() == path.read_bytes()

    def test_truncation_reports_offset(self, tmp_path):
        rng = np.random.default_rng(1)
        store = WeightStore()
        store.set("a.weight", rng.standard_normal((4, 4)).astype(np.float32))
        path = tmp_path / "w.mcsrw"
        save_weights(store, path)
        data = path.read_bytes()
        for cut in (3, 7, 12, 20, len(data) - 5):
            clipped = tmp_path / f"cut{cut}.mcsrw"
            clipped.write_bytes(data[:cut])
            with pytest.raises(CorruptFileError) as err:
                load_weights(clipped)
            assert err.value.offset <= cut

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mcsrw"
        path.write_bytes(b"NOPE!" + bytes(8))
        with pytest.raises(CorruptFileError) as err:
            load_weights(path)
        assert err.value.offset == 0

    def test_duplicate_name_rejected(self, tmp_path):
        store = WeightStore()
        store.set("dup", np.zeros(2, dtype=np.float32))
        path = tmp_path / "dup.mcsrw"
        save_weights(store, path)
        data = bytearray(path.read_bytes())
        entry = data[13:]  # header is magic(5) + version(4) + count(4)
        data[9:13] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(data) + bytes(entry))
        with pytest.raises(CorruptFileError):
            load_weights(path)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        store = WeightStore()
        store.set("a.weight", np.zeros(3))
        store.set("b.weight", np.array([0.5, bad]))
        path = tmp_path / "bad.mcsrw"
        save_weights(store, path)
        with pytest.raises(CorruptFileError, match="'b.weight'") as err:
            load_weights(path)
        assert err.value.offset == 13 + 2 + 8 + 1 + 4 + 3 * 4  # the entry of b.weight

    def test_set_stores_a_read_only_copy(self):
        source = np.zeros((2, 2), dtype=np.float32)
        store = WeightStore()
        store.set("w", source)
        source[0, 0] = 1.0
        assert store.get("w")[0, 0] == 0.0
        with pytest.raises(ValueError):
            store.get("w")[0, 0] = 1.0

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "trail.mcsrw"
        save_weights(WeightStore(), path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CorruptFileError):
            load_weights(path)


class TestLcg:
    def test_matches_recurrence(self):
        """Entry k - 1 of the jump-ahead tables advances a state by k steps."""
        slow = LcgReference(42)
        multipliers, increments = weights._jump_tables(4096)
        for a, c in zip(multipliers.tolist(), increments.tolist(), strict=True):
            slow.next_u32()
            assert (a * 42 + c) % (1 << 64) == slow.state

    def test_uniform_range_and_determinism(self):
        store = init_random_weights(TINY)
        values = np.concatenate([store.get(name).ravel() for name in store.names()])
        assert values.min() >= -0.02
        assert values.max() < 0.02
        again = init_random_weights(TINY)
        assert all(np.array_equal(store.get(name), again.get(name)) for name in store.names())

    def test_different_seeds_differ(self):
        first, second = (init_random_weights(replace(TINY, seed=s)) for s in (1, 2))
        assert not np.array_equal(first.get("shallow.tar_lr.weight"),
                                  second.get("shallow.tar_lr.weight"))

    @pytest.mark.parametrize("seed", [0, 7, (1 << 64) - 1])
    def test_uniform_bits_match_next_u32_across_boundaries(self, seed):
        """The draws follow the scalar recurrence through the whole inventory,
        carrying the state across every tensor boundary."""
        cfg = replace(TINY, seed=seed)
        store, slow = init_random_weights(cfg), LcgReference(seed)
        span = 0.04 / 4294967296.0
        for name, shape in parameter_inventory(cfg):
            want = [-0.02 + span * slow.next_u32() for _ in range(math.prod(shape))]
            got = store.get(name)
            assert got.shape == shape
            assert np.array_equal(got.reshape(-1), np.array(want, dtype=np.float32))


# a tensor of TINY's inventory, and a loader that fetches it
LOADS = {
    "stg.ref.rstb0.stl1.attn.bias_table": lambda s: load_stg_params(s, "stg.ref", TINY.stg),
    "stg.tar_lr.rstb0.conv.bias": lambda s: load_stg_params(s, "stg.tar_lr", TINY.stg),
    "mab2.sab.up.weight": lambda s: load_sab_params(s, 2, 8),
    "mab1.sab.alpha.bias": lambda s: load_sab_params(s, 1, 8),
    "mab2.jrfab.ta.weight": lambda s: load_jrfab_params(s, 2, 8),
    "mab1.jrfab.fuse.bias": lambda s: load_jrfab_params(s, 1, 8),
    "head.weight": lambda s: ConvSpec.load(s, "head", 8, 1),
    "pyramid.down1.bias": lambda s: ConvSpec.load(s, "pyramid.down1", 8, 8, stride=2),
}


class TestRandomInit:
    def test_covers_inventory_and_reproducible(self):
        cfg = replace(default_config(), seed=3)
        store = init_random_weights(cfg)
        names = [name for name, _ in parameter_inventory(cfg)]
        assert store.names() == names
        again = init_random_weights(cfg)
        for name in names:
            assert np.array_equal(store.get(name), again.get(name))

    @pytest.mark.parametrize("uf, size, digest", [
        (2, 4_060_645, "6bff7b99ce47aedbd36cf80ecbb1988ef298b7ef99bf7dcc052ce3765b2b94e9"),
        (4, 4_467_691, "6bcd44ce828fa81aca1e298338b66a8a4c9a973fa0a4f0598ecbcf541b0f6ae0"),
    ])
    def test_default_store_bytes_pinned(self, tmp_path, uf, size, digest):
        # the inventory's order and shapes fix the seeded draws, so any change
        # to either moves these bytes
        path = tmp_path / "default.mcsrw"
        save_weights(init_random_weights(replace(default_config(), uf=uf)), path)
        data = path.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)

    def test_validate_store_accepts_complete(self):
        cfg = default_config()
        validate_store(cfg, init_random_weights(cfg))

    def test_missing_weight_listed(self):
        cfg = default_config()
        store = init_random_weights(cfg)
        store._tensors.pop("head.weight")
        with pytest.raises(MissingWeightsError) as err:
            validate_store(cfg, store)
        assert "head.weight" in err.value.names

    def test_unknown_weight_rejected(self):
        cfg = default_config()
        store = init_random_weights(cfg)
        store.set("mystery.weight", np.zeros(3, dtype=np.float32))
        with pytest.raises(InputError) as err:
            validate_store(cfg, store)
        assert "mystery.weight" in str(err.value)

    def test_wrong_shape_rejected(self):
        cfg = default_config()
        store = init_random_weights(cfg)
        store.set("head.weight", np.zeros((1, 32, 5, 5)))
        with pytest.raises(InputError) as err:
            validate_store(cfg, store)
        assert str(err.value) == (
            "weight head.weight has shape (1, 32, 5, 5), expected (1, 32, 3, 3)"
        )

    def test_inventory_of_an_oversized_config_allocates_nothing(self):
        # an fc1 weight would take 512 PB; the recorder makes no tensor, so
        # validate_store names the misfit instead of failing to allocate
        huge = replace(TINY, stg=replace(TINY.stg, mlp_ratio=1e15))
        shapes = dict(parameter_inventory(huge))
        assert shapes["stg.ref.rstb0.stl1.mlp.fc1.weight"] == (8 * 10**15, 8)
        first = re.escape("stg.tar_lr.rstb0.stl0.mlp.fc1.weight")
        with pytest.raises(InputError, match=f"^weight {first} has shape"):
            validate_store(huge, init_random_weights(TINY))

    @pytest.mark.parametrize("name", LOADS)
    def test_loaders_raise_validate_stores_error_at_load_time(self, name):
        store = init_random_weights(TINY)
        shape = store.get(name).shape
        store.set(name, np.zeros((shape[0] + 1, *shape[1:])))
        with pytest.raises(InputError) as want:
            validate_store(TINY, store)
        with pytest.raises(InputError, match=f"^{re.escape(str(want.value))}$"):
            LOADS[name](store)


class TestImageIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        image = rng.uniform(size=(12, 9))
        path = tmp_path / "img.mcimg"
        write_image(path, image)
        back = read_image(path)
        assert back.shape == (12, 9)
        assert np.max(np.abs(back - image)) <= 1e-7  # float32 quantization only

    def test_write_clamps_to_unit_range(self, tmp_path):
        path = tmp_path / "clamp.mcimg"
        write_image(path, np.array([[-0.5, 0.25], [1.5, 1.0]]))
        back = read_image(path)
        assert np.array_equal(back, np.array([[0.0, 0.25], [1.0, 1.0]]))

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "img.mcimg"
        write_image(path, np.zeros((4, 4)))
        clipped = tmp_path / "cut.mcimg"
        clipped.write_bytes(path.read_bytes()[:20])
        with pytest.raises(CorruptFileError):
            read_image(clipped)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.mcimg"
        path.write_bytes(b"JUNK!" + bytes(20))
        with pytest.raises(CorruptFileError):
            read_image(path)
