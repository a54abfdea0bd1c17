import numpy as np
import pytest

from mcsr import weights
from mcsr.config import default_config
from mcsr.errors import CorruptFileError, InputError, MissingWeightsError
from mcsr.imageio import read_image, write_image
from mcsr.pipeline import validate_store
from mcsr.weights import (LCG_INCREMENT, LCG_MULTIPLIER, Lcg64, WeightStore,
                          init_random_weights, load_weights, parameter_inventory,
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
        rng = Lcg64(42)
        state = 42
        for _ in range(5):
            state = (state * LCG_MULTIPLIER + LCG_INCREMENT) % (1 << 64)
            assert rng.next_u32() == state >> 32

    def test_uniform_range_and_determinism(self):
        values = Lcg64(7).uniform((1000,))
        assert values.min() >= -0.02
        assert values.max() < 0.02
        assert np.array_equal(values, Lcg64(7).uniform((1000,)))

    def test_different_seeds_differ(self):
        assert not np.array_equal(Lcg64(1).uniform((10,)), Lcg64(2).uniform((10,)))

    @pytest.mark.parametrize("seed", [0, 7, (1 << 64) - 1])
    def test_uniform_bits_match_next_u32_across_boundaries(self, seed):
        block = weights._JUMP_BLOCK
        shapes = [(3,), (block - 4,), (2, block), (), (0,), (block + 1,), (4, 3, 3)]
        fast, slow = Lcg64(seed), Lcg64(seed)
        span = 0.04 / 4294967296.0
        for shape in shapes:
            count = int(np.prod(shape, dtype=np.int64))
            want = np.array([-0.02 + span * slow.next_u32() for _ in range(count)])
            got = fast.uniform(shape)
            assert got.shape == shape
            assert np.array_equal(got.reshape(-1), want)
            assert fast.state == slow.state


class TestRandomInit:
    def test_covers_inventory_and_reproducible(self):
        cfg = default_config()
        store = init_random_weights(cfg, seed=3)
        names = [name for name, _ in parameter_inventory(cfg)]
        assert store.names() == names
        again = init_random_weights(cfg, seed=3)
        for name in names:
            assert np.array_equal(store.get(name), again.get(name))

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
