import json
from dataclasses import replace

import numpy as np
import pytest

from mcsr import pipeline
from mcsr.config import from_json
from mcsr.errors import InputError
from mcsr.pipeline import run_forward
from mcsr.weights import init_random_weights

TINY = from_json(json.dumps({
    "uf": 2,
    "channels": 8,
    "stg": {"num_rstb": 1, "stl_per_rstb": 2, "embed_dim": 8, "num_heads": 2,
            "window": 4, "mlp_ratio": 2.0},
    "match": {"patch_w": 8, "patch_h": 8, "center_size": 5, "region_size": 3},
    "seed": 9,
}))


class TestRunForward:
    def test_shape_and_determinism(self):
        rng = np.random.default_rng(0)
        store = init_random_weights(TINY)
        lr = rng.uniform(size=(16, 16))
        ref = rng.uniform(size=(32, 32))
        first = run_forward(TINY, store, lr, ref)
        second = run_forward(TINY, store, lr, ref)  # reuses the encoded reference
        recomputed = run_forward(TINY, init_random_weights(TINY), lr, ref)
        assert first.shape == (32, 32)
        assert np.all(np.isfinite(first))
        assert np.array_equal(first, second)
        assert np.array_equal(first, recomputed)

    def test_reference_size_contract(self):
        store = init_random_weights(TINY)
        with pytest.raises(InputError):
            run_forward(TINY, store, np.zeros((16, 16)), np.zeros((30, 30)))


class TestReferenceMemo:
    @pytest.fixture
    def encodes(self, monkeypatch):
        """Counts reference encodings and records what matching receives."""
        calls = {"encode": 0, "matched": []}
        encode, match_all = pipeline.extract_reference_pyramid, pipeline.match_all

        def counting_encode(*args, **kwargs):
            calls["encode"] += 1
            return encode(*args, **kwargs)

        def recording_match_all(f_tar_lr, f_ref_lr, pyramid, cfg):
            calls["matched"].append((f_ref_lr, pyramid))
            return match_all(f_tar_lr, f_ref_lr, pyramid, cfg)

        monkeypatch.setattr(pipeline, "extract_reference_pyramid", counting_encode)
        monkeypatch.setattr(pipeline, "match_all", recording_match_all)
        return calls

    @staticmethod
    def images(seed):
        rng = np.random.default_rng(seed)
        return rng.uniform(size=(16, 16)), rng.uniform(size=(32, 32))

    def test_warm_call_bit_equals_cold_call(self, encodes):
        lr_a, ref = self.images(10)
        lr_b, _ = self.images(11)
        store = init_random_weights(TINY)
        run_forward(TINY, store, lr_a, ref)
        warm = run_forward(TINY, store, lr_b, ref)
        assert encodes["encode"] == 1
        cold = run_forward(TINY, init_random_weights(TINY), lr_b, ref)
        assert np.array_equal(warm, cold)

    def test_equal_content_in_a_new_array_hits(self, encodes):
        lr, ref = self.images(12)
        store = init_random_weights(TINY)
        run_forward(TINY, store, lr, ref)
        run_forward(TINY, store, lr, ref.copy())
        run_forward(TINY, store, lr, np.asfortranarray(ref))
        assert encodes["encode"] == 1

    @pytest.mark.parametrize("change", ["reference", "uf", "stg", "store.set"])
    def test_each_input_of_the_reference_stages_misses(self, encodes, change):
        lr, ref = self.images(13)
        store = init_random_weights(replace(TINY, uf=4))  # its inventory covers UF 2 too
        run_forward(TINY, store, lr, ref)
        cfg = TINY
        if change == "reference":
            ref = ref.copy()
            ref[5, 7] += 1e-12
        elif change == "uf":
            cfg, lr = replace(TINY, uf=4), lr[:8, :8]
        elif change == "stg":
            cfg = replace(TINY, stg=replace(TINY.stg, stl_per_rstb=1))
        else:
            store.set("head.bias", store.get("head.bias"))
        run_forward(cfg, store, lr, ref)
        assert encodes["encode"] == 2

    def test_memo_holds_one_reference(self, encodes):
        lr, ref_a = self.images(14)
        _, ref_b = self.images(15)
        store = init_random_weights(TINY)
        for ref in (ref_a, ref_b, ref_a):
            run_forward(TINY, store, lr, ref)
        assert encodes["encode"] == 3

    def test_cached_features_and_weights_are_read_only(self, encodes):
        lr, ref = self.images(16)
        store = init_random_weights(TINY)
        run_forward(TINY, store, lr, ref)
        f_ref_lr, pyramid = encodes["matched"][0]
        for array in (f_ref_lr, *pyramid.levels, store.get("head.weight")):
            with pytest.raises(ValueError):
                array[...] = 0.0
