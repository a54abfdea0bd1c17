import json
from dataclasses import replace

import numpy as np
import pytest

from mcsr import pipeline
from mcsr.config import from_json
from mcsr.errors import InputError
from mcsr.pipeline import run_forward, validate_store
from mcsr.weights import init_random_weights, parameter_inventory

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

    def test_shared_branch_weights_flag(self):
        rng = np.random.default_rng(1)
        store = init_random_weights(TINY, share_branch_stg=True)
        names = store.names()
        assert any(name.startswith("stg.shared.") for name in names)
        assert not any(name.startswith("stg.tar_lr.") for name in names)
        validate_store(TINY, store, share_branch_stg=True)
        lr = rng.uniform(size=(16, 16))
        ref = rng.uniform(size=(32, 32))
        out = run_forward(TINY, store, lr, ref, share_branch_stg=True)
        assert out.shape == (32, 32)
        assert np.all(np.isfinite(out))

    def test_pyramid_rstb_flag(self):
        rng = np.random.default_rng(2)
        store = init_random_weights(TINY, pyramid_rstb=True)
        assert any(name.startswith("pyramid.rstb") for name in store.names())
        out = run_forward(TINY, store, rng.uniform(size=(16, 16)),
                          rng.uniform(size=(32, 32)), pyramid_rstb=True)
        assert out.shape == (32, 32)

    def test_inventory_matches_flags(self):
        base = {name for name, _ in parameter_inventory(TINY)}
        shared = {name for name, _ in parameter_inventory(TINY, share_branch_stg=True)}
        assert len(shared) < len(base)
        with_rstb = {name for name, _ in parameter_inventory(TINY, pyramid_rstb=True)}
        assert base < with_rstb


def both_flag_store():
    """Random weights for the base inventory, both flags' extras, and UF 4."""
    store = init_random_weights(replace(TINY, uf=4), pyramid_rstb=True)
    shared = init_random_weights(TINY, share_branch_stg=True)
    for name in shared.names():
        if name not in store:
            store.set(name, shared.get(name))
    return store


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

    @pytest.mark.parametrize("change", [
        "reference", "uf", "stg", "share_branch_stg", "pyramid_rstb", "store.set",
    ])
    def test_each_input_of_the_reference_stages_misses(self, encodes, change):
        lr, ref = self.images(13)
        store = both_flag_store()
        run_forward(TINY, store, lr, ref)
        cfg, kwargs = TINY, {}
        if change == "reference":
            ref = ref.copy()
            ref[5, 7] += 1e-12
        elif change == "uf":
            cfg, lr = replace(TINY, uf=4), lr[:8, :8]
        elif change == "stg":
            cfg = replace(TINY, stg=replace(TINY.stg, stl_per_rstb=1))
        elif change == "store.set":
            store.set("head.bias", store.get("head.bias"))
        else:
            kwargs[change] = True
        run_forward(cfg, store, lr, ref, **kwargs)
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
