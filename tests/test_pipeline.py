from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from mcsr import pipeline
from mcsr.errors import InputError, MissingWeightsError
from mcsr.pipeline import run_forward
from mcsr.selftest import TINY as SELFTEST_TINY
from mcsr.weights import init_random_weights, parameter_inventory

TINY = replace(SELFTEST_TINY, seed=9)


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

    @pytest.mark.parametrize("uf, count", [(2, 126), (4, 142)])
    def test_a_memo_miss_fetches_each_inventory_name_once(self, uf, count):
        cfg = replace(TINY, uf=uf)
        store = init_random_weights(cfg)
        fetched, fetch = [], store.fetch

        def counting_fetch(name, shape=None):
            fetched.append(name)
            return fetch(name, shape)

        store.fetch = counting_fetch
        rng = np.random.default_rng(1)
        run_forward(cfg, store, rng.uniform(size=(16, 16)), rng.uniform(size=(16 * uf, 16 * uf)))
        assert len(fetched) == count
        assert sorted(fetched) == sorted(name for name, _ in parameter_inventory(cfg))

    def test_each_level_maps_its_matches_before_its_sab(self, monkeypatch):
        cfg = replace(TINY, uf=4)
        calls = []

        def recording(stage):
            call = getattr(pipeline, stage)

            def record(*args):  # the level, or the MabConfig that holds it, is the fourth
                calls.append((stage, getattr(args[3], "level", args[3])))
                return call(*args)
            return record

        for stage in ("map_to_scale", "sab_forward", "jrfab_forward"):
            monkeypatch.setattr(pipeline, stage, recording(stage))
        rng = np.random.default_rng(2)
        run_forward(cfg, init_random_weights(cfg), rng.uniform(size=(16, 16)),
                    rng.uniform(size=(64, 64)))
        assert calls == [(stage, level) for level in (1, 2, 3)
                         for stage in ("map_to_scale", "sab_forward", "jrfab_forward")]

    def test_match_grid_holds_geometry_only(self):
        rng = np.random.default_rng(3)
        features = rng.uniform(size=(TINY.channels, 16, 16))
        _, grid = pipeline.compute_matches(features, features, TINY.match)
        assert {type(getattr(grid, field.name)) for field in fields(grid)} == {int}

    def test_reference_size_contract(self):
        store = init_random_weights(TINY)
        with pytest.raises(InputError):
            run_forward(TINY, store, np.zeros((16, 16)), np.zeros((30, 30)))


class TestReferenceMemo:
    @pytest.fixture
    def encodes(self, monkeypatch):
        """Counts reference pyramids and branch encodings, and records the
        reference features that matching and mapping receive and the matches
        that mapping receives."""
        calls = {"encode": 0, "branches": Counter(), "f_ref_lr": [], "pyramid": [],
                 "mapped": []}
        encode, branch_encode, compute_matches, map_to_scale = (
            pipeline._reference_pyramid, pipeline._encode, pipeline.compute_matches,
            pipeline.map_to_scale)

        def counting_encode(*args, **kwargs):
            calls["encode"] += 1
            return encode(*args, **kwargs)

        def counting_branch_encode(cfg, store, image, branch):
            calls["branches"][branch] += 1
            return branch_encode(cfg, store, image, branch)

        def recording_compute_matches(f_tar_lr, f_ref_lr, cfg):
            calls["f_ref_lr"].append(f_ref_lr)
            return compute_matches(f_tar_lr, f_ref_lr, cfg)

        def recording_map_to_scale(results, grid, pyramid, level, cfg):
            calls["pyramid"].append(pyramid)
            calls["mapped"].append(results)
            return map_to_scale(results, grid, pyramid, level, cfg)

        monkeypatch.setattr(pipeline, "_reference_pyramid", counting_encode)
        monkeypatch.setattr(pipeline, "_encode", counting_branch_encode)
        monkeypatch.setattr(pipeline, "compute_matches", recording_compute_matches)
        monkeypatch.setattr(pipeline, "map_to_scale", recording_map_to_scale)
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

    @pytest.mark.parametrize("change", ["reference", "store.set"])
    def test_each_input_of_the_reference_stages_misses(self, encodes, change):
        lr, ref = self.images(13)
        store = init_random_weights(TINY)
        run_forward(TINY, store, lr, ref)
        if change == "reference":
            ref = ref.copy()
            ref[5, 7] += 1e-12
        else:
            store.set("head.bias", store.get("head.bias"))
        run_forward(TINY, store, lr, ref)
        assert encodes["encode"] == 2

    # The memo key holds the UF and the Swin settings too, but a store fits the
    # inventory of one of each: another config is refused before any encoder runs.
    @pytest.mark.parametrize("change", ["uf", "stg"])
    def test_another_config_is_refused_and_the_memo_kept(self, encodes, monkeypatch, change):
        lr, ref = self.images(13)
        store = init_random_weights(TINY)
        run_forward(TINY, store, lr, ref)
        if change == "uf":  # UF 4 needs weights a UF-2 store lacks
            cfg, other_lr, error = replace(TINY, uf=4), lr[:8, :8], MissingWeightsError
        else:  # one layer per group leaves the second layers' weights unknown
            cfg = replace(TINY, stg=replace(TINY.stg, stl_per_rstb=1))
            other_lr, error = lr, InputError
        encode = pipeline._encode
        monkeypatch.setattr(pipeline, "_encode", None)  # calling it raises TypeError
        with pytest.raises(error):
            run_forward(cfg, store, other_lr, ref)
        monkeypatch.setattr(pipeline, "_encode", encode)
        run_forward(TINY, store, lr, ref)
        assert encodes["encode"] == 1  # the refused call encoded nothing; this one hit

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
        f_ref_lr, pyramid = encodes["f_ref_lr"][0], encodes["pyramid"][0]
        for array in (f_ref_lr, *pyramid.levels, store.get("head.weight")):
            with pytest.raises(ValueError):
                array[...] = 0.0

    def test_match_then_run_forward_encode_each_reference_once(self, encodes):
        lr, ref_a = self.images(17)
        _, ref_b = self.images(18)
        store = init_random_weights(TINY)
        pipeline.match(TINY, store, lr, ref_a)
        assert (encodes["branches"], encodes["encode"]) == ({"ref_lr": 1, "tar_lr": 1}, 0)
        run_forward(TINY, store, lr, ref_a)  # reads the reference LR features, adds the pyramid
        assert (encodes["branches"], encodes["encode"]) == (
            {"ref_lr": 1, "tar_lr": 2, "ref": 1}, 1)
        pipeline.match(TINY, store, lr, ref_b)
        run_forward(TINY, store, lr, ref_b)
        assert (encodes["branches"], encodes["encode"]) == (
            {"ref_lr": 2, "tar_lr": 4, "ref": 2}, 2)

    def test_store_set_after_match_drops_the_half_filled_memo(self, encodes):
        lr, ref = self.images(19)
        store = init_random_weights(TINY)
        pipeline.match(TINY, store, lr, ref)
        store.set("head.bias", store.get("head.bias"))
        run_forward(TINY, store, lr, ref)
        assert encodes["branches"]["ref_lr"] == 2

    def test_match_alone_caches_read_only_features(self, encodes):
        lr, ref = self.images(20)
        pipeline.match(TINY, init_random_weights(TINY), lr, ref)
        with pytest.raises(ValueError):
            encodes["f_ref_lr"][0][...] = 0.0


    @pytest.mark.parametrize("memo", ["miss", "hit"])
    def test_match_gives_the_matches_run_forward_maps(self, encodes, memo):
        """``match`` on one store and ``run_forward`` on another, both on a memo
        miss or both on a hit: the matches are equal to the last bit."""
        lr, ref = self.images(21)
        stores = [init_random_weights(TINY) for _ in range(2)]
        if memo == "hit":
            for store in stores:
                run_forward(TINY, store, lr[::-1], ref)
        before = Counter(encodes["branches"])
        matched = pipeline.match(TINY, stores[0], lr, ref)[3]
        run_forward(TINY, stores[1], lr, ref)
        assert encodes["branches"] - before == (
            {"ref_lr": 2, "tar_lr": 2, "ref": 1} if memo == "miss" else {"tar_lr": 2})
        for mapped in encodes["mapped"][-TINY.num_levels:]:
            assert len(mapped) == len(matched)
            for got, want in zip(matched, mapped):
                assert (got.ref_center, got.ref_topleft) == (want.ref_center, want.ref_topleft)
                for name in ("index_map", "similarity_map"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
