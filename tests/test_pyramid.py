from dataclasses import replace

import numpy as np
import pytest
from support import TINY_STG, random_stg_store, zero_stg_store

from mcsr.errors import InputError
from mcsr.pipeline import _encode, _reference_pyramid
from mcsr.pyramid import FeaturePyramid
from mcsr.selftest import TINY
from mcsr.tensor_ops import ConvSpec, conv2d
from mcsr.weights import WeightStore

UF4 = replace(TINY, uf=4)  # three pyramid levels on TINY_STG; TINY's UF 2 gives two


def build_store(rng, channels=8, stg_cfg=TINY_STG, levels=3, zero=False):
    store = WeightStore()
    for branch in ("tar_lr", "ref_lr", "ref"):
        shape = (channels, 1, 3, 3)
        store.set(f"shallow.{branch}.weight", np.zeros(shape) if zero else 0.1 * rng.standard_normal(shape))
        store.set(f"shallow.{branch}.bias", np.zeros(channels))
        if zero:
            zero_stg_store(f"stg.{branch}", stg_cfg, store)
        else:
            random_stg_store(f"stg.{branch}", stg_cfg, rng, store=store)
    for level in range(levels - 1, 0, -1):
        shape = (channels, channels, 3, 3)
        store.set(f"pyramid.down{level}.weight", np.zeros(shape) if zero else 0.1 * rng.standard_normal(shape))
        store.set(f"pyramid.down{level}.bias", np.zeros(channels))
    return store


class TestReferencePyramid:
    def test_uf4_level_sizes_256(self):
        # 256x256 reference at UF=4 -> 64^2, 128^2, 256^2 levels
        rng = np.random.default_rng(0)
        store = build_store(rng, zero=True)
        pyramid = _reference_pyramid(UF4, store, np.zeros((256, 256)))
        assert [level.shape for level in pyramid.levels] == [
            (8, 64, 64), (8, 128, 128), (8, 256, 256)
        ]

    def test_uf2_level_sizes(self):
        rng = np.random.default_rng(1)
        store = build_store(rng, levels=2)
        pyramid = _reference_pyramid(TINY, store, np.zeros((128, 128)))
        assert [level.shape for level in pyramid.levels] == [(8, 64, 64), (8, 128, 128)]

    def test_zero_image_zero_biases_all_levels_zero(self):
        rng = np.random.default_rng(2)
        store = build_store(rng)
        for name in store.names():  # random weights, all bias terms zeroed
            if name.endswith(".bias"):
                store.set(name, np.zeros_like(store.get(name)))
        pyramid = _reference_pyramid(UF4, store, np.zeros((32, 32)))
        for level in pyramid.levels:
            assert np.all(level == 0.0)

    def test_geometric_size_sequence(self):
        rng = np.random.default_rng(3)
        store = build_store(rng)
        pyramid = _reference_pyramid(UF4, store, rng.uniform(size=(32, 32)))
        for coarse, fine in zip(pyramid.levels, pyramid.levels[1:]):
            assert fine.shape[1] == 2 * coarse.shape[1]
            assert fine.shape[2] == 2 * coarse.shape[2]
            assert fine.shape[0] == coarse.shape[0]


class TestLrFeatures:
    def test_output_shape(self):
        rng = np.random.default_rng(10)
        store = build_store(rng)
        out = _encode(UF4, store, rng.uniform(size=(64, 64)), "tar_lr")
        assert out.shape == (8, 64, 64)

    def test_zero_stg_equals_shallow_lift(self):
        rng = np.random.default_rng(11)
        store = build_store(rng, zero=True)
        shallow = ConvSpec(1, 8, 1, store.fetch("shallow.tar_lr.weight"),
                           store.fetch("shallow.tar_lr.bias"))
        image = rng.uniform(size=(16, 16))
        out = _encode(UF4, store, image, "tar_lr")
        assert np.array_equal(out, conv2d(image[None], shallow))

    def test_identical_branches_identical_features(self):
        rng = np.random.default_rng(12)
        store = build_store(rng)
        # copy tar_lr weights onto ref_lr so the two branches coincide
        for name in list(store.names()):
            if ".tar_lr." in name:
                store.set(name.replace(".tar_lr.", ".ref_lr."), store.get(name))
        image = rng.uniform(size=(16, 16))
        a = _encode(UF4, store, image, "tar_lr")
        b = _encode(UF4, store, image, "ref_lr")
        assert np.array_equal(a, b)

    def test_lr_scale_matches_pyramid_base(self):
        rng = np.random.default_rng(13)
        store = build_store(rng)
        lr = rng.uniform(size=(16, 16))
        ref = rng.uniform(size=(64, 64))
        features = _encode(UF4, store, lr, "tar_lr")
        pyramid = _reference_pyramid(UF4, store, ref)
        assert pyramid.levels[0].shape == features.shape


class TestFeaturePyramidType:
    def test_rejects_bad_scale_chain(self):
        with pytest.raises(InputError):
            FeaturePyramid((np.zeros((2, 4, 4)), np.zeros((2, 6, 6))))

    def test_rejects_channel_mismatch(self):
        with pytest.raises(InputError):
            FeaturePyramid((np.zeros((2, 4, 4)), np.zeros((3, 8, 8))))
