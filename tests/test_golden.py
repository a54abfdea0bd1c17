"""Golden values of the float64 SR output at fixed seeds, for the small
config the selftest runs and for the default config.

The sha256 of the output bytes is the local gate: a refactor or speed-up
must reproduce the output bit for bit. BLAS kernels may round differently
on another machine, so a fallback tier accepts the output when its sum,
minimum and maximum are each within a relative error of 1e-12. Every case
prints the tier that accepted it."""

import hashlib

import numpy as np
import pytest

from mcsr.config import ModelConfig, default_config
from mcsr.matching import MatchConfig
from mcsr.pipeline import run_forward
from mcsr.swin import StgConfig
from mcsr.weights import init_random_weights

FALLBACK_RTOL = 1e-12

TINY = ModelConfig(
    uf=2,
    channels=8,
    stg=StgConfig(num_rstb=1, stl_per_rstb=2, embed_dim=8, num_heads=2, window=4, mlp_ratio=2.0),
    match=MatchConfig(patch_w=8, patch_h=8, center_size=5, region_size=3),
    seed=7,
)

# name: (config, input seed, LR size, sha256, sum, min, max)
GOLDEN = {
    "tiny": (TINY, 71, 16,
             "9d512d93800db7ced009a29f91eac552cb6a8b3cc3e9bb85405c9e1d3c40d633",
             503.16019528158654, -0.09654437541558918, 1.0941777999452815),
    "default": (default_config(), 1007, 64,
                "740763e2ef9571dfd796756cf6a2aa109cea08d188f2a97fe29bf979c804c2b2",
                32241.126799620426, -0.19265253454603298, 1.175716872120618),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_forward_output_matches_golden(name):
    cfg, seed, size, digest, *stats = GOLDEN[name]
    rng = np.random.default_rng(seed)
    lr = rng.uniform(size=(size, size))
    ref = rng.uniform(size=(cfg.uf * size, cfg.uf * size))
    sr = run_forward(cfg, init_random_weights(cfg), lr, ref)
    assert sr.shape == ref.shape and sr.dtype == np.float64
    got = hashlib.sha256(np.ascontiguousarray(sr).tobytes()).hexdigest()
    if got == digest:
        tier = "sha256"
    else:
        rel = max(abs(g - w) / abs(w) for g, w in zip((sr.sum(), sr.min(), sr.max()), stats))
        assert rel <= FALLBACK_RTOL, f"sha256 {got} and sum/min/max off by {rel:.2e}"
        tier = f"relative error {rel:.1e}"
    print(f"GOLDEN {name} PASS: {tier} tier")
