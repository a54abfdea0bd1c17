"""``mcsr selftest``: reproduce the pinned forward outputs of a small config.

The sha256 of the float64 SR output bytes is the local gate, and every forward
kernel runs in it. BLAS kernels may round differently on another machine, so a
fallback tier accepts the output when its sum, minimum and maximum are each
within a relative error of ``FALLBACK_RTOL``. Three cases pin what the square
UF-2 one misses: a ragged LR (padded patch grid and Swin layers), the
``"post"`` statistics without the global residual, and UF 4.
``tests/test_golden.py`` checks the same entries, plus the default config.
"""

import hashlib
from dataclasses import replace

import numpy as np

from .config import ModelConfig
from .matching import MatchConfig
from .pipeline import run_forward
from .swin import StgConfig
from .weights import init_random_weights

FALLBACK_RTOL = 1e-12

TINY = ModelConfig(
    uf=2,
    channels=8,
    stg=StgConfig(num_rstb=1, stl_per_rstb=2, embed_dim=8, num_heads=2, window=4, mlp_ratio=2.0),
    match=MatchConfig(patch_size=8, center_size=5, region_size=3),
    seed=7,
)

# name: (config, input seed, LR (rows, cols) or side, sha256, sum, min, max)
SELFTEST_GOLDEN = {
    "tiny": (TINY, 71, 16,
             "9d512d93800db7ced009a29f91eac552cb6a8b3cc3e9bb85405c9e1d3c40d633",
             503.16019528158654, -0.09654437541558918, 1.0941777999452815),
    "ragged": (TINY, 72, (17, 21),
               "7bbf138166450c5a5d6f21a49fc73d9f0cfab9e4c0f8c5a44c95d034ad167450",
               716.1969950138741, -0.10004012645464275, 1.11472107299647),
    "post": (replace(TINY, sab_stats_source="post", global_residual=False), 73, (18, 22),
             "f1e38da7aa6940c728512de17dcc6572339fb2ff8357d4ef0062755b3b139005",
             18.66903847155178, 0.011639195720762021, 0.013256736346083256),
    "uf4": (replace(TINY, uf=4), 74, (18, 22),
            "3bead8f65582773b57889526da7973d6937cdc7bbc462f7b5115a79dc155828e",
            3192.3877618259876, -0.1663187888429154, 1.1065978764705753),
}


def golden_tier(case):
    """Run one golden case and return the tier that accepts its output.

    A mismatch raises ``AssertionError`` explicitly, not through ``assert``,
    so ``python -O`` cannot turn it into a pass."""
    cfg, seed, size, digest, *stats = case
    rows, cols = (size, size) if isinstance(size, int) else size
    rng = np.random.default_rng(seed)
    lr = rng.uniform(size=(rows, cols))
    ref = rng.uniform(size=(cfg.uf * rows, cfg.uf * cols))
    sr = run_forward(cfg, init_random_weights(cfg), lr, ref)
    if sr.shape != ref.shape or sr.dtype != np.float64:
        raise AssertionError(f"output is {sr.dtype} {sr.shape}, expected float64 {ref.shape}")
    got = hashlib.sha256(np.ascontiguousarray(sr).tobytes()).hexdigest()
    if got == digest:
        return "sha256"
    rel = float(np.max(np.abs(np.array([sr.sum(), sr.min(), sr.max()]) - stats) / np.abs(stats)))
    if not rel <= FALLBACK_RTOL:  # a NaN fails too
        raise AssertionError(f"sha256 {got} and sum/min/max off by {rel:.2e}")
    return f"relative error {rel:.1e}"


def run_selftest():
    """Check every pinned case; returns 0 when all are reproduced, 1 otherwise."""
    failed = 0
    for name, case in SELFTEST_GOLDEN.items():
        try:
            tier = golden_tier(case)
        except AssertionError as exc:
            print(f"selftest FAIL: pinned forward output, case {name}: {exc}")
            failed += 1
        else:
            print(f"selftest PASS: pinned forward output ({tier} tier), case {name}")
    return 1 if failed else 0
