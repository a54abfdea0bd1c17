"""Golden values of the float64 SR output at fixed seeds, for the small
config's cases the selftest runs and for the default config.

The sha256 of the output bytes is the local gate: a refactor or speed-up
must reproduce the output bit for bit. BLAS kernels may round differently
on another machine, so a fallback tier accepts the output when its sum,
minimum and maximum are each within a relative error of 1e-12. Every case
prints the tier that accepted it. The small config's entry and the tier
check live in ``mcsr.selftest``, so ``mcsr selftest`` checks the same values.
The values were recorded once and are never re-pinned."""

import pytest

from mcsr.config import default_config
from mcsr.selftest import SELFTEST_GOLDEN, golden_tier

# name: (config, input seed, LR size, sha256, sum, min, max)
GOLDEN = {
    **SELFTEST_GOLDEN,
    "default": (default_config(), 1007, 64,
                "740763e2ef9571dfd796756cf6a2aa109cea08d188f2a97fe29bf979c804c2b2",
                32241.126799620426, -0.19265253454603298, 1.175716872120618),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_forward_output_matches_golden(name):
    print(f"GOLDEN {name} PASS: {golden_tier(GOLDEN[name])} tier")
