"""Golden values of the float64 SR output at fixed seeds, for the small
config's cases the selftest runs and for the default config.

The sha256 of the output bytes is the local gate: a refactor or speed-up
must reproduce the output bit for bit. BLAS kernels may round differently
on another machine, so a fallback tier accepts the output when its sum,
minimum and maximum are each within a relative error of 1e-12. Every case
prints the tier that accepted it. On the BLAS build and kernel that recorded
the digests, a second test accepts the sha256 tier alone, so a change of one
ulp fails there, at this process's BLAS thread count and, for the default
case, in a child at 2 OpenBLAS threads too (OpenBLAS runs fewer when the
process may use fewer CPUs). The small config's entry and the tier
check live in ``mcsr.selftest``, so ``mcsr selftest`` checks the same values.
The values were recorded once and are never re-pinned."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from support import recording_blas_mismatch

import mcsr
from mcsr import selftest
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


@pytest.mark.parametrize("name", GOLDEN)
def test_forward_output_is_bit_exact_on_the_recording_blas(name):
    why = recording_blas_mismatch()
    if why:
        pytest.skip(f"{why}: only the fallback tier applies")
    assert golden_tier(GOLDEN[name]) == "sha256"
    if name == "default":
        script = ("from support import openblas_threads\nfrom test_golden import GOLDEN\n"
                  "from mcsr.selftest import golden_tier\n"
                  "print(openblas_threads(), golden_tier(GOLDEN['default']))\n")
        path = os.pathsep.join([str(Path(__file__).parent), str(Path(mcsr.__file__).parents[1]),
                                os.environ.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": path},
                              timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        threads, tier = done.stdout.strip().split(maxsplit=1)
        print(f"GOLDEN default at {threads} OpenBLAS threads: {tier} tier")
        assert tier == "sha256"


def _swap_two_pixels(sr):
    sr = sr.copy()
    sr[0, 0], sr[1, 1] = sr[1, 1], sr[0, 0]
    return sr


REARRANGEMENTS = {
    "flipped": lambda sr: sr[::-1],
    "rolled": lambda sr: np.roll(sr, 5, axis=1),
    "swapped": _swap_two_pixels,
}


# golden_tier returns "relative error 0.0e+00" for all three: only the "DID NOT RAISE"
# failure counts as the expected one, so a crash of the test itself still fails it
@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="ROADMAP item 7: the fallback tier checks only the sum, minimum and "
                          "maximum, and a rearranged SR keeps all three")
@pytest.mark.parametrize("rearrange", REARRANGEMENTS)
def test_fallback_tier_refuses_a_rearranged_output(rearrange, monkeypatch):
    run_forward = selftest.run_forward
    monkeypatch.setattr(selftest, "run_forward",
                        lambda *args: REARRANGEMENTS[rearrange](run_forward(*args)))
    with pytest.raises(AssertionError):
        golden_tier(GOLDEN["ragged"])
