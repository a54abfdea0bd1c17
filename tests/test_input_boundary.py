"""Property tests of the input boundary on the small config: every call of
``run_forward`` and of ``mcsr forward`` either produces a finite
(UF*H, UF*W) image or fails with a typed error and its exit code."""

import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mcsr.cli import main
from mcsr.config import to_json
from mcsr.errors import InputError, McsrError
from mcsr.imageio import read_image
from mcsr.pipeline import run_forward
from mcsr.weights import init_random_weights
from test_pipeline import TINY

STORE = init_random_weights(TINY)  # shared, so the reference memo is exercised too
MIN_SIDE = max(TINY.match.patch_h, TINY.match.patch_w, TINY.stg.window)
POISONS = (np.nan, np.inf, -np.inf)
HUGE = 1e300  # finite, but may overflow inside the network


@st.composite
def forward_inputs(draw):
    """(lr, ref, expected): expected is "ok", "error" or "either"."""
    side = st.one_of(st.integers(MIN_SIDE, 18), st.integers(0, 18))
    h, w = draw(side), draw(side)
    ref_shape = draw(st.sampled_from([(TINY.uf * h, TINY.uf * w)] * 3 + [(2 * h + 1, 2 * w)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lr, ref = rng.uniform(size=(h, w)), rng.uniform(size=ref_shape)
    lr_rank = draw(st.sampled_from((2, 2, 2, 2, 1, 3)))
    if lr_rank != 2:
        lr = lr.reshape(-1) if lr_rank == 1 else lr[None]
    poison = draw(st.sampled_from((None,) * 6 + POISONS + (HUGE,)))
    image = draw(st.sampled_from(("lr", "ref")))
    target = lr if image == "lr" else ref
    if poison is not None and target.size:
        target.flat[draw(st.integers(0, target.size - 1))] = poison
    valid = (lr_rank == 2 and min(h, w) >= MIN_SIDE and ref_shape == (TINY.uf * h, TINY.uf * w))
    if not valid or (poison is not None and poison != HUGE and target.size):
        return lr, ref, "error"
    return lr, ref, "either" if poison == HUGE else "ok"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(forward_inputs())
def test_run_forward_returns_finite_or_raises_typed(case):
    lr, ref, expected = case
    event(expected)
    try:
        sr = run_forward(TINY, STORE, lr, ref)
    except McsrError as exc:
        assert expected != "ok", f"valid input rejected: {exc}"
        assert isinstance(exc, InputError)
        return
    assert expected != "error"
    assert sr.shape == (TINY.uf * lr.shape[0], TINY.uf * lr.shape[1])
    assert np.all(np.isfinite(sr))


def test_overflow_raises_input_error_without_warnings():
    rng = np.random.default_rng(3)
    lr, ref = HUGE * rng.uniform(size=(16, 16)), HUGE * rng.uniform(size=(32, 32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="overflowed"):
            run_forward(TINY, init_random_weights(TINY), lr, ref)


def write_raw_image(path, image):
    """An MCIMG file with the float32 pixels as given: no clamping, NaN kept."""
    header = struct.pack("<5sBII", b"MCIMG", 1, *image.shape)
    Path(path).write_bytes(header + image.tobytes())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(forward_inputs())
def test_cli_forward_exit_codes_follow(case):
    lr, ref, expected = case
    if lr.ndim != 2:
        return  # an MCIMG file is 2-D by construction
    with np.errstate(over="ignore"):
        lr, ref = lr.astype("<f4"), ref.astype("<f4")  # HUGE becomes inf
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "config.json").write_text(to_json(TINY))
        write_raw_image(tmp / "lr.mcimg", lr)
        write_raw_image(tmp / "ref.mcimg", ref)
        out = tmp / "sr.mcimg"
        code = main(["forward", str(tmp / "lr.mcimg"), str(tmp / "ref.mcimg"),
                     "--config", str(tmp / "config.json"), "--out", str(out)])
        if not (np.all(np.isfinite(lr)) and np.all(np.isfinite(ref))):
            assert code == 4  # read_image rejects a non-finite payload
        elif expected == "error":
            assert code == 2
        else:
            assert code == 0
            assert read_image(out).shape == (TINY.uf * lr.shape[0], TINY.uf * lr.shape[1])
        assert code == 0 or not out.exists()
