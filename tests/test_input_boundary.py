"""Property tests of the input boundary on the small config: every call of
``run_forward`` and of ``mcsr forward`` either produces a finite
(UF*H, UF*W) image or fails with a typed error and its exit code, the
public stage functions given arrays of the wrong rank or shape, or a tuple
for a pyramid, raise only ``McsrError``, and no function that takes an image
returns NaN or writes a file for a NaN input."""

import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mcsr.aggregation import (MabConfig, jrfab_forward, load_jrfab_params, load_sab_params,
                              mab_chain, reconstruct, sab_forward)
from mcsr.cli import main
from mcsr.config import to_json
from mcsr.errors import InputError, McsrError
from mcsr.imageio import read_image, write_image
from mcsr.kspace import degrade
from mcsr.losses import psnr, rmse, ssim
from mcsr.matching import (MatchedPyramid, compute_matches, map_to_scale, match_all,
                           partition_patches, region_match)
from mcsr.pipeline import run_forward
from mcsr.pyramid import FeaturePyramid, extract_lr_features, extract_reference_pyramid
from mcsr.weights import init_random_weights
from test_pipeline import TINY

STORE = init_random_weights(TINY)  # shared, so the reference memo is exercised too
C = TINY.channels
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


_MATCH_FEATURES = np.random.default_rng(8).uniform(size=(C, 16, 16))
MATCHES = compute_matches(_MATCH_FEATURES, _MATCH_FEATURES, TINY.match)  # (results, grid)
MAB = {level: (load_sab_params(STORE, level, C), load_jrfab_params(STORE, level, C),
               MabConfig(level, level > 1, C)) for level in (1, 2)}


def pyramid_or_tuple(levels, wrap):
    return FeaturePyramid(levels) if wrap else levels


STAGES = {
    "compute_matches": lambda a, b: compute_matches(a, b, TINY.match),
    "match_all": lambda a, b, levels: match_all(a, b, FeaturePyramid(levels), TINY.match),
    "FeaturePyramid": FeaturePyramid,
    "MatchedPyramid": MatchedPyramid,
    "extract_lr_features": lambda image: extract_lr_features(image, STORE, "tar_lr", TINY.stg),
    "extract_reference_pyramid":
        lambda image, levels: extract_reference_pyramid(image, STORE, TINY.stg, levels),
    "partition_patches": lambda a: partition_patches(a, TINY.match),
    "region_match": lambda a, b: region_match(a, b, TINY.match),
    "map_to_scale": lambda levels, wrap, level:
        map_to_scale(*MATCHES, pyramid_or_tuple(levels, wrap), level, TINY.match),
    "mab_chain": lambda x, levels, wrap: mab_chain(x, pyramid_or_tuple(levels, wrap), STORE, C),
    "sab_forward": lambda x, f_m, level: sab_forward(x, f_m, MAB[level][0], MAB[level][2]),
    "jrfab_forward":
        lambda f_hat, x, level: jrfab_forward(f_hat, x, MAB[level][1], MAB[level][2]),
    "reconstruct": lambda features, image: reconstruct(features, image, STORE, TINY.uf),
}


@st.composite
def stage_calls(draw):
    """(stage, args): arrays that share a (channels, height, width) base
    shape, scaled dyadically per pyramid level. Half the draws take the
    small config's channels at the 16x16 size of ``MATCHES``, so every stage
    also runs to its end; in the other half any base is drawn and each array
    may instead take any rank and shape."""
    valid = draw(st.booleans())
    base = (C, 16, 16) if valid else draw(
        st.tuples(st.sampled_from((0, 1, 3, C)), st.integers(0, 20), st.integers(0, 20)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def array(scale=1, rank=3):
        shape = (base[0], base[1] * scale, base[2] * scale)[3 - rank:]
        if not valid and draw(st.integers(0, 3)) == 0:
            shape = tuple(draw(st.lists(st.integers(0, 20), max_size=4)))
        return rng.uniform(size=shape)

    def levels():
        return tuple(array(2**i) for i in range(draw(st.integers(int(valid), 3))))

    stage = draw(st.sampled_from(sorted(STAGES)))
    level, wrap = draw(st.integers(1, 2)), draw(st.booleans())
    args = {
        "compute_matches": lambda: (array(), array()),
        "match_all": lambda: (array(), array(), levels()),
        "FeaturePyramid": lambda: (levels(),),
        "MatchedPyramid": lambda: (levels(),),
        "extract_lr_features": lambda: (array(rank=2),),
        "extract_reference_pyramid": lambda: (array(2, rank=2), draw(st.integers(1, 3))),
        "partition_patches": lambda: (array(),),
        "region_match": lambda: (array(), array()),
        "map_to_scale": lambda: (levels(), wrap, draw(st.integers(0, 3))),
        "mab_chain": lambda: (array(), levels(), wrap),
        "sab_forward": lambda: (array(), array(2 ** (level - 1)), level),
        "jrfab_forward": lambda: (array(2 ** (level - 1)), array(), level),
        "reconstruct": lambda: (array(TINY.uf), array(rank=2)),
    }[stage]()
    return stage, args


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(stage_calls())
def test_stage_functions_raise_only_typed_errors(case):
    stage, args = case
    try:
        STAGES[stage](*args)
    except McsrError:
        event(f"{stage}: McsrError")
    else:
        event(f"{stage}: ok")


NAN_CALLS = {
    "write_image": lambda image, tmp: write_image(tmp / "nan.mcimg", image),
    "degrade": lambda image, tmp: degrade(image, 2),
    "psnr": lambda image, tmp: psnr(image, np.zeros(image.shape)),
    "ssim": lambda image, tmp: ssim(np.zeros(image.shape), image),
    "rmse": lambda image, tmp: rmse(image, np.zeros(image.shape)),
}


@pytest.mark.parametrize("name", sorted(NAN_CALLS))
def test_nan_image_raises_input_error(name, tmp_path):
    image = np.full((16, 16), 0.5)
    image[3, 4] = np.nan
    with pytest.raises(InputError, match="non-finite"):
        NAN_CALLS[name](image, tmp_path)
    assert not any(tmp_path.iterdir())  # no file left for read_image to reject


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
