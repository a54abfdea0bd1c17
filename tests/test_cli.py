import os
import re
import struct
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracles import make_bandlimited_image

from mcsr import imageio, pipeline
from mcsr.cli import main
from mcsr.config import from_json, to_json
from mcsr.errors import CorruptFileError, InputError, McsrError, MissingWeightsError
from mcsr.imageio import read_image, write_image
from mcsr.kspace import degrade
from mcsr.losses import psnr, rmse, ssim
from mcsr.selftest import SELFTEST_GOLDEN, TINY
from mcsr.weights import MAGIC, VERSION, init_random_weights, load_weights, save_weights

TINY_CONFIG = to_json(replace(TINY, seed=5))


@pytest.fixture
def tiny(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(TINY_CONFIG)
    rng = np.random.default_rng(0)
    lr_path = tmp_path / "lr.mcimg"
    ref_path = tmp_path / "ref.mcimg"
    write_image(lr_path, rng.uniform(size=(16, 16)))
    write_image(ref_path, rng.uniform(size=(32, 32)))
    return tmp_path, config_path, lr_path, ref_path


class TestDegradeCommand:
    def test_quarter_scale_sizes(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        src = tmp_path / "hr.mcimg"
        out = tmp_path / "lr.mcimg"
        write_image(src, rng.uniform(size=(256, 256)))
        assert main(["degrade", str(src), "--uf", "4", "--out", str(out)]) == 0
        assert read_image(out).shape == (64, 64)

    def test_uf1_payload_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        src = tmp_path / "hr.mcimg"
        out = tmp_path / "copy.mcimg"
        write_image(src, rng.uniform(size=(32, 32)))
        assert main(["degrade", str(src), "--uf", "1", "--out", str(out)]) == 0
        assert out.read_bytes() == src.read_bytes()

    def test_indivisible_size_exits_2(self, tmp_path, capsys):
        src = tmp_path / "hr.mcimg"
        write_image(src, np.zeros((30, 30)))
        code = main(["degrade", str(src), "--uf", "4", "--out", str(tmp_path / "x.mcimg")])
        assert code == 2
        assert "divisible" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["degrade", str(tmp_path / "nope.mcimg"), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("command", [
    ["forward", "{d}", "{d}", "--out", "{d}/o"],
    ["degrade", "{d}", "--out", "{d}/o"],
    ["metrics", "{d}", "{d}"],
])
def test_directory_in_place_of_a_file_exits_2(tmp_path, capsys, command):
    assert main([arg.format(d=tmp_path) for arg in command]) == 2
    assert "error:" in capsys.readouterr().err


EMPTY = ("0x8", "8x0", "0x0")
WRAPPING_DIMS = {  # element counts whose int64 product wraps to 0 and to -17,179,869,183
    "dims_2^31_2^31_4": (2**31, 2**31, 4),
    "dims_(2^32-1)^4": (2**32 - 1,) * 4,
}


def _write_malformed_files(tmp):
    """Path of each malformed file by name: empty and truncated images, a
    config whose Swin window exceeds the LR, weights that overflow the forward
    pass, weights with a tensor outside the inventory, and weight headers
    whose dims wrap an int64."""
    paths = {name: tmp / name
             for name in (*EMPTY, "truncated", "window", "huge", "surplus", *WRAPPING_DIMS)}
    for name in EMPTY:
        h, w = map(int, name.split("x"))
        paths[name].write_bytes(imageio._HEADER.pack(imageio.MAGIC, imageio.VERSION, h, w))
    paths["truncated"].write_bytes(imageio._HEADER.pack(imageio.MAGIC, imageio.VERSION, 16, 16)
                                   + bytes(4 * 16 * 16 - 3))
    # at this window one relative position bias table would take 116 TiB
    paths["window"].write_text('{"uf": 2, "stg": {"window": 1000000}}')
    # finite float32 values up to about 6e36, whose products overflow float64
    store = init_random_weights(from_json(TINY_CONFIG))
    for name in store.names():
        store.set(name, store.get(name) * np.float32(3e38))
    save_weights(store, paths["huge"])
    store = init_random_weights(from_json(TINY_CONFIG))
    store.set("extra.weight", np.zeros(3))
    save_weights(store, paths["surplus"])
    for name, dims in WRAPPING_DIMS.items():  # one tensor "w", no payload
        paths[name].write_bytes(MAGIC + struct.pack("<IIH", VERSION, 1, 1) + b"w"
                                + struct.pack(f"<B{len(dims)}I", len(dims), *dims))
    return paths


# one instance of each direct McsrError subclass, and the exit code of that class alone
ERROR_CODES = {
    InputError: (InputError("bad input"), 2),
    MissingWeightsError: (MissingWeightsError(["head.weight"]), 3),
    CorruptFileError: (CorruptFileError("bad header", 0), 4),
}


def test_each_error_class_exits_with_its_own_code(monkeypatch, capsys):
    assert set(McsrError.__subclasses__()) == set(ERROR_CODES)
    for exc, code in ERROR_CODES.values():
        def fail(args, exc=exc):
            raise exc
        monkeypatch.setattr("mcsr.cli._cmd_forward", fail)
        assert main(["forward", "lr", "ref", "--out", "out"]) == code
        assert capsys.readouterr().err == f"error: {exc}\n"


NETWORK = "{lr} {ref} --config {config} --out {out}"
# command line with {placeholders} for the files, and its exit code
MALFORMED = {
    "overflowing weights, match-debug": (f"match-debug {NETWORK} --weights {{huge}}", 2),
    "surplus weights, match-debug": (f"match-debug {NETWORK} --weights {{surplus}}", 2),
    **{f"{e} image, degrade uf {uf}": (f"degrade {{{e}}} --uf {uf} --out {{out}}", 2)
       for e in EMPTY for uf in (1, 2)},
    **{f"{e} image, metrics": (f"metrics {{{e}}} {{{e}}}", 2) for e in EMPTY},
    **{f"{e} image, {command}": (f"{command} {NETWORK}".replace("{lr}", f"{{{e}}}"), 2)
       for e in EMPTY for command in ("forward", "match-debug")},
    **{f"weight {name}, forward": (f"forward {NETWORK} --weights {{{name}}}", 4)
       for name in WRAPPING_DIMS},
    **{f"window above the LR, {command}":
       (f"{command} {NETWORK}".replace("{config}", "{window}"), 2)
       for command in ("forward", "match-debug")},
    "truncated LR, forward": (f"forward {NETWORK}".replace("{lr}", "{truncated}"), 4),
    # the images are checked before the weights are read, so the image's code wins
    "empty LR and corrupt weights, forward":
        (f"forward {NETWORK} --weights {{dims_2^31_2^31_4}}".replace("{lr}", "{0x8}"), 2),
}


@pytest.mark.parametrize("row", MALFORMED)
def test_malformed_input_exits_with_its_code(tiny, capsys, monkeypatch, row):
    tmp_path, config_path, lr_path, ref_path = tiny
    command, code = MALFORMED[row]
    out = tmp_path / "out"
    paths = _write_malformed_files(tmp_path)
    # every row fails before the seeded draw, which would raise TypeError
    monkeypatch.setattr("mcsr.cli.init_random_weights", None)
    files = dict(lr=lr_path, ref=ref_path, config=config_path, out=out, **paths)
    args = [arg.format(**files) for arg in command.split()]  # paths may hold spaces
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out
    assert not out.exists()


class TestForwardCommand:
    def test_shapes_and_determinism(self, tiny):
        tmp_path, config_path, lr_path, ref_path = tiny
        out_a = tmp_path / "sr_a.mcimg"
        out_b = tmp_path / "sr_b.mcimg"
        args = ["forward", str(lr_path), str(ref_path), "--config", str(config_path)]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert read_image(out_a).shape == (32, 32)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seeded_random_weights_finite(self, tiny):
        tmp_path, config_path, lr_path, ref_path = tiny
        for seed in range(10):
            out = tmp_path / f"sr_{seed}.mcimg"
            code = main([
                "forward", str(lr_path), str(ref_path),
                "--config", str(config_path), "--seed", str(seed),
                "--out", str(out),
            ])
            assert code == 0
            assert np.all(np.isfinite(read_image(out)))

    def test_weights_file_round_trip_matches_random_init(self, tiny):
        tmp_path, config_path, lr_path, ref_path = tiny
        cfg = from_json(config_path.read_text())
        store = init_random_weights(cfg)
        weights_path = tmp_path / "w.mcsrw"
        save_weights(store, weights_path)
        out_a = tmp_path / "a.mcimg"
        out_b = tmp_path / "b.mcimg"
        assert main(["forward", str(lr_path), str(ref_path), "--config", str(config_path),
                     "--weights", str(weights_path), "--out", str(out_a)]) == 0
        assert main(["forward", str(lr_path), str(ref_path), "--config", str(config_path),
                     "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_missing_weights_exits_3(self, tiny, capsys):
        tmp_path, config_path, lr_path, ref_path = tiny
        cfg = from_json(config_path.read_text())
        store = init_random_weights(cfg)
        store._tensors.pop("head.weight")
        store._tensors.pop("head.bias")
        weights_path = tmp_path / "incomplete.mcsrw"
        save_weights(store, weights_path)
        code = main(["forward", str(lr_path), str(ref_path), "--config", str(config_path),
                     "--weights", str(weights_path), "--out", str(tmp_path / "x.mcimg")])
        assert code == 3
        assert "head.weight" in capsys.readouterr().err

    def test_corrupt_weights_exits_4(self, tiny, capsys):
        tmp_path, config_path, lr_path, ref_path = tiny
        weights_path = tmp_path / "corrupt.mcsrw"
        weights_path.write_bytes(b"MCSRW" + bytes(6))
        code = main(["forward", str(lr_path), str(ref_path), "--config", str(config_path),
                     "--weights", str(weights_path), "--out", str(tmp_path / "x.mcimg")])
        assert code == 4
        assert "offset" in capsys.readouterr().err

    def test_non_finite_weights_exit_4(self, tiny, capsys):
        tmp_path, config_path, lr_path, ref_path = tiny
        store = init_random_weights(from_json(config_path.read_text()))
        store.set("head.bias", np.array([np.inf]))
        weights_path = tmp_path / "inf.mcsrw"
        save_weights(store, weights_path)
        code = main(["forward", str(lr_path), str(ref_path), "--config", str(config_path),
                     "--weights", str(weights_path), "--out", str(tmp_path / "x.mcimg")])
        assert code == 4
        assert "non-finite" in capsys.readouterr().err

    def test_wrongly_shaped_weight_exits_2_before_compute(self, tiny, capsys, monkeypatch):
        tmp_path, config_path, lr_path, ref_path = tiny
        store = init_random_weights(from_json(config_path.read_text()))
        store.set("head.weight", np.zeros((1, 8, 5, 5)))
        weights_path = tmp_path / "misshaped.mcsrw"
        save_weights(store, weights_path)
        monkeypatch.setattr(pipeline, "_encode", None)  # calling it would raise TypeError
        out = tmp_path / "x.mcimg"
        code = main(["forward", str(lr_path), str(ref_path), "--config", str(config_path),
                     "--weights", str(weights_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "head.weight has shape (1, 8, 5, 5), expected (1, 8, 3, 3)" in err
        assert not out.exists()

    def test_size_mismatch_exits_2(self, tiny):
        tmp_path, config_path, lr_path, _ = tiny
        bad_ref = tmp_path / "bad_ref.mcimg"
        write_image(bad_ref, np.zeros((24, 24)))
        code = main(["forward", str(lr_path), str(bad_ref), "--config", str(config_path),
                     "--out", str(tmp_path / "x.mcimg")])
        assert code == 2

    def test_unknown_config_key_exits_2(self, tiny):
        tmp_path, _, lr_path, ref_path = tiny
        bad_config = tmp_path / "bad.json"
        bad_config.write_text('{"uf": 2, "mystery": 1}')
        code = main(["forward", str(lr_path), str(ref_path), "--config", str(bad_config),
                     "--out", str(tmp_path / "x.mcimg")])
        assert code == 2

    def test_seed_beyond_64_bits_exits_2(self, tiny, capsys):
        tmp_path, config_path, lr_path, ref_path = tiny
        out = tmp_path / "x.mcimg"
        code = main(["forward", str(lr_path), str(ref_path), "--config", str(config_path),
                     "--seed", str(2**64), "--out", str(out)])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()


class TestMetricsCommand:
    def test_identical_files(self, tmp_path, capsys):
        image = np.random.default_rng(3).uniform(size=(32, 32))
        a = tmp_path / "a.mcimg"
        b = tmp_path / "b.mcimg"
        write_image(a, image)
        write_image(b, image)
        assert main(["metrics", str(a), str(b), "--uf", "2"]) == 0
        line = capsys.readouterr().out.strip()
        assert "psnr 100.000000" in line
        assert "ssim 1.000000" in line
        assert "rmse 0.000000" in line
        assert "l_full 0.000000" in line
        assert line.startswith("a ")

    def test_offset_pair_closed_form(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        base = rng.uniform(0.0, 0.9, size=(32, 32))
        a = tmp_path / "sr.mcimg"
        b = tmp_path / "hr.mcimg"
        write_image(a, base + 0.1)
        write_image(b, base)
        assert main(["metrics", str(a), str(b), "--uf", "2"]) == 0
        assert "psnr 20.000000" in capsys.readouterr().out

    def test_matches_direct_library_calls(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(32, 32))
        y = rng.uniform(size=(32, 32))
        a = tmp_path / "x.mcimg"
        b = tmp_path / "y.mcimg"
        write_image(a, x)
        write_image(b, y)
        assert main(["metrics", str(a), str(b), "--uf", "2"]) == 0
        fields = capsys.readouterr().out.split()
        got = {fields[i]: float(fields[i + 1]) for i in range(1, len(fields), 2)}
        xq = read_image(a)
        yq = read_image(b)
        assert abs(got["psnr"] - psnr(xq, yq)) <= 1e-6
        assert abs(got["ssim"] - ssim(xq, yq)) <= 1e-6
        assert abs(got["rmse"] - rmse(xq, yq)) <= 1e-6

    def test_size_mismatch_exits_2(self, tmp_path):
        a = tmp_path / "a.mcimg"
        b = tmp_path / "b.mcimg"
        write_image(a, np.zeros((16, 16)))
        write_image(b, np.zeros((32, 32)))
        assert main(["metrics", str(a), str(b), "--uf", "2"]) == 2

    def test_huge_finite_noise_level_exits_2(self, tmp_path, capsys):
        # accepted before, it printed l_dc nan after numpy's overflow warnings
        image = np.random.default_rng(6).uniform(size=(64, 64))
        a, b, config = tmp_path / "a.mcimg", tmp_path / "b.mcimg", tmp_path / "loss.json"
        write_image(a, image)
        write_image(b, image[::-1])
        config.write_text('{"loss": {"noise_level": 1e308}}')
        assert main(["metrics", str(a), str(b), "--uf", "2", "--config", str(config)]) == 2
        assert "finite noise level must be <= 1e+15" in capsys.readouterr().err


class TestMatchDebugCommand:
    def _self_reference_setup(self, tmp_path):
        # Bandlimited HR: its own degradation regenerates the LR bit-exactly,
        # and cloned branch weights make the two LR feature maps identical.
        rng = np.random.default_rng(6)
        hr = make_bandlimited_image(32, 32, 2, rng)
        lr = degrade(hr, 2)
        config_path = tmp_path / "config.json"
        config_path.write_text(TINY_CONFIG)
        cfg = from_json(config_path.read_text())
        store = init_random_weights(cfg)
        for name in list(store.names()):
            if ".tar_lr." in name:
                store.set(name.replace(".tar_lr.", ".ref_lr."), store.get(name))
        weights_path = tmp_path / "w.mcsrw"
        save_weights(store, weights_path)
        lr_path = tmp_path / "lr.mcimg"
        ref_path = tmp_path / "ref.mcimg"
        write_image(lr_path, lr)
        write_image(ref_path, hr)
        return config_path, weights_path, lr_path, ref_path

    def test_self_reference_similarities_are_one(self, tmp_path):
        config_path, weights_path, lr_path, ref_path = self._self_reference_setup(tmp_path)
        out = tmp_path / "matches.txt"
        code = main(["match-debug", str(lr_path), str(ref_path),
                     "--config", str(config_path), "--weights", str(weights_path),
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        # N * (w - r + 1) * (h - r + 1) lines
        assert len(lines) == 4 * 6 * 6
        for line in lines:
            fields = line.split()
            assert len(fields) == 6
            assert fields[5] == "1.000000"

    def test_deterministic_across_runs(self, tmp_path):
        config_path, weights_path, lr_path, ref_path = self._self_reference_setup(tmp_path)
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        for out in (out_a, out_b):
            assert main(["match-debug", str(lr_path), str(ref_path),
                         "--config", str(config_path), "--weights", str(weights_path),
                         "--out", str(out)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_runs_matching_without_the_reference_pyramid(self, tiny, monkeypatch):
        tmp_path, config_path, lr_path, ref_path = tiny
        monkeypatch.setattr(pipeline, "_reference_pyramid", None)  # calling it raises TypeError
        out = tmp_path / "matches.txt"
        assert main(["match-debug", str(lr_path), str(ref_path), "--config", str(config_path),
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4 * 6 * 6

    def test_lr_smaller_than_one_patch_exits_2_naming_lr(self, tiny, capsys):
        tmp, config_path, _, _ = tiny
        rng = np.random.default_rng(7)
        write_image(tmp / "small_lr.mcimg", rng.uniform(size=(6, 6)))
        write_image(tmp / "small_ref.mcimg", rng.uniform(size=(12, 12)))
        code = main(["match-debug", str(tmp / "small_lr.mcimg"), str(tmp / "small_ref.mcimg"),
                     "--config", str(config_path), "--out", str(tmp / "m.txt")])
        assert code == 2
        assert "lr_image" in capsys.readouterr().err
        assert not (tmp / "m.txt").exists()

    def test_line_format_indices(self, tmp_path):
        config_path, weights_path, lr_path, ref_path = self._self_reference_setup(tmp_path)
        out = tmp_path / "matches.txt"
        main(["match-debug", str(lr_path), str(ref_path), "--config", str(config_path),
              "--weights", str(weights_path), "--out", str(out)])
        lines = out.read_text().strip().splitlines()
        patch_numbers = sorted({int(line.split()[0]) for line in lines})
        assert patch_numbers == [1, 2, 3, 4]  # 1-based patch ids
        first = lines[0].split()
        assert [int(v) for v in first[:5]] == [1, 0, 0, 0, 0]


class TestSelftestCommand:
    def test_exit_zero_and_reports(self, capsys):
        import time

        start = time.perf_counter()
        assert main(["selftest"]) == 0
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert "selftest PASS: pinned forward output (sha256 tier)" in out
        assert elapsed <= 120.0

    def test_unaffected_by_corrupt_weight_files(self, tmp_path, capsys):
        # selftest uses internally generated weights only
        (tmp_path / "junk.mcsrw").write_bytes(b"MCSRW junk")
        assert main(["selftest"]) == 0

    def test_perturbed_output_fails(self, monkeypatch, capsys):
        reconstruct = pipeline.reconstruct
        monkeypatch.setattr(pipeline, "reconstruct", lambda *a: reconstruct(*a) + 1e-9)
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert re.search(r"selftest FAIL: .*sha256 [0-9a-f]{64}", out) and "PASS" not in out

    def test_rounding_sized_change_passes_on_the_fallback_tier(self, monkeypatch, capsys):
        reconstruct = pipeline.reconstruct
        monkeypatch.setattr(pipeline, "reconstruct", lambda *a: reconstruct(*a) * (1 + 1e-14))
        assert main(["selftest"]) == 0
        assert "(relative error " in capsys.readouterr().out

    def test_perturbed_output_fails_under_python_optimize(self):
        script = (
            "import sys\n"
            "from mcsr import pipeline\n"
            "from mcsr.cli import main\n"
            "if not sys.flags.optimize:\n"
            "    sys.exit(99)\n"
            "reconstruct = pipeline.reconstruct\n"
            "pipeline.reconstruct = lambda *a: reconstruct(*a) + 1e-9\n"
            "sys.exit(main(['selftest']))\n"
        )
        src = str(Path(pipeline.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 1, done.stdout + done.stderr
        assert "selftest FAIL" in done.stdout

    def test_runs_without_scipy(self):
        # scipy is a test oracle only: the package must import and reproduce
        # its pinned outputs with scipy unimportable, and warn nothing on the way
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from mcsr.cli import main\n"
            "code = main(['selftest'])\n"
            "print('scipy modules:', [m for m in sys.modules if m.startswith('scipy.')])\n"
            "sys.exit(code)\n"
        )
        src = str(Path(pipeline.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.count("(sha256 tier)") == len(SELFTEST_GOLDEN), done.stdout
        assert "scipy modules: []" in done.stdout


class TestLoadSaveRoundTrip:
    def test_cli_weights_survive_reload(self, tmp_path):
        cfg = from_json(TINY_CONFIG)
        store = init_random_weights(cfg)
        path = tmp_path / "w.mcsrw"
        save_weights(store, path)
        loaded = load_weights(path)
        assert loaded.names() == store.names()
        for name in store.names():
            assert np.array_equal(loaded.get(name), store.get(name))
