import json

import numpy as np
import pytest

from mcsr.cli import main
from mcsr.config import from_json
from mcsr.imageio import read_image, write_image
from mcsr.kspace import degrade
from mcsr.losses import psnr, rmse, ssim
from mcsr.oracles import make_bandlimited_image
from mcsr.weights import init_random_weights, load_weights, save_weights

TINY_CONFIG = {
    "uf": 2,
    "channels": 8,
    "stg": {"num_rstb": 1, "stl_per_rstb": 2, "embed_dim": 8, "num_heads": 2,
            "window": 4, "mlp_ratio": 2.0},
    "match": {"patch_w": 8, "patch_h": 8, "center_size": 5, "region_size": 3,
              "clamp_similarity": False},
    "seed": 5,
}


@pytest.fixture
def tiny(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(TINY_CONFIG))
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


class TestMatchDebugCommand:
    def _self_reference_setup(self, tmp_path):
        # Bandlimited HR: its own degradation regenerates the LR bit-exactly,
        # and cloned branch weights make the two LR feature maps identical.
        rng = np.random.default_rng(6)
        hr = make_bandlimited_image(32, 32, 2, rng)
        lr = degrade(hr, 2)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(TINY_CONFIG))
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
        assert "tensor-ops: 5/5 checks passed" in out
        assert "selftest PASS" in out
        assert elapsed <= 120.0

    def test_unaffected_by_corrupt_weight_files(self, tmp_path, capsys):
        # selftest uses internally generated weights only
        (tmp_path / "junk.mcsrw").write_bytes(b"MCSRW junk")
        assert main(["selftest"]) == 0


class TestLoadSaveRoundTrip:
    def test_cli_weights_survive_reload(self, tmp_path):
        cfg = from_json(json.dumps(TINY_CONFIG))
        store = init_random_weights(cfg)
        path = tmp_path / "w.mcsrw"
        save_weights(store, path)
        loaded = load_weights(path)
        assert loaded.names() == store.names()
        for name in store.names():
            assert np.array_equal(loaded.get(name), store.get(name))
