"""The benchmark's workloads, their synthetic inputs, and the traced
rebuild of each op from the layers' public functions.

Every workload hands the program only images (in memory or as files) made
here from the workload seed: a two-contrast ellipse phantom, degraded to LR
with mcsr's own ``degrade``. Op ``k`` draws its inputs from
``numpy.random.default_rng([seed, k'])`` with ``k'`` derived from ``k``, so
an op's inputs do not depend on how many ops ran before it.

Each workload offers ``inputs(k)``, which makes op k's inputs before the
clock starts, ``untraced(k)``, the op as a user runs it, and
``inprocess(k, span)``, the same op rebuilt call by call inside this process
with ``span`` wrapped around every layer boundary. Both return an
:class:`Output`; the traced run requires their digests to be equal.
"""

import hashlib
import math
import resource
import struct
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from mcsr import default_config, init_random_weights, load_weights, run_forward, validate_store
from mcsr.aggregation import (MabConfig, jrfab_forward, load_jrfab_params, load_sab_params,
                              reconstruct, sab_forward)
from mcsr.imageio import read_image, write_image
from mcsr.kspace import central_mask, degrade
from mcsr.losses import full_loss, psnr, rmse, ssim
from mcsr.matching import MatchedPyramid, compute_matches, map_to_scale
from mcsr.pyramid import FeaturePyramid
from mcsr.swin import load_stg_params, stl_forward
from mcsr.tensor_ops import ConvSpec, conv2d
from mcsr.weights import save_weights
from spans import no_span

HR_SIZE = 256
CONTRASTS = ("T2", "FLAIR", "PD-FS")  # the targets one T1 reference guides
BLENDED_NOISE_LEVEL = 1.0  # the finite data-consistency branch of the loss
CHILD_TIMEOUT_S = 170
_IMAGE_HEADER = struct.Struct("<5sBII")  # MCIMG: magic, version, height, width


@dataclass
class Output:
    digest: str
    pixels: int  # HR pixels completed
    problem: str | None = None  # why the output check failed, if it did


def sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def check_image(image, shape):
    """Problem with an SR image, or None: right shape, finite values."""
    if image.shape != shape:
        return f"output shape {image.shape} != {shape}"
    if not np.all(np.isfinite(image)):
        return "output has non-finite values"
    return None


def phantom(rng, size, contrasts):
    """Ellipse phantom: one label map of random ellipses (a head outline and
    up to a dozen inner structures) and one random intensity per label and
    contrast, with mild Gaussian noise. Returns ``(contrasts, size, size)``
    in [0, 1]."""
    coords = (np.arange(size) + 0.5) / size * 2.0 - 1.0
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    labels = np.zeros((size, size), dtype=np.int64)
    count = int(rng.integers(8, 13))
    for label in range(1, count + 1):
        if label == 1:
            cy, cx, ay, ax = 0.0, 0.0, rng.uniform(0.8, 0.92), rng.uniform(0.65, 0.8)
        else:
            cy, cx = rng.uniform(-0.5, 0.5, 2)
            ay, ax = rng.uniform(0.05, 0.35, 2)
        theta = rng.uniform(0.0, math.pi)
        dy, dx = yy - cy, xx - cx
        u = dy * math.cos(theta) + dx * math.sin(theta)
        v = -dy * math.sin(theta) + dx * math.cos(theta)
        labels[(u / ay) ** 2 + (v / ax) ** 2 <= 1.0] = label
    intensity = rng.uniform(0.1, 0.9, (contrasts, count + 1))
    intensity[:, 0] = 0.0  # background
    images = intensity[:, labels] + rng.normal(0.0, 0.01, (contrasts, size, size))
    return np.clip(images, 0.0, 1.0)


# ---------------------------------------------------------------- counts
# Computed from array shapes at the span boundaries, never measured: they
# repeat exactly for one commit and input size.


def stl_counts(shape, cfg):
    """Matmul GFLOP of one Swin layer on a (C, H, W) map and the size in MB
    of its attention-logits block (float64, reflection-padded to windows)."""
    channels, h, w = shape
    window = cfg.window
    tokens = window * window
    padded = (h + (-h) % window) * (w + (-w) % window)
    flops = 2 * padded * channels * 4 * channels  # qkv and output projection
    flops += 2 * 2 * padded * tokens * channels  # logits and attention x values
    flops += 2 * 2 * h * w * channels * cfg.hidden_dim  # the two MLP layers
    logits = (padded // tokens) * cfg.num_heads * tokens * tokens * 8
    return {"gflop": flops / 1e9, "logit_mb": logits / 1e6}


def conv_gflop(shape, spec):
    _, h, w = shape
    out = ((h - 1) // spec.stride + 1) * ((w - 1) // spec.stride + 1)
    return 2 * out * 9 * spec.in_channels * spec.out_channels / 1e9


def match_counts(results):
    pairs = sum(r.similarity_map.size * r.similarity_map.size for r in results)
    return {"patches": len(results), "region_pairs": pairs}


# ------------------------------------------------------- traced forward
# Mirrors mcsr.pipeline.run_forward call for call, so the result is bitwise
# the same; if the program's composition changes, this must follow, and
# the traced run's digest check is what notices.


def _shallow(image, store, branch, channels, span):
    with span("pyramid.shallow"):
        spec = ConvSpec(1, channels, 1, store.fetch(f"shallow.{branch}.weight"),
                        store.fetch(f"shallow.{branch}.bias"))
        return conv2d(image[None], spec)


def _swin_group(x, store, branch, stg_cfg, span):
    with span(f"swin.{branch}.load"):
        params = load_stg_params(store, f"stg.{branch}", stg_cfg)
    with span(f"swin.{branch}.stg"):
        y = x
        for i, rstb in enumerate(params.rstbs):
            with span(f"swin.{branch}.rstb{i}"):
                z = y
                for j, stl in enumerate(rstb.stls):
                    cfg = stg_cfg.stl_config(j)
                    kind = "shifted" if cfg.shift else "unshifted"
                    with span(f"swin.{branch}.stl.{kind}", **stl_counts(z.shape, cfg)):
                        z = stl_forward(z, cfg, stl)
                with span(f"swin.{branch}.conv", gflop=conv_gflop(z.shape, rstb.conv)):
                    y = conv2d(z, rstb.conv) + y
        with span(f"swin.{branch}.conv", gflop=conv_gflop(y.shape, params.conv)):
            return conv2d(y, params.conv) + x


def _lr_branch(image, store, branch, cfg, span):
    with span(f"pyramid.{branch}"):
        x = _shallow(image, store, branch, cfg.stg.embed_dim, span)
        return _swin_group(x, store, branch, cfg.stg, span)


def _reference_pyramid(ref, store, cfg, span):
    with span("pyramid.ref"):
        x = _shallow(ref, store, "ref", cfg.channels, span)
        x = _swin_group(x, store, "ref", cfg.stg, span)
        levels = [x]
        for level in range(cfg.num_levels - 1, 0, -1):
            with span("pyramid.down"):
                down = ConvSpec(cfg.channels, cfg.channels, 2,
                                store.fetch(f"pyramid.down{level}.weight"),
                                store.fetch(f"pyramid.down{level}.bias"))
                x = conv2d(x, down)
            levels.append(x)
        return FeaturePyramid(tuple(reversed(levels)))


def traced_forward(cfg, store, lr, ref, span):
    """``run_forward(cfg, store, lr, ref)`` with a span at every layer call."""
    with span("kspace.degrade"):
        ref_lr = degrade(ref, cfg.uf)
    f_tar_lr = _lr_branch(lr, store, "tar_lr", cfg, span)
    f_ref_lr = _lr_branch(ref_lr, store, "ref_lr", cfg, span)
    pyramid = _reference_pyramid(ref, store, cfg, span)
    with span("matching.compute") as record:
        results, grid = compute_matches(f_tar_lr, f_ref_lr, cfg.match)
        if record is not None:
            record.update(match_counts(results))
    mapped = []
    for level in range(1, pyramid.num_levels + 1):
        with span(f"matching.map.l{level}"):
            mapped.append(map_to_scale(results, grid, pyramid, level, cfg.match))
    x = f_tar_lr
    for level, f_m in enumerate(MatchedPyramid(tuple(mapped)).levels, start=1):
        mab = MabConfig(level=level, upsample=level > 1, channels=cfg.channels,
                        stats_source=cfg.sab_stats_source)
        with span("aggregation.load"):
            sab_params = load_sab_params(store, level, cfg.channels)
        with span(f"aggregation.sab.l{level}"):
            f_hat = sab_forward(x, f_m, sab_params, mab)
        with span("aggregation.load"):
            jrfab_params = load_jrfab_params(store, level, cfg.channels)
        with span(f"aggregation.jrfab.l{level}"):
            x = jrfab_forward(f_hat, x, jrfab_params, mab)
    with span("aggregation.head"):
        return reconstruct(x, lr, store, cfg.uf, cfg.global_residual)


# ------------------------------------------------------------ workloads
# A workload's constructor is cheap; prepare() makes its inputs (not timed);
# setup(span) is what a user pays before the first op, and is what the
# set-up probes time in fresh processes.


class CliFresh:
    """``mcsr forward`` as a child process per op, default config (64->256,
    UF 4), no ``--weights``: every child imports mcsr and seeds its own
    weights. A new target/reference pair per op; no reference repeats."""

    name = "cli_fresh_uf4"
    min_ops = 1
    runs_in_child = True

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def prepare(self):
        pass

    def setup(self, span):
        self.cfg = default_config()

    def inputs(self, k):
        lr_path = self.workdir / f"lr{k}.mcimg"
        ref_path = self.workdir / f"ref{k}.mcimg"
        if not lr_path.exists():
            ref, target = phantom(np.random.default_rng([self.seed, k]), HR_SIZE, 2)
            write_image(lr_path, degrade(target, self.cfg.uf))
            write_image(ref_path, ref)
        return lr_path, ref_path

    def _output(self, path):
        data = Path(path).read_bytes()
        _, _, h, w = _IMAGE_HEADER.unpack_from(data)
        image = np.frombuffer(data, dtype="<f4", offset=_IMAGE_HEADER.size).reshape(h, w)
        digest = hashlib.sha256(data).hexdigest()
        return Output(digest, image.size, check_image(image, (HR_SIZE, HR_SIZE)))

    def untraced(self, k):
        lr_path, ref_path = self.inputs(k)
        out = self.workdir / f"sr{k}.mcimg"
        out.unlink(missing_ok=True)
        command = [sys.executable, "-m", "mcsr.cli", "forward", str(lr_path), str(ref_path),
                   "--out", str(out)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"mcsr forward exited {done.returncode}: {done.stderr.strip()}")
        return self._output(out)

    def untraced_inprocess(self, k):
        return self.inprocess(k, no_span)

    def inprocess(self, k, span):
        """What the ``forward`` command does, without the process."""
        lr_path, ref_path = self.inputs(k)
        out = self.workdir / f"sr{k}-inprocess.mcimg"
        with span("weights.init"):
            store = init_random_weights(self.cfg)
        with span("imageio.read"):
            lr = read_image(lr_path)
        with span("imageio.read"):
            ref = read_image(ref_path)
        sr = traced_forward(self.cfg, store, lr, ref, span)
        with span("imageio.write"):
            write_image(out, sr)
        return self._output(out)

    def peak_rss_mb(self):
        """Largest child so far (the set-up probes are far smaller)."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class ApiSharedRef:
    """In-process ``run_forward`` at UF 2 (128->256) with a weight store
    loaded once from a ``.mcsrw`` file. Op k is target contrast ``k % 3``
    guided by reference ``k // 3``, so each reference guides three targets
    in a row. Each SR image is then scored against its HR target, as an
    evaluation loop does: PSNR, RMSE, SSIM and the full loss with its
    gradient, the data-consistency step exact on even ops and blended on
    odd ones."""

    name = "api_shared_ref_uf2"
    min_ops = 2  # the second op is the first to repeat a reference
    runs_in_child = False

    def __init__(self, seed, workdir):
        self.seed = seed
        self.weights = workdir / "uf2.mcsrw"
        self._op = (None, None)

    def prepare(self):
        cfg = replace(default_config(), uf=2)
        save_weights(init_random_weights(cfg), self.weights)

    def setup(self, span):
        self.cfg = replace(default_config(), uf=2)
        with span("weights.load"):
            self.store = load_weights(self.weights)
        with span("weights.validate"):
            validate_store(self.cfg, self.store)
        self.mask = central_mask(HR_SIZE, HR_SIZE, self.cfg.uf)
        self.exact = self.cfg.loss
        self.blended = replace(self.exact, noise_level=BLENDED_NOISE_LEVEL)

    def inputs(self, k):
        """(target LR, reference HR, target HR) of op k."""
        if self._op[0] != k:
            r, contrast = divmod(k, len(CONTRASTS))
            images = phantom(np.random.default_rng([self.seed, r]), HR_SIZE, 1 + len(CONTRASTS))
            target = images[1 + contrast]
            self._op = (k, (degrade(target, self.cfg.uf), images[0], target))
        return self._op[1]

    def _scored(self, k, sr, hr, span):
        weights = self.exact if k % 2 == 0 else self.blended
        with span("losses.psnr"):
            p = psnr(sr, hr)
        with span("losses.rmse"):
            r = rmse(sr, hr)
        with span("losses.ssim"):
            s = ssim(sr, hr)
        with span("losses.full_loss"):
            report = full_loss(sr, hr, self.mask, weights, with_gradient=True)
        values = np.array([p, r, s, report.l_rec, report.l_dc, report.l_full])
        problem = check_image(sr, hr.shape) or check_image(report.gradient, hr.shape)
        if problem is None and not np.all(np.isfinite(values)):
            problem = "non-finite score"
        return Output(sha256(sr, values, report.gradient), sr.size, problem)

    def untraced(self, k):
        lr, ref, hr = self.inputs(k)
        return self._scored(k, run_forward(self.cfg, self.store, lr, ref), hr, no_span)

    untraced_inprocess = untraced

    def inprocess(self, k, span):
        lr, ref, hr = self.inputs(k)
        return self._scored(k, traced_forward(self.cfg, self.store, lr, ref, span), hr, span)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


WORKLOADS = {w.name: w for w in (CliFresh, ApiSharedRef)}
