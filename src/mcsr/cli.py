"""Command-line entry point.

Subcommands: ``degrade``, ``forward``, ``metrics``, ``match-debug``,
``selftest``. Exit codes: 0 success, 2 input/shape error, 3 missing weights,
4 corrupt file.
"""

import argparse
import sys
import time
from pathlib import Path


from .config import default_config, load_config
from .errors import ConfigError, CorruptFileError, InputError, MissingWeightsError
from .imageio import read_image, write_image
from .kspace import central_mask, degrade
from .losses import full_loss, psnr, rmse, ssim
from .matching import compute_matches
from .pipeline import _checked_inputs, run_forward, validate_store
from .pyramid import extract_lr_features
from .selftest import run_selftest
from .weights import init_random_weights, load_weights


def _resolve_config(args):
    cfg = load_config(args.config) if args.config else default_config()
    if getattr(args, "seed", None) is not None:
        from dataclasses import replace

        cfg = replace(cfg, seed=args.seed)
    return cfg


def _resolve_store(cfg, args):
    if args.weights:
        store = load_weights(args.weights)
        validate_store(cfg, store)
        return store
    return init_random_weights(cfg)


def _cmd_degrade(args):
    image = read_image(args.input)
    if args.uf == 1:
        write_image(args.out, image)
    else:
        write_image(args.out, degrade(image, args.uf))
    out = read_image(args.out)
    print(f"degrade: {image.shape[0]}x{image.shape[1]} -> {out.shape[0]}x{out.shape[1]} ({args.out})")
    return 0


def _cmd_forward(args):
    cfg = _resolve_config(args)
    store = _resolve_store(cfg, args)
    lr = read_image(args.target_lr)
    ref = read_image(args.reference_hr)
    start = time.perf_counter()
    sr = run_forward(cfg, store, lr, ref)
    write_image(args.out, sr)
    elapsed = time.perf_counter() - start
    print(f"forward: {lr.shape[0]}x{lr.shape[1]} -> {sr.shape[0]}x{sr.shape[1]} "
          f"in {elapsed:.2f}s ({args.out})")
    return 0


def _cmd_metrics(args):
    cfg = load_config(args.config) if args.config else default_config()
    sr = read_image(args.sr)
    hr = read_image(args.hr)
    if sr.shape != hr.shape:
        raise InputError(f"image sizes differ: {sr.shape} vs {hr.shape}")
    mask = central_mask(hr.shape[0], hr.shape[1], args.uf)
    report = full_loss(sr, hr, mask, cfg.loss)
    values = (
        psnr(sr, hr), ssim(sr, hr), rmse(sr, hr),
        report.l_rec, report.l_dc, report.l_full,
    )
    labels = ("psnr", "ssim", "rmse", "l_rec", "l_dc", "l_full")
    fields = " ".join(f"{label} {value:.6f}" for label, value in zip(labels, values))
    print(f"{Path(args.sr).stem} {fields}")
    return 0


def _cmd_match_debug(args):
    cfg = _resolve_config(args)
    store = _resolve_store(cfg, args)
    lr, ref = _checked_inputs(cfg, read_image(args.target_lr), read_image(args.reference_hr))
    ref_lr = degrade(ref, cfg.uf)
    f_tar = extract_lr_features(lr, store, "tar_lr", cfg.stg)
    f_ref = extract_lr_features(ref_lr, store, "ref_lr", cfg.stg)
    results, _ = compute_matches(f_tar, f_ref, cfg.match)
    lines = []
    for result in results:
        n = result.patch_index + 1  # patches are numbered 1..N
        zh, zw, _ = result.index_map.shape
        for zr in range(zh):
            for zc in range(zw):
                gr, gc = result.index_map[zr, zc]
                sim = result.similarity_map[zr, zc]
                lines.append(f"{n} {zr} {zc} {gr} {gc} {sim:.6f}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"match-debug: {len(results)} patches, {len(lines)} lines ({args.out})")
    return 0


def _cmd_selftest(args):
    return run_selftest()


def build_parser():
    parser = argparse.ArgumentParser(prog="mcsr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degrade", help="k-space central-retention downsampling")
    p.add_argument("input")
    p.add_argument("--uf", type=int, default=4, choices=(1, 2, 4))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_degrade)

    p = sub.add_parser("forward", help="reference-guided super-resolution")
    p.add_argument("target_lr")
    p.add_argument("reference_hr")
    p.add_argument("--config")
    p.add_argument("--weights")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("metrics", help="PSNR/SSIM/RMSE and loss report")
    p.add_argument("sr")
    p.add_argument("hr")
    p.add_argument("--uf", type=int, default=4, choices=(1, 2, 4))
    p.add_argument("--config")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("match-debug", help="dump per-region match indices and similarities")
    p.add_argument("target_lr")
    p.add_argument("reference_hr")
    p.add_argument("--config")
    p.add_argument("--weights")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_match_debug)

    p = sub.add_parser("selftest", help="run the built-in oracle suites")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MissingWeightsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CorruptFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
