"""Command-line entry point.

Subcommands: ``degrade``, ``forward``, ``metrics``, ``match-debug``,
``selftest``. Exit codes: 0 success, 2 input/shape error, 3 missing weights,
4 corrupt file.
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from .config import default_config, load_config
from .errors import CorruptFileError, McsrError, MissingWeightsError
from .imageio import read_image, write_image
from .kspace import UPSAMPLING_FACTORS, central_mask, degrade
from .losses import full_loss, psnr, rmse, ssim
from .pipeline import _checked_inputs, match, run_forward
from .selftest import run_selftest
from .weights import init_random_weights, load_weights


def _resolve_config(args):
    return load_config(args.config) if args.config else default_config()


def _network_inputs(args):
    """Config, weight store, target LR and reference HR of the network commands.
    The images are read and checked before the weights are loaded or drawn."""
    cfg = _resolve_config(args)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    lr, ref = _checked_inputs(cfg, read_image(args.target_lr), read_image(args.reference_hr))
    store = load_weights(args.weights) if args.weights else init_random_weights(cfg)
    return cfg, store, lr, ref


def _cmd_degrade(args):
    image = read_image(args.input)
    out = image if args.uf == 1 else degrade(image, args.uf)
    write_image(args.out, out)
    print(f"degrade: {image.shape[0]}x{image.shape[1]} -> {out.shape[0]}x{out.shape[1]} ({args.out})")
    return 0


def _cmd_forward(args):
    cfg, store, lr, ref = _network_inputs(args)
    start = time.perf_counter()
    sr = run_forward(cfg, store, lr, ref)
    write_image(args.out, sr)
    elapsed = time.perf_counter() - start
    print(f"forward: {lr.shape[0]}x{lr.shape[1]} -> {sr.shape[0]}x{sr.shape[1]} "
          f"in {elapsed:.2f}s ({args.out})")
    return 0


def _cmd_metrics(args):
    cfg = _resolve_config(args)
    sr = read_image(args.sr)
    hr = read_image(args.hr)
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
    _, _, _, results, _ = match(*_network_inputs(args))  # run_forward's first half
    lines = []
    for n, result in enumerate(results, start=1):  # patches are numbered 1..N
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
    network = argparse.ArgumentParser(add_help=False)  # forward and match-debug
    network.add_argument("target_lr")
    network.add_argument("reference_hr")
    network.add_argument("--config")
    network.add_argument("--weights")
    network.add_argument("--seed", type=int)
    network.add_argument("--out", required=True)

    p = sub.add_parser("degrade", help="k-space central-retention downsampling")
    p.add_argument("input")
    p.add_argument("--uf", type=int, default=4, choices=UPSAMPLING_FACTORS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_degrade)

    p = sub.add_parser("forward", parents=[network], help="reference-guided super-resolution")
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("metrics", help="PSNR/SSIM/RMSE and loss report")
    p.add_argument("sr")
    p.add_argument("hr")
    p.add_argument("--uf", type=int, default=4, choices=UPSAMPLING_FACTORS)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("match-debug", parents=[network],
                       help="dump per-region match indices and similarities")
    p.set_defaults(func=_cmd_match_debug)

    p = sub.add_parser("selftest", help="reproduce the pinned forward output of a small config")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (McsrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, MissingWeightsError):
            return 3
        return 4 if isinstance(exc, CorruptFileError) else 2


if __name__ == "__main__":
    sys.exit(main())
