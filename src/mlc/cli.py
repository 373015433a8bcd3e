"""Command-line entry point: gen / train / predict / evaluate / fuse / augment.

Every subcommand is reproducible from its flags and seed alone. Exit codes:
0 success, 2 usage error, 1 runtime error (message on stderr).
`_read` opens every input file and hands it, as a binary stream, to the
library reader that owns its format.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from pathlib import Path

from .augment import MODES
from .errors import IoError, MlcError
from .fusion import fuse
from .io import (
    MANIFEST_NAME, DatasetManifest, csv_blocks, read_csv_matrix, read_manifest, write_atomic,
    write_dataset,
)
from .metrics import TOP_K, evaluate, format_report, machine_line
from .model import load_params, save_params
from .synthgen import SynthConfig, generate
from .trainer import TrainConfig, augmented_samples, predict, train


class _UsageError(Exception):
    """A flag value that is invalid by itself, found before any file is read."""


def _config(factory, **fields):
    try:
        return factory(**fields)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _check_writable(*targets: str | None, inputs: Sequence[str] = (), directory: bool = False) -> None:
    """Raise IoError unless each output target could be written: a file, or
    with `directory` a dataset directory that exists or can be made, whose
    MANIFEST_NAME is the file checked. A target whose file resolves to one of
    `inputs`, or to another target's, is refused too. Run before any input
    is read, so a bad target costs no work and writes over no input."""
    taken = {os.path.realpath(path): "an input" for path in inputs}
    for target in filter(None, targets):
        path = Path(target)
        try:
            exists = path.exists()
        except OSError as exc:  # a name the file system cannot hold, such as one too long
            raise IoError(f"cannot write {target}: {exc.strerror or exc}") from None
        if exists and path.is_dir() != directory:
            reason = "Not a directory" if directory else "Is a directory"
            raise IoError(f"cannot write {target}: {reason}")
        if not path.parent.is_dir():
            raise IoError(f"cannot write {target}: {path.parent} is not a directory")
        written = path / MANIFEST_NAME if directory else path
        real = os.path.realpath(written)
        if real in taken:
            raise IoError(f"cannot write {written}: it is {taken[real]}")
        taken[real] = "another output"


def _read_manifest(path: str, *targets: str | None) -> tuple[DatasetManifest, Path]:
    """The manifest at `path` and its directory, the root of its images. A target
    that is a listed image, or the directory holding one, is refused with IoError."""
    manifest, root = _read(path, read_manifest), Path(path).parent
    # a path with a NUL byte names no file, and its read fails as a DataLoadError
    listed = [root / name for name, _ in manifest.entries if "\0" not in name]
    held = dict.fromkeys(map(os.path.realpath, {image.parent for image in listed}), "holds")
    held.update(dict.fromkeys(map(os.path.realpath, listed), "is"))
    for target in filter(None, targets):
        if verb := held.get(os.path.realpath(target)):
            raise IoError(f"cannot write {target}: it {verb} an input")
    return manifest, root


def _input_size(args) -> tuple[int, int]:
    """`--size` as (H, W); a side below 1 is a usage error."""
    size = (args.size[0], args.size[1])
    if min(size) < 1:
        raise _UsageError(f"--size must be positive, got {size[0]} {size[1]}")
    return size


def _read(path: str, reader, *args):
    """`reader(stream, *args)` on the file at `path`, opened as a binary stream."""
    with open(path, "rb") as stream:
        return reader(stream, *args)


def _size(parser: argparse.ArgumentParser, default: tuple[int, int]) -> None:
    parser.add_argument(
        "--size", nargs=2, type=int, default=list(default), metavar=("H", "W"),
        help="input image size",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlc", description="Multi-label image classification toolkit."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter
    gen, cfg = SynthConfig, TrainConfig  # the owners of every default below

    p = sub.add_parser("gen", help="generate a synthetic shapes dataset", formatter_class=fmt)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--num", required=True, type=int, help="number of images")
    _size(p, gen.image_size)
    p.add_argument("--classes", type=int, default=gen.num_classes, help="number of classes")
    p.add_argument("--min-concepts", type=int, default=gen.min_concepts,
                   help="min labels per image")
    p.add_argument("--max-concepts", type=int, default=gen.max_concepts,
                   help="max labels per image")
    p.add_argument("--seed", type=int, default=gen.seed, help="generator seed")

    p = sub.add_parser("train", help="train a model on a manifest", formatter_class=fmt)
    p.add_argument("--manifest", required=True, help="manifest.tsv path")
    p.add_argument("--mode", required=True, choices=MODES, help="augmentation mode")
    _size(p, cfg.input_size)
    p.add_argument("--seed", type=int, default=cfg.seed, help="training seed")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--epochs", type=int, default=cfg.epochs, help="training epochs")
    p.add_argument("--batch-size", type=int, default=cfg.batch_size, help="mini-batch size")
    p.add_argument("--lr-head", type=float, default=cfg.lr_head,
                   help="head (output layer) learning rate")
    p.add_argument("--lr-body", type=float, default=cfg.lr_body,
                   help="body (hidden layer) learning rate")
    p.add_argument("--decay-factor", type=float, default=cfg.lr_decay_factor,
                   help="learning-rate decay factor")
    p.add_argument("--decay-epoch", type=int, default=cfg.lr_decay_epoch,
                   help="epoch at which the decay applies")
    p.add_argument("--pool-grid", nargs=2, type=int, default=list(cfg.pool_grid),
                   metavar=("GH", "GW"), help="adaptive pooling grid")
    p.add_argument("--hidden", type=int, default=cfg.hidden, help="hidden layer width")
    p.add_argument("--log", default=None, help="training log path (epoch lr loss per line)")

    p = sub.add_parser("predict", help="score a manifest with a checkpoint", formatter_class=fmt)
    p.add_argument("--params", required=True, help="checkpoint path")
    p.add_argument("--manifest", required=True, help="manifest.tsv path")
    _size(p, cfg.input_size)
    p.add_argument("--out", required=True, help="scores CSV output path")

    p = sub.add_parser("evaluate", help="print the metric panel for scores vs labels",
                       formatter_class=fmt)
    p.add_argument("--scores", required=True, help="scores CSV path")
    p.add_argument("--labels", required=True, help="labels CSV path")
    p.add_argument("--k", type=int, default=TOP_K, help="top-k cutoff")

    p = sub.add_parser("fuse", help="average score matrices elementwise", formatter_class=fmt)
    p.add_argument("inputs", nargs="+", help="member score CSV paths")
    p.add_argument("--out", required=True, help="fused CSV output path")
    p.add_argument("--sigmoid-first", action="store_true",
                   help="map scores through sigmoid before averaging")

    p = sub.add_parser("augment", help="materialize augmented samples for inspection",
                       formatter_class=fmt)
    p.add_argument("--manifest", required=True, help="manifest.tsv path")
    p.add_argument("--mode", required=True, choices=MODES, help="augmentation mode")
    p.add_argument("--seed", type=int, default=cfg.seed, help="augmentation seed")
    p.add_argument("--out-dir", required=True, help="output directory")
    _size(p, cfg.input_size)

    return parser


def _cmd_gen(args) -> None:
    cfg = _config(
        SynthConfig,
        num_images=args.num,
        image_size=_input_size(args),
        num_classes=args.classes,
        min_concepts=args.min_concepts,
        max_concepts=args.max_concepts,
        seed=args.seed,
    )
    manifest = generate(cfg, args.out)
    print(f"wrote {len(manifest)} images and {MANIFEST_NAME} to {args.out}")


def _cmd_train(args) -> None:
    cfg = _config(
        TrainConfig,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr_head=args.lr_head,
        lr_body=args.lr_body,
        lr_decay_factor=args.decay_factor,
        lr_decay_epoch=args.decay_epoch,
        mode=args.mode,
        input_size=_input_size(args),
        seed=args.seed,
        pool_grid=(args.pool_grid[0], args.pool_grid[1]),
        hidden=args.hidden,
    )
    _check_writable(args.out, args.log, inputs=[args.manifest])
    manifest, root = _read_manifest(args.manifest, args.out, args.log)
    report = train(manifest, cfg, root=root, log_path=args.log)
    write_atomic(args.out, save_params(report.params))
    print(
        f"trained {args.mode} for {cfg.epochs} epochs in {report.wall_time_s:.1f}s; "
        f"first/last epoch loss {report.epoch_losses[0]:.4f}/{report.epoch_losses[-1]:.4f}; "
        f"checkpoint {args.out}"
    )


def _cmd_predict(args) -> None:
    size = _input_size(args)
    _check_writable(args.out, inputs=[args.params, args.manifest])
    manifest, root = _read_manifest(args.manifest, args.out)
    params = _read(args.params, load_params)
    scores = predict(params, manifest, size, root=root)
    write_atomic(args.out, csv_blocks(scores))
    print(f"wrote {scores.num_rows}x{scores.num_classes} scores to {args.out}")


def _cmd_evaluate(args) -> None:
    if args.k < 1:
        raise _UsageError(f"--k must be >= 1, got {args.k}")
    scores = _read(args.scores, read_csv_matrix, "scores")
    labels = _read(args.labels, read_csv_matrix, "labels")
    report = evaluate(scores, labels, k=args.k)
    print(format_report(report))
    print(machine_line(report))


def _cmd_fuse(args) -> None:
    _check_writable(args.out, inputs=args.inputs)
    # each member is read as `fuse` draws it, so none lives beside its stack
    members = (_read(path, read_csv_matrix, "scores") for path in args.inputs)
    fused = fuse(members, sigmoid_first=args.sigmoid_first, count=len(args.inputs))
    write_atomic(args.out, csv_blocks(fused))
    print(f"fused {len(args.inputs)} matrices into {args.out}")


def _cmd_augment(args) -> None:
    size = _input_size(args)
    _config(TrainConfig, seed=args.seed)  # augment draws training's streams
    _check_writable(args.out_dir, inputs=[args.manifest], directory=True)
    manifest, root = _read_manifest(args.manifest, args.out_dir)
    samples = augmented_samples(manifest, args.mode, size, args.seed, root)
    written = write_dataset(args.out_dir, "aug", samples, manifest.num_classes)
    print(f"wrote {len(written)} augmented samples to {Path(args.out_dir)}")


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "fuse": _cmd_fuse,
    "augment": _cmd_augment,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MlcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
