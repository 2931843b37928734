"""Command-line entry point.

Subcommands: `gen` writes synthetic scene files, `train` optimizes a model
from a text config, `eval` scores a checkpoint on one of the three tasks,
`gradcheck` verifies gradients against finite differences.

Evaluation reports are text tables: a `# task=...` header line (plus the
cluster-to-class `# assignment` line for the semantic task), one
tab-separated row per image (per class for semantic), and a final `mean`
row.

Exit codes: 0 success, 1 usage, 2 data/format/config problem, 3 numeric
failure (divergence or a gradient check above tolerance).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from pathlib import Path

from .data import SceneConfig, check_feature_width, generate_scene, load_dataset, write_bytes_atomic, write_feature_file
from .errors import (
    ConfigError,
    DataFormatError,
    DegenerateInputError,
    ShapeError,
    TrainingDivergenceError,
    UndefinedMetricError,
)
from .gradcheck import full_model_errors, grouped_errors
from .infer import evaluate_discovery, evaluate_foreground, semantic_segment
from .train import load_checkpoint, parse_config_text, train

_DATA_ERRORS = (
    ConfigError,
    DataFormatError,
    DegenerateInputError,
    ShapeError,
    UndefinedMetricError,
    OSError,
)


class _Parser(argparse.ArgumentParser):
    # bad flags are usage problems: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _grid(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected HxW, got {text!r}") from None


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
        if 0.0 < tol < math.inf:  # also refuses nan
            return tol
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")


def _at_least(low: int):
    """An argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")

    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="slotwalks", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate synthetic scene files")
    gen.add_argument("--out", required=True, help="output directory for NNNN.ocwf files")
    gen.add_argument("--scenes", type=_at_least(1), default=200)
    gen.add_argument("--grid", type=_grid, default=(8, 8), help="grid as HxW (default 8x8)")
    gen.add_argument("--classes", type=int, default=3)
    gen.add_argument("--dim", type=int, default=32)
    gen.add_argument("--noise", type=float, default=0.1)
    gen.add_argument("--seed", type=_at_least(0), default=0)
    gen.add_argument("--layout", choices=["random-rectangles", "voronoi-cells"],
                     default="random-rectangles")
    gen.add_argument("--separation", type=float, default=60.0,
                     help="minimum angle between class mean directions, degrees")
    gen.add_argument("--mean-seed", type=_at_least(0), default=0,
                     help="seed of the shared class mean directions; datasets with the"
                          " same value share class geometry")

    tr = sub.add_parser("train", help="train from a key = value config")
    tr.add_argument("--data", required=True, help="directory of .ocwf scenes")
    tr.add_argument("--config", required=True, help="config file path")
    tr.add_argument("--out", required=True, help="output directory (trace + checkpoints)")
    tr.add_argument("--resume", default=None, help="checkpoint to continue from")

    ev = sub.add_parser("eval", help="evaluate a checkpoint")
    ev.add_argument("--data", required=True)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--task", required=True, choices=["fg", "discovery", "semantic"])
    ev.add_argument("--classes", type=int, default=None, help="class count for the semantic task")
    ev.add_argument("--report", default=None, help="write the report here instead of stdout")

    gc = sub.add_parser("gradcheck", help="compare gradients against finite differences")
    gc.add_argument("--n", type=_at_least(1), default=12)
    gc.add_argument("--k", type=_at_least(1), default=3)
    gc.add_argument("--d", type=_at_least(1), default=8)
    gc.add_argument("--seed", type=_at_least(0), default=0)
    gc.add_argument("--tol", type=_tolerance, default=1e-3)
    return parser


def _cmd_gen(args) -> int:
    h, w = args.grid
    cfg = SceneConfig(
        height=h,
        width=w,
        classes=args.classes,
        feature_dim=args.dim,
        noise_std=args.noise,
        layout=args.layout,
        mean_separation_deg=args.separation,
        mean_seed=args.mean_seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.scenes):
        scene = generate_scene(cfg, seed=(args.seed, i))
        path = out / f"{i:04d}.ocwf"
        write_feature_file(path, scene)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{path.name}\t{scene.n}x{scene.dim}\tsha256:{digest}")
    return 0


def _cmd_train(args) -> int:
    cfg_path = Path(args.config)
    try:
        text = cfg_path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise DataFormatError(f"{cfg_path}: not UTF-8 text") from None
    cfg = parse_config_text(text, source=str(cfg_path))
    scenes = load_dataset(args.data)
    result = train(scenes, cfg, out_dir=args.out, resume=args.resume)
    if result.records:
        print(f"trained {len(result.records)} steps to step {result.steps_run},"
              f" final loss {result.records[-1]['loss']:.6f}")
    else:
        print(f"trained 0 steps: already at step {result.steps_run}")
    print(f"checkpoint: {Path(args.out) / 'checkpoint.ocwc'}")
    return 0


def _cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    scenes = load_dataset(args.data)
    check_feature_width(scenes, ckpt.config.input_dim, f"eval of {args.checkpoint} on {args.data}")
    walk = ckpt.config.walk()
    iterations = ckpt.config.iterations
    if args.task == "fg":
        report = evaluate_foreground(scenes, ckpt.params, ckpt.proj, walk, iterations)
    elif args.task == "discovery":
        report = evaluate_discovery(scenes, ckpt.params, ckpt.proj, walk, iterations)
    else:
        if args.classes is None:
            raise ConfigError("eval: --classes is required for the semantic task")
        report = semantic_segment(
            scenes, ckpt.params, ckpt.proj, walk, iterations, num_classes=args.classes
        )
    text = report.to_text()
    if args.report:
        write_bytes_atomic(args.report, text.encode())
        print(f"report written to {args.report}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gradcheck(args) -> int:
    errors = full_model_errors(args.n, args.k, args.d, seed=args.seed)
    worst = 0.0
    for group, err in grouped_errors(errors).items():
        worst = max(worst, err)
        print(f"{group}\t{err:.3e}")
    if worst > args.tol:
        print(f"FAIL: max relative error {worst:.3e} exceeds tolerance {args.tol:.3e}")
        return 3
    print(f"OK: max relative error {worst:.3e} within tolerance {args.tol:.3e}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "gradcheck": _cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
