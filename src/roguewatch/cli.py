"""Command line interface: gen-dataset, run, train-monitor, summarize."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .errors import RoguewatchError
from .harness import (
    ExperimentConfig,
    SplitManifest,
    gen_dataset,
    run_experiment,
    summarize,
    train_monitor_from_logs,
)


def _cmd_gen_dataset(args: argparse.Namespace) -> int:
    manifest = gen_dataset(
        env=args.env,
        sizes=(args.train, args.validation, args.test),
        seed=args.seed,
        variant=args.variant,
        n_suspects=args.suspects,
        turn_limit=args.turn_limit,
    )
    Path(args.out).write_text(json.dumps(manifest.to_json_obj(), indent=2))
    sizes = {name: len(manifest.split(name)) for name in ("train", "validation", "test")}
    print(f"wrote {args.out}: {sizes}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json_obj(json.loads(Path(args.config).read_text()))
    if args.seed is not None:
        config.base_seed = args.seed
    if args.parallelism is not None:
        config.parallelism = args.parallelism
    manifest = SplitManifest.from_json_obj(json.loads(Path(args.manifest).read_text()))
    report = run_experiment(config, manifest, split=args.split, output_dir=Path(args.out))
    print(json.dumps({"mean": report["mean"], "stderr": report["stderr"]}, indent=2))
    print(f"trajectories and report written under {args.out}")
    return 0


def _cmd_train_monitor(args: argparse.Namespace) -> int:
    model = train_monitor_from_logs(
        Path(args.train),
        Path(args.validation),
        role=args.role,
        alpha=args.alpha,
        export_ablation=Path(args.export_ablation) if args.export_ablation else None,
    )
    Path(args.out).write_text(model.to_json())
    print(
        f"selected monitor for {args.role}: features={list(model.feature_mask)} "
        f"degree={model.degree} tau={model.tau:.2f} gain={model.validation_gain:.1f}"
    )
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    reports = [json.loads(Path(path).read_text()) for path in args.reports]
    text, csv_text = summarize(reports)
    print(text)
    if args.csv:
        Path(args.csv).write_text(csv_text + "\n")
        print(f"csv written to {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roguewatch",
        description="Multi-agent collaboration games with uncertainty monitors "
        "and rollback interventions.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-dataset", help="generate a train/validation/test manifest")
    gen.add_argument("--env", choices=["whodunit", "commons"], default="whodunit")
    gen.add_argument("--variant", choices=["asymmetric", "symmetric"], default="asymmetric")
    gen.add_argument("--suspects", type=int, default=10)
    gen.add_argument("--turn-limit", type=int, default=31)
    gen.add_argument("--train", type=int, help="default: 210 games, or 13 commons R0 values")
    gen.add_argument("--validation", type=int, help="default: 90 games, or 7 commons R0 values")
    gen.add_argument("--test", type=int, help="default: 180 games; refused for commons")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen_dataset)

    run = sub.add_parser("run", help="run an experiment over a manifest split")
    run.add_argument("--config", required=True, help="ExperimentConfig JSON path")
    run.add_argument("--manifest", required=True)
    run.add_argument("--split", choices=["train", "validation", "test"], default="test")
    run.add_argument("--seed", type=int, default=None, help="override base seed")
    run.add_argument(
        "--parallelism", type=int, default=None,
        help="worker threads, used only when a role has an llm backend",
    )
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=_cmd_run)

    train = sub.add_parser("train-monitor", help="grid-search a monitor from logs")
    train.add_argument("--train", required=True, help="training trajectories.jsonl")
    train.add_argument("--validation", required=True, help="validation trajectories.jsonl")
    train.add_argument("--role", required=True)
    train.add_argument("--alpha", type=float, default=1.0)
    train.add_argument("--export-ablation", default=None,
                       help="also write second-best and worst monitors here")
    train.add_argument("--out", required=True)
    train.set_defaults(func=_cmd_train_monitor)

    summ = sub.add_parser("summarize", help="aggregate reports into a table")
    summ.add_argument("reports", nargs="+")
    summ.add_argument("--csv", default=None)
    summ.set_defaults(func=_cmd_summarize)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(asctime)s [%(levelname)s] %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, OSError, RoguewatchError) as exc:
        print(f"roguewatch: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
