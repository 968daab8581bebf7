"""Command-line front end: generate, train, sweep, check-bounds.

Exit codes: 0 on success, 2 for configuration or usage problems and for
paths that cannot be read or written, 3 for numeric failures (solver
breakdown, guarantee prerequisites or the verified inequality failing).
"""

from __future__ import annotations

import argparse
import sys

from .data import SynthSpec, gen_synthetic, save_csv
from .exceptions import HypothesisViolation, NumericsError, OvkError
from .experiments import (
    STABLE_STEP,
    SWEEPABLE,
    bound_check,
    read_config,
    run_experiment,
    summary_text,
    sweep,
    sweep_table_text,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _add_config_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ovklearn",
        description="Online learning of vector-valued functions with "
        "operator-valued kernels.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="write a synthetic dataset CSV")
    gen.add_argument("--n", type=int, default=500, help="number of instances")
    gen.add_argument("--outputs", type=int, default=4, help="output dimension d")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="destination CSV path")

    train = subs.add_parser("train", help="run one training experiment")
    _add_config_args(train)

    sw = subs.add_parser("sweep", help="repeat an experiment over a parameter grid")
    _add_config_args(sw)
    sw.add_argument("--param", required=True, choices=SWEEPABLE, dest="parameter")
    sw.add_argument(
        "--values", required=True, help="comma-separated list, e.g. 0.001,0.01,0.1"
    )
    sw.add_argument("--out", help="write the sweep table CSV here")

    chk = subs.add_parser(
        "check-bounds", help="verify the cumulative-error guarantee on a config"
    )
    _add_config_args(chk)
    return parser


def _cmd_generate(args) -> int:
    dataset = gen_synthetic(SynthSpec(args.n, args.outputs, args.seed))
    save_csv(args.out, dataset)
    print(f"wrote {len(dataset)} rows ({dataset.input_dim} inputs, "
          f"{dataset.output_dim} outputs) to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = read_config(args.config, args.set)
    _, summary = run_experiment(cfg)
    sys.stdout.write(summary_text(summary))
    step = summary.get("max_eff_step", 0.0)
    if step > STABLE_STEP:
        print(
            f"warning: max_eff_step = {step:.3g} exceeds {STABLE_STEP:g}, above which "
            "squared-loss steps overshoot and the run diverges; lower eta0",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = read_config(args.config, args.set)
    values = [v for v in args.values.split(",") if v.strip()]
    rows = sweep(cfg, args.parameter, values)
    table = sweep_table_text(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table)
    sys.stdout.write(table)
    return EXIT_OK


def _cmd_check_bounds(args) -> int:
    cfg = read_config(args.config, args.set)
    hyp, consts, report = bound_check(cfg)
    print(hyp.to_text())
    if not hyp.passes:
        print("result = hypotheses failed; no guarantee to check")
        return EXIT_NUMERIC
    if report is None:
        print("result = no batch reference for this loss; diagnostics only")
        return EXIT_OK
    print(report.to_text())
    if not report.holds:
        print("result = bound violated")
        return EXIT_NUMERIC
    print("result = bound holds")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "train": _cmd_train,
        "sweep": _cmd_sweep,
        "check-bounds": _cmd_check_bounds,
    }
    try:
        return handlers[args.command](args)
    except (NumericsError, HypothesisViolation) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OvkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
