"""Command-line front end.

Verbs: gen, train --stage {ppc|svc|rec}, eval, plot --kind {...}, gradcheck.
Exit status: 0 success, 1 usage error, 2 data/model error.
"""

import argparse
import sys

from . import pipeline
from .config import RunConfig
from .errors import DataError, StructuralError
from .nets import gradient_check_battery


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_common_flags(parser, suppress):
    # Accepted both before and after the subcommand; SUPPRESS keeps a
    # subparser from clobbering a value given before the command name.
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--config", default=default, help="JSON run-configuration file"
    )
    parser.add_argument(
        "--seed", type=int, default=default, help="rebase all stage seeds from N"
    )
    parser.add_argument(
        "--out", default=default, help="output directory (corpus, models, reports)"
    )


def build_parser():
    parser = _Parser(prog="svcnet", description=__doc__)
    _add_common_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate the synthetic corpus and latents")
    p_train = sub.add_parser("train", help="train one pipeline stage")
    p_train.add_argument("--stage", required=True, choices=("ppc", "svc", "rec"))
    p_eval = sub.add_parser(
        "eval", help="ablation, same-vs-different-words, stability reports"
    )
    p_plot = sub.add_parser("plot", help="export plot data as CSV")
    p_plot.add_argument(
        "--kind", required=True, choices=("ppc_scatter", "svc_trajectory", "svc_halves")
    )
    p_plot.add_argument("--sound", help="phone:state for ppc_scatter (default: first)")
    p_grad = sub.add_parser(
        "gradcheck", help="backprop vs central-difference oracle battery"
    )
    for p in (p_gen, p_train, p_eval, p_plot, p_grad):
        _add_common_flags(p, suppress=True)
    return parser


def load_config(args):
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    if args.out is not None:
        config.out_dir = args.out
    if args.seed is not None:
        config.rebase_seeds(args.seed)
    return config


def run(argv, config=None):
    """Parse argv and run its verb on `config`, or on the RunConfig its
    flags name when config is None."""
    args = build_parser().parse_args(argv)
    if args.command == "gradcheck":
        worst = gradient_check_battery(n_networks=100, seed=0)
        ok = worst < 1e-4
        print(f"gradcheck: max relative error {worst:.3e} over 100 networks "
              f"-> {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 2
    if config is None:
        config = load_config(args)
    if args.command == "gen":
        corpus, _ = pipeline.run_gen(config)
        print(
            f"gen: wrote {len(corpus.frames)} frames for {len(corpus.speakers)} "
            f"speakers to {config.resolved_corpus_path}"
        )
        return 0
    if args.command == "train":
        if args.stage == "ppc":
            encoders = pipeline.run_train_ppc(config)
            print(f"train ppc: {len(encoders)} encoders -> {config.resolved_model_dir}")
        elif args.stage == "svc":
            _, metrics = pipeline.run_train_svc(config)
            print(
                f"train svc: {metrics['presentations']} presentations, final loss "
                f"{metrics['epoch_loss'][-1]:.5f}" if metrics["epoch_loss"] else
                "train svc: 0 epochs"
            )
        else:
            _, metrics = pipeline.run_train_rec(config)
            print(
                f"train rec: {metrics['presentations']} presentations in "
                f"{metrics['batches']} batches, final frame loss "
                f"{metrics['epoch_loss'][-1]:.5f}" if metrics["epoch_loss"] else
                "train rec: 0 epochs"
            )
        return 0
    if args.command == "eval":
        summary = pipeline.run_eval(config)
        worst = summary["ablation"][0][1]
        best = summary["ablation"][-1][1]
        t2 = summary["table2"]
        print(f"eval: ablation error {worst:.3f} (none) -> {best:.3f} (all levels)")
        print(
            f"eval: word-subset protocol none={t2['none']:.3f} "
            f"disjoint={t2['disjoint']:.3f} same={t2['same']:.3f}"
        )
        return 0
    if args.command == "plot":
        paths = pipeline.run_plot(config, args.kind, sound=args.sound)
        for p in paths:
            print(f"plot: wrote {p}")
        return 0
    raise _UsageError(f"unknown command {args.command!r}")


ERRORS = (_UsageError, DataError, StructuralError, OSError)


def error_status(e):
    """Print one of the ERRORS as one stderr line; return its exit status."""
    if isinstance(e, _UsageError):
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    print(f"error: {e}", file=sys.stderr)
    return 2


def main(argv=None, config=None):
    """Run one verb (see run) and return its exit status."""
    try:
        return run(sys.argv[1:] if argv is None else argv, config)
    except ERRORS as e:
        return error_status(e)


if __name__ == "__main__":
    sys.exit(main())
