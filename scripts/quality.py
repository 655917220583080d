#!/usr/bin/env python3
"""Multi-seed quality report: acceptance criteria 4-8 over many seeds.

    python3 scripts/quality.py [SEED ...]      # default: seeds 1 to 10

For each seed, runs the default pipeline with every stage seed rebased
from it (`RunConfig.rebase_seeds`, as `--seed` does) in a temporary
directory, then prints one row: criteria 4-8 computed as the acceptance
suite computes them (`svcnet.quality`), with `*` marking a value that
misses its threshold, and the code-swap error (each test speaker
recognized with another test speaker's code, every level on; when it
equals the own-code error, criterion 7's value, the recognizer does not
use the code), and the first 12 hex digits of three SHA-256 digests:
one over the encoders and `svcnet.txt`, one over `recognizer.txt`, and
one over the report files, whole: no report line names the directory
it was written to, so any two runs compare. The model digest is split
so that a change to the recognizer alone shows as a change in its
column only. A last row counts the seeds that passed each criterion.
The output ends with one JSON line that holds the same cells, keyed by
seed and column, and the pass counts, for pasting into a benchmark
record. A full run takes several minutes.
"""

import hashlib
import json
import os
import sys
import tempfile

from svcnet import pipeline, quality
from svcnet.config import RunConfig
from svcnet.corpus import load_latents

COLUMNS = ("seed", "c4 stable", "c5 indep", "c6 R^2", "c7 own/avg", "c8 none/disj/same",
           "swap", "enc+svc", "rec", "reports")
# the cells after "seed", as the JSON line names them
KEYS = ("c4", "c5", "c6", "c7", "c8", "swap", "enc_svc", "rec", "reports")
WIDTHS = (4, 10, 9, 7, 12, 18, 6, 12, 12, 12)
RECOGNIZER = "recognizer.txt"


def row(cells):
    return "  ".join(str(c).rjust(w) for c, w in zip(cells, WIDTHS))


def digest(directory, keep=lambda name: True):
    """SHA-256 over the names and bytes of the files of a directory that
    `keep(name)` admits; the first 12 hex digits."""
    h = hashlib.sha256()
    for name in filter(keep, sorted(os.listdir(directory))):
        h.update(f"{name}\n".encode())
        with open(os.path.join(directory, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def measure(seed, out_dir):
    """Run the default pipeline for one seed; criterion 4-8 results, the
    code-swap error and the digests of the encoders with the SVC net, of
    the recognizer and of the reports."""
    config = RunConfig(out_dir=out_dir)
    config.rebase_seeds(seed)
    pipeline.run_gen(config)
    encoders = pipeline.run_train_ppc(config)
    svcnet, _ = pipeline.run_train_svc(config)
    net, _ = pipeline.run_train_rec(config)
    summary = pipeline.run_eval(config)
    _, train, test = pipeline.load_split(config)
    held = pipeline.code_held_out(config, svcnet, encoders, train, test)
    results = (
        quality.code_stability(held),
        quality.utterance_independence(held),
        quality.latent_recovery(held, load_latents(config.resolved_latents_path)),
        quality.injection_helps(summary),
        quality.word_subset_protocol(summary),
    )
    swap = quality.code_swap_error(held, net, test)
    models = config.resolved_model_dir
    digests = (digest(models, keep=lambda name: name != RECOGNIZER),
               digest(models, keep=lambda name: name == RECOGNIZER),
               digest(config.resolved_report_dir))
    return results, summary, swap, digests


def main(argv=None):
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        seeds = [int(a) for a in args] or list(range(1, 11))
    except ValueError:
        print(f"usage: {sys.argv[0]} [SEED ...]", file=sys.stderr)
        return 1
    print(row(COLUMNS), flush=True)
    passed = [0] * 5
    rows = {}
    for seed in seeds:
        with tempfile.TemporaryDirectory(prefix="svcnet-quality-") as out_dir:
            results, summary, swap, digests = measure(seed, out_dir)
        c4, c5, c6 = results[:3]
        ablation, t2 = summary["ablation"], summary["table2"]
        cells = [
            c4.detail.split()[0],  # good/total; the rest are per-speaker ratios
            c5.detail,
            f"{c6.value:.3f}",
            f"{ablation[-1][1]:.3f}/{ablation[0][1]:.3f}",
            f"{t2['none']:.3f}/{t2['disjoint']:.3f}/{t2['same']:.3f}",
        ]
        cells = [c + ("" if r.ok else "*") for c, r in zip(cells, results)]
        cells += [f"{swap:.3f}", *digests]
        print(row([seed, *cells]), flush=True)
        rows[seed] = dict(zip(KEYS, cells))
        passed = [p + r.ok for p, r in zip(passed, results)]
    counts = [f"{p}/{len(seeds)}" for p in passed]
    print(row(["pass", *counts]))
    print(json.dumps({"rows": rows, "pass": dict(zip(KEYS, counts))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
