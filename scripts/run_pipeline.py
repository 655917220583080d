#!/usr/bin/env python3
"""Run the whole experiment end to end: corpus, three training stages,
evaluation reports, and all plot-data exports.

    python3 scripts/run_pipeline.py [--config PATH] [--out DIR] [--seed N]

Reads the config once, so that a config that can be read only once (a
pipe) serves every verb, then runs the `svcnet` CLI verbs in order on it,
each with the flags given here, and prints each stage's wall time as it
ends. Stops at the first verb that fails and exits with its status (1
usage error, 2 data/model error).
Ends with the digests of the models and of the reports, as
`scripts/quality.py` prints them; runs of one config into any two
directories, from any two checkouts, print the same digests when their
files are byte-identical.
"""

import os
import sys
import time

from svcnet import cli

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from quality import digest  # noqa: E402

VERBS = (
    ("gen",),
    ("train", "--stage", "ppc"),
    ("train", "--stage", "svc"),
    ("train", "--stage", "rec"),
    ("eval",),
    ("plot", "--kind", "ppc_scatter"),
    ("plot", "--kind", "svc_trajectory"),
    ("plot", "--kind", "svc_halves"),
)


def main(argv=None):
    flags = sys.argv[1:] if argv is None else list(argv)
    try:
        config = cli.load_config(cli.build_parser().parse_args([*VERBS[0], *flags]))
    except cli.ERRORS as e:
        return cli.error_status(e)
    total = 0.0
    for verb in VERBS:
        t0 = time.monotonic()
        status = cli.main([*verb, *flags], config)
        if status != 0:
            return status
        elapsed = time.monotonic() - t0
        total += elapsed
        name = " ".join(v for v in verb if not v.startswith("--"))
        print(f"{name}: done in {elapsed:.1f}s")
    print(f"\npipeline complete in {total:.1f}s")
    print(f"models {digest(config.resolved_model_dir)} "
          f"reports {digest(config.resolved_report_dir)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
