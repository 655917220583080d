#!/usr/bin/env python3
"""svcnet benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 58 --trace 0

Run from the repository root. The program is imported from ./src and driven
only through its public functions (the `pipeline.run_*` stages,
`pipeline.speaker_svc` and the `load_*` helpers). All inputs come from the
seed, through `RunConfig.rebase_seeds`.

A run sets up the corpus three times, then repeats a timed round while
the next one is expected to end within `--seconds`, and at least the
workload's minimum number of rounds, setting up once more after every
round; `setup_s` is the median of all set-ups. Every round is the same
closed loop, one call after another in one process:

    run_train_ppc -> run_train_svc -> enroll -> run_train_rec -> enroll
                  -> run_eval -> enroll

where each `enroll` codes a third of the round's held-out speakers from
all of their frames with `pipeline.speaker_svc`, each enrollment timed on
its own. Spreading the set-ups and enrollments over the run, and
reporting means over all rounds, makes every metric sample the whole run:
the host's speed changes by up to 2x within seconds, and a median of a few
short samples jumps with it. The workloads differ in corpus and epochs,
which sets how that time splits over the program's layers (see WORKLOADS).

After every round the models and reports are checked (present, parsable,
finite, right size, labels from the corpus) and digested; rounds of one
seed must produce byte-identical models and reports. Failed checks and
raised exceptions are counted in `failed`.

With `--trace 0` the result holds the end-to-end metrics, measured with no
tracing. With `--trace 1` the set-up runs once more with the wrappers from
tracing.py installed, and the rounds alternate untraced and traced; the
result holds the per-layer metrics for one set-up plus one traced round,
and the tracing overhead (median traced minus median untraced round).
Spans go to perfbench/_work/trace-<workload>-<seed>.json.

The next-to-last stdout line is a JSON detail record (environment, work
counts, per-round times, host speed, digests, quality); the last line is
the result.
Exits 2 without a result when the program cannot be imported from ./src.
"""

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "perfbench", "_work")


@dataclasses.dataclass(frozen=True)
class Workload:
    overrides: dict     # RunConfig fields changed from the defaults
    enroll_passes: int  # passes over the held-out speakers per round
    min_rounds: int


# Epochs are the defaults (ppc 150, svc 200, rec 50) scaled down to fit a
# run; where a workload scales them together, the stage mix is kept.
WORKLOADS = {
    # The default corpus (20 speakers, 30 sounds, feedback mode) at 1/50 of
    # the default epochs: the run users make, where SVC training dominates.
    # Three rounds at least, so every run re-checks byte-identical reruns;
    # 6 passes over the 6 held-out speakers: >= 108 enrollments per run.
    "pipeline": Workload({"ppc_epochs": 3, "svc_epochs": 4, "rec_epochs": 1},
                         enroll_passes=6, min_rounds=3),
    # 120 speakers, of which 14 train at 2/25 of the default epochs and 106
    # are never seen in training; zero_fill mode. One frame per state keeps
    # each speaker's speech short, so that a round, which evaluates all 106
    # speakers, fits several times in a run. Enrollment and evaluation of
    # the unseen speakers carry the round: forward passes only, and corpus
    # scans that grow with the speaker count. One pass: 106 enrollments.
    "adapt": Workload({"n_speakers": 120, "train_fraction": 14 / 120,
                       "frames_per_state": 1, "accumulation_mode": "zero_fill",
                       "ppc_epochs": 12, "svc_epochs": 16, "rec_epochs": 4},
                      enroll_passes=1, min_rounds=3),
}

FIRST_SETUPS = 3
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("svc_s", "s"), ("eval_s", "s"),
    ("enroll_ms_mean", "ms"), ("train_presentations_per_s", "1/s"),
    ("utterances_per_s", "1/s"), ("peak_rss_mb", "MB"),
)
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RoundFailed(Exception):
    pass


class Ops:
    """Counts attempted and failed operations: stage calls, enrollments
    and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, what, fn, *args, abort=True):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:  # every failure is counted and reported
            self.failed += 1
            self.errors.append(f"{what}: {type(e).__name__}: {e}")
            if abort:
                raise RoundFailed(what) from e
            return None


def import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import svcnet
    except ImportError as e:
        print(f"perfbench: cannot import svcnet from {ROOT}/src: {e}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(svcnet.__file__).startswith(os.path.join(ROOT, "src", "")):
        print(f"perfbench: svcnet imported from {svcnet.__file__}, not ./src",
              file=sys.stderr)
        sys.exit(2)


def make_config(name, seed):
    from svcnet.config import RunConfig

    config = RunConfig(out_dir=os.path.join(WORK, f"{name}-{seed}"),
                       **WORKLOADS[name].overrides)
    config.rebase_seeds(seed)
    return config


def setup(config):
    """Corpus generation and save, then the first load and split."""
    from svcnet import pipeline

    pipeline.run_gen(config)
    return pipeline.load_split(config)


def load_enrollment(config, ops):
    """The held-out speakers and the trained models enrollment reads."""
    from svcnet import pipeline

    _, _, held_out = ops.call("enroll load_split", pipeline.load_split, config)
    encoders = ops.call("enroll load_encoders", pipeline.load_encoders, config)
    svcnet = ops.call("enroll load_svcnet", pipeline.load_svcnet_artifact, config)
    return held_out, encoders, svcnet


def enroll(config, models, speakers, ops, codes, seconds):
    """Code each of `speakers` from all of their frames, timing each
    enrollment on its own; fills {speaker: code} and the seconds list."""
    from svcnet import pipeline
    from checks import check_code

    held_out, encoders, svcnet = models

    def enroll_one(speaker):
        start = perf_counter()
        code = pipeline.speaker_svc(
            config, svcnet, encoders, held_out.frames_of_speaker(speaker))
        seconds.append(perf_counter() - start)
        check_code(speaker, code, config.svc_dim)
        codes[speaker] = code

    for speaker in speakers:
        ops.call(f"enroll {speaker}", enroll_one, speaker, abort=False)


def play_round(config, workload, ops):
    """One timed round; returns its timings and the stages' results."""
    from svcnet import pipeline

    times = {"enroll": 0.0}
    codes, enroll_seconds = {}, []
    models = speakers = None

    def stage(name, fn):
        start = perf_counter()
        result = ops.call(f"stage {name}", fn, config)
        times[name] = perf_counter() - start
        return result

    def enroll_third(k):
        start = perf_counter()
        n = len(speakers)
        enroll(config, models, speakers[k * n // 3:(k + 1) * n // 3], ops, codes,
               enroll_seconds)
        times["enroll"] += perf_counter() - start

    start = perf_counter()
    encoders = stage("ppc", pipeline.run_train_ppc)
    _, svc_metrics = stage("svc", pipeline.run_train_svc)
    models = load_enrollment(config, ops)
    speakers = list(models[0].speakers) * workload.enroll_passes
    enroll_third(0)
    _, rec_metrics = stage("rec", pipeline.run_train_rec)
    enroll_third(1)
    summary = stage("eval", pipeline.run_eval)
    enroll_third(2)
    times["wall"] = perf_counter() - start
    return {"times": times, "sounds": list(encoders), "svc": svc_metrics,
            "rec": rec_metrics, "codes": codes, "enroll_seconds": enroll_seconds,
            "summary": summary}


def work_counts(config, workload, train, test, result):
    """Deterministic work of one round, from the stages' returned metrics
    and the corpus."""
    sound_counts = train.sound_counts()
    return {
        "ppc_presentations": config.ppc_epochs * sum(sound_counts[s] for s in result["sounds"]),
        "svc_presentations": result["svc"]["presentations"],
        "rec_presentations": result["rec"]["presentations"],
        "enrollments": len(result["enroll_seconds"]),
        "enrolled_frames": workload.enroll_passes * len(test.frames),
        "utterances_recognized": 8 * len(test.by_utterance())
                                 + 3 * result["summary"]["n_table2_utterances"],
        "sounds": len(result["sounds"]),
    }


def check_round(config, train, test, result, ops):
    """Output checks after a round; returns the artifact digest."""
    import checks

    n_test_speakers = len(test.speakers)
    expected_rows = {
        "metrics_ppc.csv": config.ppc_epochs,
        "metrics_svc.csv": config.svc_epochs,
        "metrics_rec.csv": config.rec_epochs,
        "ablation.csv": 8,
        "table2.csv": 3,
        "stability.csv": n_test_speakers * (len(test.words) - 1),
    }
    ops.call("check models", checks.check_models, config,
             result["counts"]["sounds"], abort=False)
    ops.call("check reports", checks.check_reports, config, expected_rows, abort=False)
    ops.call("check predictions", checks.check_predictions, config, test.words,
             8 * len(test.by_utterance()), abort=False)
    missing = sorted(set(test.speakers) - set(result["codes"]))
    ops.call("check enrolled speakers", checks.require, not missing,
             f"speakers without a code: {missing}", abort=False)
    return ops.call("digest", checks.artifact_digest, config, abort=False)


def latent_r2(config, train, test_codes):
    """Criterion 6: affine map fitted on the training speakers' codes,
    R^2 on the held-out speakers' codes against the true latents."""
    from svcnet import pipeline
    from svcnet.corpus import load_latents

    latents = load_latents(config.resolved_latents_path)
    encoders = pipeline.load_encoders(config)
    svcnet = pipeline.load_svcnet_artifact(config)
    train_codes = pipeline.all_speaker_svcs(config, svcnet, encoders, train)

    def design(codes):
        x = np.array(list(codes.values()))
        return np.hstack([x, np.ones((len(x), 1))])

    y_train = np.array([latents[s] for s in train_codes])
    coef, *_ = np.linalg.lstsq(design(train_codes), y_train, rcond=None)
    y_test = np.array([latents[s] for s in test_codes])
    pred = design(test_codes) @ coef
    ss_res = float(np.sum((pred - y_test) ** 2))
    ss_tot = float(np.sum((y_test - y_test.mean(axis=0)) ** 2))
    return 1.0 - ss_res / ss_tot


def end_to_end_metrics(setup_seconds, rounds):
    """Stage times are means over all rounds of the run: on a host whose
    speed changes within seconds, the mean moves in proportion to the time
    spent at each speed, where a median of a few samples jumps between them.
    Rates are total work over total time."""
    enroll_seconds = [s for r in rounds for s in r["enroll_seconds"]]

    def total(key, source="times"):
        return sum(r[source][key] for r in rounds)

    training = ("ppc", "svc", "rec")
    values = {
        "setup_s": statistics.median(setup_seconds),
        "wall_s": total("wall") / len(rounds),
        "svc_s": total("svc") / len(rounds),
        "eval_s": total("eval") / len(rounds),
        "enroll_ms_mean": 1e3 * float(np.mean(enroll_seconds)),
        "train_presentations_per_s":
            sum(total(f"{s}_presentations", "counts") for s in training)
            / sum(total(s) for s in training),
        "utterances_per_s": total("utterances_recognized", "counts") / total("eval"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values


def git_commit():
    """Commit of the checkout, read from .git when there is one."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import scipy

    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_features": cfg["SIMD Extensions"].get("found"),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def checks_identical(digests):
    from checks import require

    require(len(set(digests)) <= 1, f"reruns of one seed differ: {digests}")


TRACE_SPECS = [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
               ("trace.overhead_s", "s"), ("trace.overhead_pct", "%")]


def host_speed_us():
    """Microseconds per step of a fixed loop shaped like the program's
    steps, timed after each round. The program does not run it; it shows
    how fast the host was while the round ran, which on a shared machine
    changes by up to 2x within a minute."""
    w, x = np.full((60, 60), 0.01), np.full(60, 0.5)
    steps = 2000
    start = perf_counter()
    for _ in range(steps):
        x = 1.0 / (1.0 + np.exp(-(w @ x)))
    return 1e6 * (perf_counter() - start) / steps


@contextmanager
def traced(tracer, run_id):
    if tracer is None:
        yield
        return
    tracer.run_id = run_id
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def run(name, seed, seconds, trace):
    import tracing

    workload = WORKLOADS[name]
    config = make_config(name, seed)
    shutil.rmtree(config.out_dir, ignore_errors=True)
    ops = Ops()
    rounds, digests, setup_seconds, host_us = [], [], [], []
    tracer = after_setup = train = test = None

    def timed_setup():
        nonlocal train, test
        start = perf_counter()
        _, train, test = ops.call("setup", setup, config)
        setup_seconds.append(perf_counter() - start)

    def one_round(round_tracer):
        with traced(round_tracer, f"{name}-{seed}-round{len(rounds)}"):
            result = play_round(config, workload, ops)
        result["traced"] = round_tracer is not None
        result["counts"] = work_counts(config, workload, train, test, result)
        rounds.append(result)
        digests.append(check_round(config, train, test, result, ops))
        host_us.append(host_speed_us())

    try:
        for _ in range(FIRST_SETUPS):
            timed_setup()
        if trace:
            tracer = tracing.Tracer()
            with traced(tracer, f"{name}-{seed}-setup"):
                ops.call("traced setup", setup, config)
            after_setup = tracer.snapshot()
        start = perf_counter()
        # stop before a round that would end after `seconds`; a traced run
        # alternates untraced and traced rounds, so both see the same host
        while (len(rounds) < workload.min_rounds or perf_counter() - start
               + rounds[-1]["times"]["wall"] <= seconds):
            one_round(tracer if trace and len(rounds) % 2 else None)
            timed_setup()
    except RoundFailed:
        pass

    ops.call("check identical reruns", checks_identical, digests, abort=False)
    quality = {}
    if rounds:
        last = rounds[-1]
        quality["word_error"] = last["summary"]["ablation"][-1][1]
        quality["latent_r2"] = ops.call("latent r2", latent_r2, config, train,
                                        last["codes"], abort=False)

    if trace:
        metrics = {}
        walls = {flag: [r["times"]["wall"] for r in rounds if r["traced"] == flag]
                 for flag in (False, True)}
        if walls[False] and walls[True]:
            metrics = tracer.metrics(after_setup, len(walls[True]))
            traced_wall = statistics.median(walls[True])
            untraced_wall = statistics.median(walls[False])
            metrics.update({
                "trace.wall_s": traced_wall,
                "trace.untraced_wall_s": untraced_wall,
                "trace.overhead_s": traced_wall - untraced_wall,
                "trace.overhead_pct": 100.0 * (traced_wall - untraced_wall) / untraced_wall,
            })
            os.makedirs(WORK, exist_ok=True)
            with open(os.path.join(WORK, f"trace-{name}-{seed}.json"), "w") as f:
                json.dump({"workload": name, "seed": seed, "spans": tracer.spans}, f)
        specs = tracing.metric_specs() + TRACE_SPECS
    else:
        metrics = end_to_end_metrics(setup_seconds, rounds) if rounds else {}
        specs = END_TO_END

    enroll_seconds = [s for r in rounds for s in r["enroll_seconds"]]
    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "config": dataclasses.asdict(config),
        "environment": environment(),
        "rounds": len(rounds),
        "round_times_s": [r["times"] for r in rounds],
        "setup_times_s": setup_seconds,
        "host_speed_us": host_us,
        "counts": rounds[0]["counts"] if rounds else {},
        "enroll_samples": len(enroll_seconds),
        "enroll_ms_percentiles": {
            f"p{q}": 1e3 * float(np.percentile(enroll_seconds, q)) for q in (50, 90)
        } if enroll_seconds else {},
        "digests": digests,
        "quality": quality,
        "errors": ops.errors,
    }
    shutil.rmtree(config.out_dir, ignore_errors=True)
    # a metric a failed run could not measure reads 0; the run is not correct
    result = {
        "correct": ops.failed == 0 and bool(rounds),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {n: {"value": float(metrics.get(n, 0.0)), "unit": u} for n, u in specs},
    }
    print(json.dumps(detail))
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    import_program()
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
