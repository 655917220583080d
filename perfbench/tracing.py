"""Per-layer tracing for the benchmark: wraps the program's public functions
from outside, so no file of the program changes.

Each traced function is wrapped once, and the one wrapper replaces the
original at every place it is looked up: its own module, every module that
bound it with `from ... import`, or its class for methods. A call is
therefore counted exactly once whichever binding it came through.

Per-step functions (hundreds of thousands of calls per run) only feed
counters: calls, busy time and self time. Stage roots and loaders also keep
a full span (name, start, end, parent span, run id) in memory; spans are
written out when the run ends. Self time is busy time minus the time spent
in wrapped children.
"""

import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Target:
    module: str     # short module name under svcnet
    qualname: str   # "func" or "Class.method"
    span: bool      # keep a full span per call (stage roots and loaders)
    per_step: bool  # also report microseconds per call

    @property
    def name(self):
        return f"{self.module}.{self.qualname}"


def _targets(module, names, span=False, per_step=False):
    return [Target(module, n, span, per_step) for n in names]


TARGETS = (
    _targets("pipeline", ("run_gen", "run_train_ppc", "run_train_svc",
                          "run_train_rec", "run_eval", "load_split",
                          "load_encoders", "load_svcnet_artifact",
                          "load_recognizer_artifact"), span=True)
    + _targets("corpus", ("generate_corpus", "save_corpus", "load_corpus",
                          "split_corpus"), span=True)
    + _targets("corpus", ("Corpus.frames_of_speaker", "Corpus.by_utterance"))
    + _targets("ppc", ("train_ppc_encoder",))
    + _targets("ppc", ("encode_frame",), per_step=True)
    + _targets("svc", ("train_svcnet", "extract_svc"))
    + _targets("svc", ("Accumulator.observe",), per_step=True)
    + _targets("nets", ("forward", "grads_from_activations", "sgd_step"),
               per_step=True)
    + _targets("nets", ("save_model", "load_model"), span=True)
    + _targets("recognizer", ("train_recognizer", "recognize"))
    + _targets("recognizer", ("frame_gradients", "forward_frame"), per_step=True)
    + _targets("fileio", ("atomic_write_text",))
)

HIT_RATIO = "corpus.Corpus.frames_of_speaker.hit_ratio"
BYTES_WRITTEN = "fileio.atomic_write_text.bytes"


def metric_specs():
    """(name, unit) of every per-layer metric, in report order."""
    specs = []
    for t in TARGETS:
        specs += [(f"{t.name}.calls", "count"), (f"{t.name}.busy_s", "s"),
                  (f"{t.name}.self_s", "s")]
        if t.per_step:
            specs.append((f"{t.name}.us_per_call", "us"))
    specs += [(HIT_RATIO, "ratio"), (BYTES_WRITTEN, "bytes")]
    return specs


class Tracer:
    """Counters and spans for one traced run. Not thread-safe: the program
    is single-threaded."""

    def __init__(self):
        self.stats = {t.name: [0, 0.0, 0.0] for t in TARGETS}  # calls, busy, self
        self.extra = {"frames_returned": 0, "frames_scanned": 0, "bytes": 0}
        self.spans = []
        self.run_id = None
        # seconds spent in wrapped children, per nesting depth; floats in a
        # preallocated list, so a wrapped call allocates no GC-tracked object
        self._child = [0.0] * 256
        self._depth = 0
        self._open_spans = []  # ids of active spans
        self._restore = []     # (owner, attribute, original)

    def _wrap(self, target, fn):
        stats = self.stats[target.name]
        child = self._child
        hook = _HOOKS.get(target.name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if target.span:
                span_id = len(self.spans)
                parent = self._open_spans[-1] if self._open_spans else None
                self.spans.append({"id": span_id, "name": target.name,
                                   "parent": parent, "run": self.run_id})
                self._open_spans.append(span_id)
            depth = self._depth
            child[depth] = 0.0
            self._depth = depth + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._depth = depth
                busy = end - start
                if depth:
                    child[depth - 1] += busy
                stats[0] += 1
                stats[1] += busy
                stats[2] += busy - child[depth]
                if target.span:
                    self._open_spans.pop()
                    self.spans[span_id].update(start=start, end=end)
            if hook:
                hook(self.extra, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target at every binding in the loaded svcnet modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "svcnet" or n.startswith("svcnet."))]
        for target in TARGETS:
            owner = importlib.import_module(f"svcnet.{target.module}")
            cls_name, _, attr = target.qualname.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                bindings = [owner]
            else:
                original = getattr(owner, attr)
                bindings = [m for m in modules if getattr(m, attr, None) is original]
            wrapper = self._wrap(target, original)
            for binding in bindings:
                setattr(binding, attr, wrapper)
                self._restore.append((binding, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def snapshot(self):
        return ({k: list(v) for k, v in self.stats.items()}, dict(self.extra))

    def metrics(self, after_setup, n_rounds):
        """Per-layer values for one set-up plus one timed round.

        `after_setup` is the snapshot taken between the traced set-up and
        the first traced round; round work is averaged over `n_rounds`.
        """
        stats_setup, extra_setup = after_setup

        def per_round(now, at_setup):
            return at_setup + (now - at_setup) / n_rounds

        out = {}
        for t in TARGETS:
            calls, busy, self_s = (
                per_round(now, at) for now, at in zip(self.stats[t.name], stats_setup[t.name])
            )
            out[f"{t.name}.calls"] = calls
            out[f"{t.name}.busy_s"] = busy
            out[f"{t.name}.self_s"] = self_s
            if t.per_step:
                out[f"{t.name}.us_per_call"] = 1e6 * busy / calls if calls else 0.0
        extra = {k: per_round(v, extra_setup[k]) for k, v in self.extra.items()}
        scanned = extra["frames_scanned"]
        out[HIT_RATIO] = extra["frames_returned"] / scanned if scanned else 0.0
        out[BYTES_WRITTEN] = extra["bytes"]
        return out


def _count_frames(extra, args, result):
    extra["frames_returned"] += len(result)
    extra["frames_scanned"] += len(args[0].frames)


def _count_bytes(extra, args, result):
    extra["bytes"] += len(args[1].encode())


_HOOKS = {
    "corpus.Corpus.frames_of_speaker": _count_frames,
    "fileio.atomic_write_text": _count_bytes,
}
