"""Declarative run configuration: one JSON file, flag overrides win."""

import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass

from .errors import DataError
from .fileio import read_text
from .recognizer import SVC_HIDDEN_WIDTH
from .svc import FEEDBACK, MODES


# (keys, lowest value, whether the lowest value itself is allowed)
RANGES = (
    (("n_speakers", "n_words", "phones_per_word", "states_per_phone", "frames_per_state",
      "feature_dim", "latent_dim", "ppc_dim", "svc_dim", "rec_acoustic_units",
      "rec_state_units"), 1, True),
    (("corpus_seed", "split_seed", "ppc_seed", "svc_seed", "rec_seed", "svc_flank",
      "rec_window", "ppc_epochs", "svc_epochs", "rec_epochs", "noise_std",
      "speaker_effect_scale"), 0, True),
    (("ppc_learning_rate", "svc_learning_rate", "rec_learning_rate", "train_fraction"), 0, False),
)

# where a run is written, not what it computes
PATHS = ("out_dir", "corpus_path", "model_dir", "report_dir")

# The largest model and corpus a config may order, far above every test
# and benchmark config: the default's largest net, the completion net, has
# 1,574 parameters, and its corpus 4,800 frames of 8 features.
MAX_NET_PARAMS = 1_000_000
MAX_CORPUS_VALUES = 10_000_000


def _dense(*widths):
    """Weights and biases of a dense net of these layer widths."""
    return sum((a + 1) * b for a, b in zip(widths[:-1], widths[1:]))


@dataclass
class RunConfig:
    out_dir: str = "runs/default"
    corpus_path: str = ""  # defaults to <out_dir>/corpus.csv
    model_dir: str = ""    # defaults to <out_dir>/models
    report_dir: str = ""   # defaults to <out_dir>/reports

    # corpus generation
    n_speakers: int = 20
    n_words: int = 10
    phones_per_word: int = 2
    states_per_phone: int = 3
    frames_per_state: int = 4
    noise_std: float = 0.05
    feature_dim: int = 8
    latent_dim: int = 2
    speaker_effect_scale: float = 1.0
    corpus_seed: int = 101

    # speaker-disjoint split
    train_fraction: float = 0.7
    split_seed: int = 202

    # per-sound encoders
    ppc_dim: int = 2
    ppc_learning_rate: float = 0.05
    ppc_epochs: int = 150
    ppc_seed: int = 303
    min_sound_frames: int = 2

    # pattern-completion net
    svc_dim: int = 2
    svc_flank: int = 12
    svc_learning_rate: float = 0.02
    svc_epochs: int = 200
    svc_seed: int = 404
    accumulation_mode: str = FEEDBACK

    # recognizer
    rec_acoustic_units: int = 24
    rec_state_units: int = 16
    rec_window: int = 0
    rec_learning_rate: float = 0.15
    rec_epochs: int = 50
    rec_seed: int = 505

    def __post_init__(self):
        if self.accumulation_mode not in MODES:
            raise DataError(f"accumulation_mode must be one of {MODES}")
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            # JSON allows NaN, Infinity and integers too large for a float
            if field.type is float and not abs(value) <= sys.float_info.max:
                raise DataError(f"config key {field.name!r} must be a finite float, got {value!r}")
        for keys, low, inclusive in RANGES:
            for key in keys:
                value = getattr(self, key)
                if not (value >= low if inclusive else value > low):  # NaN fails too
                    raise DataError(
                        f"config key {key!r} must be {'>=' if inclusive else '>'} {low}, "
                        f"got {value!r}"
                    )
        if not self.train_fraction < 1:  # a share of the speakers
            raise DataError(f"config key 'train_fraction' must be < 1, got {self.train_fraction!r}")
        self._check_budget()

    def _check_budget(self):
        """Refuse a generated corpus of over MAX_CORPUS_VALUES values (its
        frames, each frame's recognizer window, and the speaker effects),
        or a stage net of over MAX_NET_PARAMS parameters, in one line
        naming the keys that set its size."""
        n_sounds = self.n_words * self.states_per_phone  # every phone of the inventory occurs
        width = n_sounds * self.ppc_dim  # the completion net's layout
        frames = (self.n_speakers * self.n_words * self.phones_per_word * self.states_per_phone
                  * self.frames_per_state)
        flank = (self.svc_flank,) if self.svc_flank else ()
        units = (self.rec_acoustic_units, self.rec_state_units, self.n_words)
        budgets = (
            ("corpus arrays of", "values", MAX_CORPUS_VALUES,
             frames * self.feature_dim * (2 * self.rec_window + 1)
             + n_sounds * self.feature_dim * self.latent_dim,
             ("n_speakers", "n_words", "phones_per_word", "states_per_phone", "frames_per_state",
              "feature_dim", "rec_window", "latent_dim")),
            ("an encoder of", "parameters", MAX_NET_PARAMS,
             _dense(self.feature_dim, self.ppc_dim, self.feature_dim), ("feature_dim", "ppc_dim")),
            ("a completion net of", "parameters", MAX_NET_PARAMS,
             _dense(width, *flank, self.svc_dim, *flank, width),
             ("n_words", "states_per_phone", "ppc_dim", "svc_flank", "svc_dim")),
            ("a recognizer of", "parameters", MAX_NET_PARAMS,
             _dense(self.feature_dim * (2 * self.rec_window + 1), *units)
             + _dense(self.svc_dim, SVC_HIDDEN_WIDTH) + SVC_HIDDEN_WIDTH * sum(units),
             ("feature_dim", "rec_window", "rec_acoustic_units", "rec_state_units", "n_words",
              "svc_dim")),
        )
        for what, unit, budget, size, keys in budgets:
            if size > budget:
                named = ", ".join(f"{key}={getattr(self, key)}" for key in keys)
                raise DataError(f"config keys {named} order {what} {size:,} {unit}, "
                                f"over the budget of {budget:,}")

    # resolved paths -----------------------------------------------------
    @property
    def resolved_corpus_path(self):
        return self.corpus_path or os.path.join(self.out_dir, "corpus.csv")

    @property
    def resolved_latents_path(self):
        return self.resolved_corpus_path + ".latents"

    @property
    def resolved_model_dir(self):
        return self.model_dir or os.path.join(self.out_dir, "models")

    @property
    def resolved_report_dir(self):
        return self.report_dir or os.path.join(self.out_dir, "reports")

    def seeds(self):
        return {
            "corpus": self.corpus_seed,
            "split": self.split_seed,
            "ppc": self.ppc_seed,
            "svc": self.svc_seed,
            "rec": self.rec_seed,
        }

    def rebase_seeds(self, seed):
        if seed < 0:
            raise DataError(f"seed must be >= 0, got {seed}")
        self.corpus_seed = seed
        self.split_seed = seed + 1
        self.ppc_seed = seed + 2
        self.svc_seed = seed + 3
        self.rec_seed = seed + 4

    def config_hash(self):
        """Hash of every field but the PATHS: one config written anywhere hashes alike."""
        fields = {k: v for k, v in dataclasses.asdict(self).items() if k not in PATHS}
        canon = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    @classmethod
    def from_file(cls, path):
        try:
            data = json.loads(read_text(path))
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: invalid config JSON: {e}") from e
        if not isinstance(data, dict):
            raise DataError(f"{path}: config must be a JSON object")
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise DataError(f"{path}: unknown config keys {sorted(unknown)}")
        for key, value in data.items():
            # a JSON integer is a valid float; a JSON boolean is no number
            allowed = (int, float) if types[key] is float else types[key]
            if not isinstance(value, allowed) or isinstance(value, bool):
                raise DataError(
                    f"{path}: config key {key!r} must be {types[key].__name__}, got {value!r}"
                )
        try:
            return cls(**data)
        except DataError as e:
            raise DataError(f"{path}: {e}") from None
