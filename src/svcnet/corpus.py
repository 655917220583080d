"""Synthetic labelled corpus with ground-truth speaker latents.

Generative model per frame:

    features = prototype(phone, state)
             + M(phone, state) @ latent(speaker)
             + gaussian(0, noise_std)

Prototypes and the per-sound speaker-effect matrices M are drawn once from
the corpus seed; speaker latents are uniform on the unit square. The
speaker effect is affine per sound, so a narrow bottleneck can in
principle recover the latent coordinates exactly.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import CorpusFormatError, DataError, StructuralError
from .fileio import atomic_write_text, fmt_float, read_text

CORPUS_HEADER_TAG = "svcnet-corpus v1"


@dataclass(frozen=True, order=True)
class SoundId:
    """The modelling unit: a (phone, state) pair."""

    phone: str
    state: int

    def __str__(self):
        return f"{self.phone}:{self.state}"

    @classmethod
    def parse(cls, text):
        phone, _, state = text.rpartition(":")
        return cls(phone, int(state))


@dataclass
class CorpusSpec:
    n_speakers: int = 20
    n_words: int = 10
    phones_per_word: int = 2
    states_per_phone: int = 3
    frames_per_state: int = 4
    noise_std: float = 0.05
    seed: int = 0
    feature_dim: int = 8
    latent_dim: int = 2
    speaker_effect_scale: float = 1.0

    def __post_init__(self):
        counts = (
            self.n_speakers,
            self.n_words,
            self.phones_per_word,
            self.states_per_phone,
            self.frames_per_state,
            self.feature_dim,
            self.latent_dim,
        )
        if any(c < 1 for c in counts):
            raise StructuralError(f"all corpus counts must be >= 1: {self}")
        if self.noise_std < 0:
            raise StructuralError("noise_std must be >= 0")


@dataclass
class AcousticFrame:
    features: np.ndarray
    speaker: str
    utterance: str
    word: str
    phone: str
    state: int
    index: int  # frame position within its utterance

    @property
    def sound(self):
        return SoundId(self.phone, self.state)


@dataclass
class Corpus:
    frames: list
    feature_dim: int
    speakers: tuple
    words: tuple
    phones: tuple
    states_per_phone: int

    def frames_of_speaker(self, speaker):
        return [f for f in self.frames if f.speaker == speaker]

    def by_utterance(self):
        """Utterance id -> frames in temporal order, insertion-ordered."""
        groups = {}
        for f in self.frames:
            groups.setdefault(f.utterance, []).append(f)
        for frames in groups.values():
            frames.sort(key=lambda f: f.index)
        return groups

    def sound_counts(self):
        counts = {}
        for f in self.frames:
            counts[f.sound] = counts.get(f.sound, 0) + 1
        return counts

    def restricted_to_speakers(self, speakers):
        keep = set(speakers)
        return Corpus(
            [f for f in self.frames if f.speaker in keep],
            self.feature_dim,
            tuple(s for s in self.speakers if s in keep),
            self.words,
            self.phones,
            self.states_per_phone,
        )


def word_phones(spec, word_index):
    """Phone sequence of one word: consecutive blocks of the inventory, with
    the block grid shifted by one each time it wraps. Early words between
    them cover the whole inventory quickly, and the shift keeps later
    words' phone sets distinct (guaranteed when n_words % phones_per_word
    == 0)."""
    p = spec.n_words  # phone inventory size
    k = word_index * spec.phones_per_word
    start, shift = k % p, k // p
    return [f"p{(start + i + shift) % p:02d}" for i in range(spec.phones_per_word)]


def generate_corpus(spec):
    """Deterministic corpus plus ground-truth latents per speaker."""
    rng = np.random.default_rng(spec.seed)
    speakers = tuple(f"s{i:02d}" for i in range(spec.n_speakers))
    words = tuple(f"w{i:02d}" for i in range(spec.n_words))
    phones = tuple(f"p{i:02d}" for i in range(spec.n_words))

    prototypes = {}
    effects = {}
    for phone in phones:
        for state in range(spec.states_per_phone):
            sound = SoundId(phone, state)
            prototypes[sound] = rng.normal(0.0, 1.0, spec.feature_dim)
            effects[sound] = rng.normal(
                0.0, spec.speaker_effect_scale, (spec.feature_dim, spec.latent_dim)
            )

    latents = {s: rng.uniform(0.0, 1.0, spec.latent_dim) for s in speakers}

    frames = []
    for speaker in speakers:
        latent = latents[speaker]
        for wi, word in enumerate(words):
            utt = f"{speaker}-{word}"
            idx = 0
            for phone in word_phones(spec, wi):
                for state in range(spec.states_per_phone):
                    sound = SoundId(phone, state)
                    base = prototypes[sound] + effects[sound] @ latent
                    for _ in range(spec.frames_per_state):
                        feats = base + rng.normal(0.0, spec.noise_std, spec.feature_dim)
                        frames.append(
                            AcousticFrame(feats, speaker, utt, word, phone, state, idx)
                        )
                        idx += 1
    corpus = Corpus(
        frames, spec.feature_dim, speakers, words, phones, spec.states_per_phone
    )
    return corpus, latents


NAME_RULE = "is not a string free of commas and whitespace"


def bad_name(names):
    """The first name that is not a string free of commas and whitespace
    (the corpus and model formats split on both), else None."""
    for name in names:
        if not isinstance(name, str) or any(c == "," or c.isspace() for c in name):
            return name
    return None


def save_corpus(corpus, path):
    for kind, names in (("speaker", corpus.speakers), ("word", corpus.words),
                        ("phone", corpus.phones)):
        bad = bad_name(names)
        if bad is not None:
            raise DataError(f"{path}: {kind} name {bad!r} {NAME_RULE}")
    header = {
        "format": CORPUS_HEADER_TAG,
        "feature_dim": corpus.feature_dim,
        "speakers": list(corpus.speakers),
        "words": list(corpus.words),
        "phones": list(corpus.phones),
        "states_per_phone": corpus.states_per_phone,
    }
    lines = ["# " + json.dumps(header, sort_keys=True)]
    for f in corpus.frames:
        fields = [f.speaker, f.utterance, f.word, f.phone, str(f.state), str(f.index)]
        fields.extend(fmt_float(v) for v in f.features)
        lines.append(",".join(fields))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_corpus(path):
    lines = read_text(path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty corpus file")
    if not lines[0].startswith("# "):
        raise CorpusFormatError(path, 1, "missing header line")
    try:  # a JSON object with these keys; JSONDecodeError is a ValueError
        header = json.loads(lines[0][2:])
        feature_dim = int(header["feature_dim"])
        states_per_phone = int(header["states_per_phone"])
        speakers, words, phones = (tuple(header[k]) for k in ("speakers", "words", "phones"))
    except (KeyError, TypeError, ValueError) as e:
        raise CorpusFormatError(path, 1, f"bad header: {e!r}") from None
    if header.get("format") != CORPUS_HEADER_TAG:
        raise CorpusFormatError(path, 1, f"expected {CORPUS_HEADER_TAG} header")
    bad = bad_name(speakers + words + phones)
    if bad is not None:
        raise CorpusFormatError(path, 1, f"name {bad!r} {NAME_RULE}")
    frames, line_numbers = [], []
    for ln_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 6 + feature_dim:
            raise CorpusFormatError(
                path, ln_no, f"expected {6 + feature_dim} fields, got {len(fields)}"
            )
        try:
            state = int(fields[4])
            index = int(fields[5])
            feats = np.array([float(v) for v in fields[6:]], dtype=float)
        except ValueError as e:
            raise CorpusFormatError(path, ln_no, str(e)) from e
        frames.append(
            AcousticFrame(
                feats, fields[0], fields[1], fields[2], fields[3], state, index
            )
        )
        line_numbers.append(ln_no)
    if not frames:
        raise DataError(f"{path}: corpus file has no frames")
    finite = np.isfinite(np.stack([f.features for f in frames])).all(axis=1)
    if not finite.all():
        raise CorpusFormatError(
            path, line_numbers[np.argmin(finite)], "non-finite feature value"
        )
    return Corpus(frames, feature_dim, speakers, words, phones, states_per_phone)


def save_latents(latents, path):
    lines = ["speaker," + ",".join(f"l_{i}" for i in range(len(next(iter(latents.values())))))]
    for speaker in sorted(latents):
        lines.append(speaker + "," + ",".join(fmt_float(v) for v in latents[speaker]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_latents(path):
    lines = read_text(path).splitlines()
    latents = {}
    for line in lines[1:]:
        if not line:
            continue
        fields = line.split(",")
        latents[fields[0]] = np.array([float(v) for v in fields[1:]], dtype=float)
    if not latents:
        raise DataError(f"{path}: no latents found")
    return latents


def split_corpus(corpus, train_fraction, seed):
    """Speaker-disjoint (train, test) split, deterministic in seed."""
    speakers = list(corpus.speakers)
    if len(speakers) < 2:
        raise DataError("need at least 2 speakers to split")
    rng = np.random.default_rng(seed)
    order = list(rng.permutation(len(speakers)))
    n_train = int(round(train_fraction * len(speakers)))
    n_train = max(1, min(len(speakers) - 1, n_train))
    train_set = {speakers[i] for i in order[:n_train]}
    test_set = {speakers[i] for i in order[n_train:]}
    return (
        corpus.restricted_to_speakers(train_set),
        corpus.restricted_to_speakers(test_set),
    )
