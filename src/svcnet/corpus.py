"""Synthetic labelled corpus with ground-truth speaker latents.

Generative model per frame:

    features = prototype(phone, state)
             + M(phone, state) @ latent(speaker)
             + gaussian(0, noise_std)

Prototypes and the per-sound speaker-effect matrices M are drawn once from
the corpus seed; speaker latents are uniform on the unit square. The
speaker effect is affine per sound, so a narrow bottleneck can in
principle recover the latent coordinates exactly.

A corpus is held in columns: one (N, D) feature array and one integer
array per label (Corpus). Its rows are kept in canonical order, so a
speaker's or an utterance's frames are one contiguous slice, and a corpus
file whose rows are shuffled loads to the same corpus as a sorted one.
"""

import json
import re
import warnings
from typing import NamedTuple

import numpy as np

from .errors import CorpusFormatError, DataError, StructuralError
from .fileio import atomic_write_text, fmt_float, is_digits, read_text

CORPUS_HEADER_TAG = "svcnet-corpus v1"
LABELS = ("speaker", "utterance", "word", "sound", "index")


class SoundId(NamedTuple):
    """The modelling unit: a (phone, state) pair, ordered by phone, then
    state. A tuple, so that hashing it and comparing it run in C."""

    phone: str
    state: int

    def __str__(self):
        return f"{self.phone}:{self.state}"

    @classmethod
    def parse(cls, text):
        """The inverse of str(): "phone:state"; DataError otherwise."""
        phone, _, state = text.rpartition(":")
        if not phone or not is_digits(state):
            raise DataError(f"bad sound {text!r}: expected phone:state, such as p00:0")
        return cls(phone, int(state))


class SoundIndex(dict):
    """sound -> position (of a sound in `sounds`), also looked up a whole
    sound table at a time. The answer for the last table is kept, keyed by
    the table itself (held, so that its id stays its own): the calls on
    one corpus's table look it up once."""

    _last = (None, None)

    def __init__(self, sounds):
        super().__init__((sound, k) for k, sound in enumerate(sounds))

    def of_table(self, table):
        """The position of each sound of `table`, -1 for one not indexed;
        the array is shared, not to be written to."""
        last = self._last
        if last[0] is not table:
            last = self._last = (table, np.array([self.get(s, -1) for s in table], dtype=np.intp))
        return last[1]


def _read_only(array):
    array.setflags(write=False)
    return array


def _name_order(names):
    """(the indices of `names` in name order, each name's rank in it)."""
    by_name = sorted(range(len(names)), key=list(names).__getitem__)
    rank = np.empty(len(names), dtype=np.intp)
    rank[by_name] = np.arange(len(names))
    return by_name, rank


class Corpus:
    """Labelled frames in columns, one row per frame: `frames` is a
    read-only (N, D) feature array, and beside it one integer column per
    label, each indexing a tuple of names:

        speaker    `speakers`, the header's speakers
        utterance  `utterances`, the utterance ids in sorted order
        word       `words`, the header's words
        sound      `sounds`, the sorted SoundId table of the corpus's sounds
        index      (no table) the frame's position within its utterance

    The constructor takes the feature rows and `labels`, a column for each
    name in LABELS (utterance ids may index `utterances` in any order),
    and sorts the rows into canonical order, by (speaker, utterance,
    index); `rows` and the methods built on it keep that order, so a
    speaker's or an utterance's frames are one contiguous slice."""

    def __init__(self, frames, labels, *, speakers, utterances, words, phones, sounds,
                 states_per_phone):
        self.speakers, self.words, self.phones = tuple(speakers), tuple(words), tuple(phones)
        self.sounds, self.states_per_phone = tuple(sounds), states_per_phone
        # utterance ids in name order, so that sorting ids sorts names
        by_name, rank = _name_order(utterances)
        self.utterances = tuple(utterances[i] for i in by_name)
        columns = {k: np.asarray(labels[k], dtype=np.intp) for k in LABELS}
        columns["utterance"] = rank[columns["utterance"]]
        order = np.lexsort((columns["index"], columns["utterance"], columns["speaker"]))
        self.frames = _read_only(np.asarray(frames, dtype=float)[order])
        for k in LABELS:
            setattr(self, k, _read_only(columns[k][order]))

    @property
    def feature_dim(self):
        return self.frames.shape[1]

    def __len__(self):
        return len(self.frames)

    def rows(self, which):
        """The corpus of the rows that `which`, a boolean mask or a forward
        slice, selects; they keep their order. The name tables are shared."""
        if isinstance(which, slice):
            if (which.step or 1) < 0:
                raise StructuralError("a row selection keeps the row order")
        elif np.asarray(which).dtype != bool:
            raise StructuralError("rows are selected by a boolean mask or a slice")
        view = object.__new__(Corpus)
        view.__dict__.update(self.__dict__)
        view.frames = _read_only(self.frames[which])
        for k in LABELS:
            setattr(view, k, _read_only(getattr(self, k)[which]))
        return view

    def frames_of_speaker(self, speaker):
        """The rows of one speaker, a slice; no rows for an unknown speaker."""
        try:
            k = self.speakers.index(speaker)
        except ValueError:
            return self.rows(slice(0, 0))
        lo, hi = np.searchsorted(self.speaker, (k, k + 1))
        return self.rows(slice(lo, hi))

    def utterance_bounds(self):
        """Row offsets at which the utterances start, then the row count:
        utterance u is rows bounds[u]:bounds[u + 1]."""
        starts = np.flatnonzero(self.utterance[1:] != self.utterance[:-1]) + 1
        return np.concatenate(([0], starts, [len(self)])) if len(self) else np.zeros(1, int)

    def by_utterance(self):
        """Utterance id -> its rows in temporal order, a slice, in row order."""
        bounds = self.utterance_bounds()
        return {
            self.utterances[self.utterance[lo]]: self.rows(slice(lo, hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        }

    def sound_counts(self):
        """SoundId -> number of rows, for the sounds that have rows."""
        counts = np.bincount(self.sound, minlength=len(self.sounds))
        return {self.sounds[k]: int(counts[k]) for k in np.flatnonzero(counts)}

    def restricted_to_speakers(self, speakers):
        """The rows of `speakers`; the speaker table keeps header order."""
        keep = set(speakers)
        kept = [k for k, s in enumerate(self.speakers) if s in keep]
        renumber = np.full(len(self.speakers), -1)
        renumber[kept] = np.arange(len(kept))
        view = self.rows(renumber[self.speaker] >= 0)
        view.speaker = _read_only(renumber[view.speaker])
        view.speakers = tuple(self.speakers[k] for k in kept)
        return view


def word_phones(config, word_index):
    """Phone sequence of one word: consecutive blocks of the inventory, with
    the block grid shifted by one each time it wraps. Early words between
    them cover the whole inventory quickly, and the shift keeps later
    words' phone sets distinct (guaranteed when n_words % phones_per_word
    == 0)."""
    p = config.n_words  # phone inventory size
    k = word_index * config.phones_per_word
    start, shift = k % p, k // p
    return [f"p{(start + i + shift) % p:02d}" for i in range(config.phones_per_word)]


def _sound_column(phones, states_per_phone, phone, state):
    """(sorted SoundId table of the (phone, state) pairs that occur, each
    row's index into it), from phone ids into `phones` and states."""
    by_name, rank = _name_order(phones)
    keys, sound = np.unique(rank[phone] * states_per_phone + state, return_inverse=True)
    table = tuple(SoundId(phones[by_name[k // states_per_phone]], k % states_per_phone)
                  for k in keys.tolist())
    return table, sound


def generate_corpus(config):
    """Deterministic corpus plus ground-truth latents per speaker, from
    the config's corpus keys and corpus_seed; DataError for features that
    overflow, in the draw or in rounding them.

    The features are rounded to 12 decimals (a step of 5e-13, far below
    the default noise_std): below 1000 in magnitude each then has at most 15
    significant digits, which save_corpus's repr writes and a loader's
    float parser reads back exactly on its fast path, about 3x quicker
    than a 17-digit value."""
    rng = np.random.default_rng(config.corpus_seed)
    speakers = tuple(f"s{i:02d}" for i in range(config.n_speakers))
    words = tuple(f"w{i:02d}" for i in range(config.n_words))
    phones = tuple(f"p{i:02d}" for i in range(config.n_words))
    n_states, dim = config.states_per_phone, config.feature_dim

    # sound p * n_states + s is (phones[p], s); drawn in that order
    prototypes = np.empty((len(phones) * n_states, dim))
    effects = np.empty((len(phones) * n_states, dim, config.latent_dim))
    for k in range(len(prototypes)):
        prototypes[k] = rng.normal(0.0, 1.0, dim)
        effects[k] = rng.normal(0.0, config.speaker_effect_scale, (dim, config.latent_dim))

    latents = {s: rng.uniform(0.0, 1.0, config.latent_dim) for s in speakers}

    # one utterance per (speaker, word), its frames phone by phone, state
    # by state; the rows run speaker by speaker, word by word, and the
    # noise of all rows is one draw in that order (the numbers of one
    # draw per frame)
    phone_index = {p: i for i, p in enumerate(phones)}
    utt_sounds = [
        np.repeat([phone_index[p] * n_states + s for p in word_phones(config, wi)
                   for s in range(n_states)], config.frames_per_state)
        for wi in range(len(words))
    ]
    per_speaker = np.concatenate(utt_sounds)
    n_utt = len(utt_sounds[0])
    speaker = np.repeat(np.arange(len(speakers)), len(per_speaker))
    sound = np.tile(per_speaker, len(speakers))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, in one line
        base = np.stack([prototypes + effects @ latents[s] for s in speakers])
        frames = base[speaker, sound] + rng.normal(0.0, config.noise_std, (len(sound), dim))
        np.round(frames, 12, out=frames)  # short decimals: the file parses on the fast path
    if not np.isfinite(frames).all():
        raise DataError(f"generated features are not finite: noise_std {config.noise_std!r} or "
                        f"speaker_effect_scale {config.speaker_effect_scale!r} is too large")
    word = np.tile(np.repeat(np.arange(len(words)), n_utt), len(speakers))
    table, sound = _sound_column(phones, n_states, sound // n_states, sound % n_states)
    corpus = Corpus(
        frames,
        dict(speaker=speaker, utterance=speaker * len(words) + word, word=word, sound=sound,
             index=np.tile(np.arange(n_utt), len(speakers) * len(words))),
        speakers=speakers,
        utterances=[f"{s}-{w}" for s in speakers for w in words],
        words=words, phones=phones, sounds=table, states_per_phone=n_states,
    )
    return corpus, latents


NAME_RULE = "is not a non-empty string free of commas and whitespace"


def bad_name(names):
    """The first name that is not a non-empty string free of commas and
    whitespace (the corpus and model formats split on both), else None."""
    for name in names:
        if not isinstance(name, str) or not name or any(c == "," or c.isspace() for c in name):
            return name
    return None


def save_corpus(corpus, path):
    for kind, names in (("speaker name", corpus.speakers), ("word name", corpus.words),
                        ("phone name", corpus.phones), ("utterance", corpus.utterances)):
        bad = bad_name(names)
        if bad is not None:
            raise DataError(f"{path}: {kind} {bad!r} {NAME_RULE}")
    header = {
        "format": CORPUS_HEADER_TAG,
        "feature_dim": corpus.feature_dim,
        "speakers": list(corpus.speakers),
        "words": list(corpus.words),
        "phones": list(corpus.phones),
        "states_per_phone": corpus.states_per_phone,
    }
    lines = ["# " + json.dumps(header, sort_keys=True)]
    sounds = [(s.phone, str(s.state)) for s in corpus.sounds]
    values = map(repr, corpus.frames.ravel().tolist())  # repr round-trips a float exactly
    for speaker, utterance, word, sound, index, features in zip(
        corpus.speaker.tolist(), corpus.utterance.tolist(), corpus.word.tolist(),
        corpus.sound.tolist(), corpus.index.tolist(), zip(*[values] * corpus.feature_dim),
    ):
        lines.append(",".join([corpus.speakers[speaker], corpus.utterances[utterance],
                               corpus.words[word], *sounds[sound], str(index), *features]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _loadtxt(texts):
    """np.loadtxt of comma-separated texts, as a 2-D array. A text that is
    empty or blank is skipped by loadtxt, which the caller sees as a row
    count that differs from len(texts)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # "input contained no data"
        return np.loadtxt(texts, delimiter=",", comments=None, ndmin=2)


def _float_rows(path, numbers, texts, width, labels, what):
    """(len(texts), width) floats, one row per comma-separated text (a
    line after its `labels` label fields), parsed in one pass.
    CorpusFormatError names the first bad line, numbers[i]: one of another
    width, with a value that is no float, or with a non-finite `what`
    value."""
    try:
        values = _loadtxt(texts)
    except ValueError:
        values = None
    if values is None or values.shape != (len(texts), width):
        for number, text in zip(numbers, texts):
            fields = text.count(",") + 1
            if fields != width:
                raise CorpusFormatError(
                    path, number, f"expected {labels + width} fields, got {labels + fields}"
                )
            try:
                error = None if _loadtxt([text]).shape == (1, width) else "no value"
            except ValueError as e:
                error = re.sub(r" at row \d+, column \d+\.?$", "", str(e))
            if error is not None:
                raise CorpusFormatError(path, number, error)
        raise CorpusFormatError(path, numbers[0], "unreadable values")
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise CorpusFormatError(path, numbers[np.argmin(finite)], f"non-finite {what} value")
    return values


def _int_column(path, numbers, texts, what, high):
    """The integers of `texts`, each written in ASCII decimal digits and in
    [0, high); CorpusFormatError naming the first line whose text is no
    such integer."""
    try:
        values = np.array(texts, dtype=np.int64)
    except (ValueError, OverflowError):
        values = None
    if (values is None or not ((values >= 0) & (values < high)).all()
            or not all(map(is_digits, texts))):
        for number, text in zip(numbers, texts):
            try:
                fits = is_digits(text) and 0 <= np.array(text, dtype=np.int64) < high
            except (ValueError, OverflowError):
                fits = False
            if not fits:
                raise CorpusFormatError(path, number, f"{what} {text!r} is not in [0, {high})")
    return values


def _name_column(path, numbers, texts, what, names):
    """Each text's index in `names`; CorpusFormatError naming the first
    line whose text is not one of them."""
    index = {name: i for i, name in enumerate(names)}
    ids = np.array([index.get(text, -1) for text in texts])
    if (ids < 0).any():
        i = int(np.argmax(ids < 0))
        raise CorpusFormatError(path, numbers[i], f"{what} {texts[i]!r} is not in the header")
    return ids


def _check_utterances(path, numbers, utterance, speaker, word, index):
    """Every row of an utterance has the speaker and the word of its first
    row, and no (utterance, index) pair repeats; CorpusFormatError naming
    the first line, in file order, that breaks either."""
    _, first = np.unique(utterance, return_index=True)
    ref = first[utterance]
    differs = (speaker != speaker[ref]) | (word != word[ref])
    if differs.any():
        i = int(np.argmax(differs))
        kind = "speaker" if speaker[i] != speaker[ref[i]] else "word"
        raise CorpusFormatError(
            path, numbers[i], f"{kind} differs from line {numbers[ref[i]]} of its utterance"
        )
    order = np.lexsort((index, utterance))
    repeat = (utterance[order[1:]] == utterance[order[:-1]]) & (
        index[order[1:]] == index[order[:-1]]
    )
    if repeat.any():
        i = int(order[1:][repeat].min())  # a stable sort: the later line of a pair
        raise CorpusFormatError(path, numbers[i], f"frame index {index[i]} repeats in its utterance")


def _header(path, line):
    """(feature_dim, states_per_phone, speakers, words, phones) of a
    corpus header line."""
    if not line.startswith("# "):
        raise CorpusFormatError(path, 1, "missing header line")
    try:  # a JSON object with these keys; JSONDecodeError is a ValueError
        header = json.loads(line[2:])
        feature_dim, states_per_phone = header["feature_dim"], header["states_per_phone"]
        if type(feature_dim) is not int or type(states_per_phone) is not int:  # bool is an int
            raise TypeError("feature_dim and states_per_phone must be JSON integers")
        speakers, words, phones = (tuple(header[k]) for k in ("speakers", "words", "phones"))
    except (KeyError, TypeError, ValueError) as e:
        raise CorpusFormatError(path, 1, f"bad header: {e!r}") from None
    if header.get("format") != CORPUS_HEADER_TAG:
        raise CorpusFormatError(path, 1, f"expected {CORPUS_HEADER_TAG} header")
    if feature_dim < 1 or not 1 <= states_per_phone < 2**31:
        raise CorpusFormatError(
            path, 1, "feature_dim must be >= 1 and states_per_phone in [1, 2**31)"
        )
    bad = bad_name(speakers + words + phones)
    if bad is not None:
        raise CorpusFormatError(path, 1, f"name {bad!r} {NAME_RULE}")
    for kind, names in (("speaker", speakers), ("word", words), ("phone", phones)):
        if len(set(names)) < len(names):
            twice = next(n for i, n in enumerate(names) if n in names[:i])
            raise CorpusFormatError(path, 1, f"{kind} {twice!r} is listed twice")
    return feature_dim, states_per_phone, speakers, words, phones


def _data_lines(lines):
    """(line numbers, lines) of the non-empty lines after the header."""
    data = list(filter(None, lines[1:]))
    return (range(2, len(lines) + 1) if len(data) == len(lines) - 1
            else [n for n, line in enumerate(lines[1:], start=2) if line]), data


def _parse_lines(path, numbers, data, feature_dim, states_per_phone, speakers, words, phones):
    """(features, label columns, sorted utterance ids) of the data lines,
    each split once; CorpusFormatError names the first bad line."""
    rows = [line.split(",", 6) for line in data]
    for number, row in zip(numbers, rows):
        if len(row) < 7:
            raise CorpusFormatError(path, number,
                                    f"expected {6 + feature_dim} fields, got {len(row)}")
    speaker, utterance, word, phone, state, index, rest = zip(*rows)
    features = _float_rows(path, numbers, rest, feature_dim, 6, "feature")
    speaker = _name_column(path, numbers, speaker, "speaker", speakers)
    word = _name_column(path, numbers, word, "word", words)
    phone = _name_column(path, numbers, phone, "phone", phones)
    state = _int_column(path, numbers, state, "state", states_per_phone)
    index = _int_column(path, numbers, index, "frame index", 2**62)
    bad = bad_name(dict.fromkeys(utterance))  # the first bad id in file order
    if bad is not None:
        raise CorpusFormatError(path, numbers[utterance.index(bad)],
                                f"utterance {bad!r} {NAME_RULE}")
    utterances = sorted(set(utterance))
    utterance = _name_column(path, numbers, utterance, "utterance", utterances)
    return features, dict(speaker=speaker, utterance=utterance, word=word, phone=phone,
                          state=state, index=index), utterances


def _read_rows(body, data, feature_dim, states_per_phone, speakers, words, phones):
    """_parse_lines's result from one structured np.loadtxt pass, which
    holds no Python object per line; None, for _parse_lines to read or
    refuse, wherever the two may differ or a line is bad: for text with
    non-ASCII, a NUL (cut from a string's end), 0x1f (a space to loadtxt's
    integers only), a space or a tab (none in utterance ids), a `+` (a
    sign to loadtxt's integers; none in a generated file), and below."""
    if (not body.isascii() or any(c in body for c in "\x00\x1f \t+")
            or data[0].count(",") != 5 + feature_dim):
        return None
    width = min(2 * max(map(len, speakers + words + phones), default=0) + 2, 64)  # for two names
    dtype = [(k, f"S{width}") for k in ("speaker", "utterance", "word", "phone")] + [
        ("state", np.uint64), ("index", np.uint64), ("features", float, (feature_dim,))]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(data, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):  # loadtxt refuses `1_0`, which np.array reads, and `-0`
        return None
    state, index = rows["state"], rows["index"]
    if len(rows) != len(data) or not np.isfinite(rows["features"]).all() or not (
            (state < states_per_phone) & (index < 2**62)).all():
        return None
    state, index = state.astype(np.int64), index.astype(np.int64)
    labels = dict(state=state, index=index)
    for kind, names in (("speaker", speakers), ("word", words), ("phone", phones),
                        ("utterance", None)):
        texts, column = np.unique(rows[kind], return_inverse=True)
        texts = texts.astype(str).tolist()  # one lookup per distinct name
        position = {name: i for i, name in enumerate(texts if names is None else names)}
        ids = np.array([position.get(t, -1) for t in texts])
        if max(map(len, texts)) >= width or "" in texts or (ids < 0).any():  # cut, empty, unknown
            return None
        labels[kind] = ids[column]
    return rows["features"], labels, texts  # the utterance ids, sorted


def load_corpus(path):
    """Parse a corpus file: the header, then the data lines in one pass
    (_read_rows), or line by line for the rare forms that pass leaves to
    _parse_lines. The rows may come in any order; the corpus holds them in
    canonical order. CorpusFormatError names the file and the bad line."""
    text = read_text(path)
    lines = text.splitlines()
    if not lines:
        raise DataError(f"{path}: empty corpus file")
    _, states_per_phone, speakers, words, phones = header = _header(path, lines[0])
    numbers, data = _data_lines(lines)
    if not data:
        raise DataError(f"{path}: corpus file has no frames")
    features, labels, utterances = (_read_rows(text[len(lines[0]):], data, *header)
                                    or _parse_lines(path, numbers, data, *header))
    _check_utterances(path, numbers, *map(labels.get, ("utterance", "speaker", "word", "index")))
    sounds, labels["sound"] = _sound_column(phones, states_per_phone, labels.pop("phone"),
                                            labels.pop("state"))
    return Corpus(features, labels, speakers=speakers, utterances=utterances, words=words,
                  phones=phones, sounds=sounds, states_per_phone=states_per_phone)


def save_latents(latents, path):
    lines = ["speaker," + ",".join(f"l_{i}" for i in range(len(next(iter(latents.values())))))]
    for speaker in sorted(latents):
        lines.append(speaker + "," + ",".join(fmt_float(v) for v in latents[speaker]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_latents(path):
    """Speaker -> latent vector. The values are parsed and checked as a
    corpus's features are; a row of another width than the header, a
    repeated speaker or a file without rows is refused, naming the file
    (and the line)."""
    lines = read_text(path).splitlines()
    width = len(lines[0].split(",")) - 1 if lines else 0
    if width < 1:
        raise CorpusFormatError(path, 1, "expected a header: speaker,l_0,...")
    numbers, data = _data_lines(lines)
    if not data:
        raise DataError(f"{path}: no latents found")
    rows = [line.split(",", 1) for line in data]
    for number, row in zip(numbers, rows):
        if len(row) < 2:
            raise CorpusFormatError(path, number, f"expected {1 + width} fields, got 1")
    speakers = [row[0] for row in rows]
    values = _float_rows(path, numbers, [row[1] for row in rows], width, 1, "latent")
    if len(set(speakers)) < len(speakers):
        i = next(i for i, s in enumerate(speakers) if s in speakers[:i])
        raise CorpusFormatError(path, numbers[i], f"speaker {speakers[i]!r} repeats")
    return dict(zip(speakers, values))


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
