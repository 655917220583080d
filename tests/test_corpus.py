import gc
import json
import random
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svcnet.corpus as corpus_mod
from svcnet.config import RunConfig
from svcnet.corpus import (
    Corpus,
    SoundId,
    generate_corpus,
    load_corpus,
    load_latents,
    save_corpus,
    save_latents,
    split_corpus,
    word_phones,
)
from svcnet.errors import CorpusFormatError, DataError, StructuralError


class TestSoundId:
    def test_ordering(self):
        assert SoundId("p00", 1) < SoundId("p00", 2) < SoundId("p01", 0)

    def test_parse_round_trip(self):
        s = SoundId("p03", 2)
        assert SoundId.parse(str(s)) == s


def labels(corpus):
    """Every row's labels, by name."""
    return [
        (corpus.speakers[s], corpus.utterances[u], corpus.words[w], corpus.sounds[k], i)
        for s, u, w, k, i in zip(
            corpus.speaker, corpus.utterance, corpus.word, corpus.sound, corpus.index
        )
    ]


def small_config(**kw):
    defaults = dict(
        n_speakers=4,
        n_words=4,
        phones_per_word=2,
        states_per_phone=2,
        frames_per_state=2,
        noise_std=0.05,
        corpus_seed=1,
        feature_dim=5,
        latent_dim=2,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestWordPhones:
    def test_default_scale_sets_distinct(self):
        config = RunConfig(corpus_seed=0)
        sets = [frozenset(word_phones(config, k)) for k in range(config.n_words)]
        assert len(set(sets)) == config.n_words

    def test_early_words_cover_inventory(self):
        config = RunConfig(corpus_seed=0)
        covered = set()
        blocks = config.n_words // config.phones_per_word
        for k in range(blocks):
            covered.update(word_phones(config, k))
        assert len(covered) == config.n_words


class TestGenerate:
    def test_deterministic(self):
        c1, l1 = generate_corpus(small_config())
        c2, l2 = generate_corpus(small_config())
        assert len(c1.frames) == len(c2.frames)
        assert np.array_equal(c1.frames, c2.frames)
        assert labels(c1) == labels(c2)
        for s in l1:
            assert np.array_equal(l1[s], l2[s])

    def test_frame_count(self):
        config = small_config()
        corpus, _ = generate_corpus(config)
        expected = (
            config.n_speakers
            * config.n_words
            * config.phones_per_word
            * config.states_per_phone
            * config.frames_per_state
        )
        assert len(corpus.frames) == expected

    def test_zero_noise_repeats_frames(self):
        corpus, _ = generate_corpus(small_config(noise_std=0.0))
        by_key = {}
        for speaker, sound, features in zip(corpus.speaker, corpus.sound, corpus.frames):
            by_key.setdefault((speaker, sound), []).append(features)
        for feats in by_key.values():
            for v in feats[1:]:
                assert np.array_equal(v, feats[0])

    def test_finite_features(self):
        corpus, _ = generate_corpus(small_config())
        assert np.all(np.isfinite(corpus.frames))

    def test_distinct_latents_distinct_frames_noiseless(self):
        corpus, latents = generate_corpus(small_config(noise_std=0.0))
        s0, s1 = corpus.frames_of_speaker(corpus.speakers[0]), corpus.frames_of_speaker(
            corpus.speakers[1]
        )
        same = (s1.sound == s0.sound[0]) & (s1.word == s0.word[0])
        assert not np.array_equal(s0.frames[0], s1.frames[np.argmax(same)])

    @pytest.mark.parametrize("config", [RunConfig(), small_config()], ids=["default", "small"])
    def test_features_are_the_draw_rounded_to_12_decimals(self, monkeypatch, config):
        """With the rounding taken out, generate_corpus gives the draw
        itself; the corpus's features are that draw rounded, bit for bit."""
        corpus, _ = generate_corpus(config)
        with monkeypatch.context() as m:
            m.setattr(np, "round", lambda a, decimals, out=None: a)
            drawn, _ = generate_corpus(config)
        assert corpus.frames.tobytes() == np.round(drawn.frames, 12).tobytes()
        assert not np.array_equal(corpus.frames, drawn.frames)
        assert np.abs(corpus.frames - drawn.frames).max() < 6e-13

    def test_saved_features_have_at_most_15_significant_digits(self, tmp_path):
        """Each feature field of a default corpus file is short enough for
        a float parser's fast path (the speed of every stage's load)."""
        corpus, _ = generate_corpus(RunConfig())
        path = tmp_path / "corpus.csv"
        save_corpus(corpus, path)
        fields = [f for line in path.read_text().splitlines()[1:] for f in line.split(",")[6:]]
        assert len(fields) == corpus.frames.size
        digits = [len(f.lstrip("-").partition("e")[0].replace(".", "").strip("0"))
                  for f in fields]
        assert max(digits) <= 15


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        corpus, latents = generate_corpus(small_config())
        path = tmp_path / "corpus.csv"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.speakers == corpus.speakers
        assert loaded.words == corpus.words
        assert loaded.feature_dim == corpus.feature_dim
        assert len(loaded.frames) == len(corpus.frames)
        assert np.array_equal(corpus.frames, loaded.frames)
        assert labels(loaded) == labels(corpus)

    def test_latents_round_trip(self, tmp_path):
        _, latents = generate_corpus(small_config())
        path = tmp_path / "latents.csv"
        save_latents(latents, path)
        loaded = load_latents(path)
        assert set(loaded) == set(latents)
        for s in latents:
            assert np.array_equal(loaded[s], latents[s])

    def test_malformed_line_names_line_number(self, tmp_path):
        corpus, _ = generate_corpus(small_config())
        path = tmp_path / "corpus.csv"
        save_corpus(corpus, path)
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[7] = "not-a-number"
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(path)
        assert exc.value.line_number == 4
        assert exc.value.path == path
        assert str(exc.value).startswith(f"{path}: line 4: ")

    def test_non_finite_feature_names_first_bad_line(self, tmp_path):
        corpus, _ = generate_corpus(small_config())
        path = tmp_path / "corpus.csv"
        save_corpus(corpus, path)
        lines = path.read_text().splitlines()
        for i, value in ((9, "inf"), (5, "nan")):
            fields = lines[i].split(",")
            fields[6] = value
            lines[i] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(path)
        assert exc.value.line_number == 6
        assert str(exc.value) == f"{path}: line 6: non-finite feature value"

    def test_bad_header_names_file(self, tmp_path):
        corpus, _ = generate_corpus(small_config())
        path = tmp_path / "corpus.csv"
        save_corpus(corpus, path)
        text = path.read_text()
        header = json.loads(text.splitlines()[0][2:])
        # a missing key; numbers that int() reads, but that are no JSON integer
        edits = [text.replace('"feature_dim"', '"feature_dims"', 1)]
        for key, value in (("feature_dim", header["feature_dim"] + 0.9),
                           ("feature_dim", str(header["feature_dim"])),
                           ("states_per_phone", True)):
            lines = text.splitlines(keepends=True)
            lines[0] = "# " + json.dumps({**header, key: value}) + "\n"
            edits.append("".join(lines))
        for edit in edits:
            path.write_text(edit)
            with pytest.raises(CorpusFormatError, match=r"^\S*corpus.csv: line 1: bad header: "):
                load_corpus(path)

    @pytest.mark.parametrize("bad", ["w 1", "w,1", "w\t1", "w\n1", ""])
    @pytest.mark.parametrize("kind", ["speakers", "words", "phones"])
    def test_name_with_comma_or_whitespace_is_refused(self, tmp_path, kind, bad):
        corpus, _ = generate_corpus(small_config())
        names = getattr(corpus, kind)
        path = tmp_path / "corpus.csv"
        setattr(corpus, kind, (bad,) + names[1:])
        with pytest.raises(DataError, match=f"{path}: .*name {re.escape(repr(bad))}"):
            save_corpus(corpus, path)
        assert not path.exists()
        setattr(corpus, kind, names)
        save_corpus(corpus, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0][2:])
        header[kind][0] = bad
        lines[0] = "# " + json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(path)
        assert exc.value.line_number == 1 and repr(bad) in str(exc.value)

    @pytest.mark.parametrize("bad", ["s00 w00", ""])
    def test_bad_utterance_id_is_not_saved(self, tmp_path, bad):
        corpus, _ = generate_corpus(small_config())
        corpus.utterances = (bad,) + corpus.utterances[1:]
        path = tmp_path / "corpus.csv"
        with pytest.raises(DataError, match=f"{path}: utterance {re.escape(repr(bad))} "):
            save_corpus(corpus, path)
        assert not path.exists()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_corpus(path)


def rewrite_rows(path, edit):
    """Rewrite a saved corpus's data lines: edit(fields, k) gets the
    fields of data line k (file line k + 2) and edits them in place."""
    lines = path.read_text().splitlines()
    for k in range(len(lines) - 1):
        fields = lines[k + 1].split(",")
        edit(fields, k)
        lines[k + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def saved(tmp_path, **kw):
    corpus, _ = generate_corpus(small_config(**kw))
    path = tmp_path / "corpus.csv"
    save_corpus(corpus, path)
    return corpus, path


class TestColumns:
    def test_rows_in_canonical_order(self):
        corpus, _ = generate_corpus(small_config())
        keys = [(s, corpus.utterances[u], i)
                for s, u, i in zip(corpus.speaker, corpus.utterance, corpus.index)]
        assert keys == sorted(keys)
        assert list(corpus.utterances) == sorted(corpus.utterances)
        assert list(corpus.sounds) == sorted(corpus.sounds)
        assert corpus.frames.shape == (len(corpus), corpus.feature_dim)

    def test_frames_are_read_only(self):
        corpus, _ = generate_corpus(small_config())
        for array in (corpus.frames, corpus.speaker, corpus.frames_of_speaker("s01").frames):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_speaker_and_utterance_are_slices(self):
        corpus, _ = generate_corpus(small_config())
        for k, speaker in enumerate(corpus.speakers):
            rows = corpus.frames_of_speaker(speaker)
            assert np.shares_memory(rows.frames, corpus.frames)
            assert np.array_equal(rows.frames, corpus.frames[corpus.speaker == k])
            assert set(rows.speaker.tolist()) == {k}
        assert len(corpus.frames_of_speaker("nobody")) == 0
        utterances = corpus.by_utterance()
        assert list(utterances) == [corpus.utterances[u] for u in dict.fromkeys(corpus.utterance)]
        for name, rows in utterances.items():
            u = corpus.utterances.index(name)
            assert np.array_equal(rows.frames, corpus.frames[corpus.utterance == u])
            assert rows.index.tolist() == sorted(rows.index.tolist())

    def test_sound_counts(self):
        corpus, _ = generate_corpus(small_config())
        brute = {}
        for k in corpus.sound:
            brute[corpus.sounds[k]] = brute.get(corpus.sounds[k], 0) + 1
        assert corpus.sound_counts() == brute
        assert set(corpus.frames_of_speaker("s00").sound_counts()) <= set(brute)

    def test_restricted_renumbers_speakers(self):
        corpus, _ = generate_corpus(small_config())
        sub = corpus.restricted_to_speakers(["s03", "s01"])
        assert sub.speakers == ("s01", "s03")
        assert labels(sub) == [row for row in labels(corpus) if row[0] in sub.speakers]
        assert np.array_equal(sub.frames_of_speaker("s03").frames,
                              corpus.frames_of_speaker("s03").frames)

    def test_rows_keeps_order(self):
        corpus, _ = generate_corpus(small_config())
        mask = corpus.word == 1
        assert labels(corpus.rows(mask)) == [r for r, m in zip(labels(corpus), mask) if m]
        assert labels(corpus.rows(slice(3, 9))) == labels(corpus)[3:9]
        for which in (slice(None, None, -1), np.arange(4)[::-1], [0, 1]):
            with pytest.raises(StructuralError):
                corpus.rows(which)

    def test_constructor_sorts_rows(self):
        corpus, _ = generate_corpus(small_config())
        order = np.random.default_rng(3).permutation(len(corpus))
        names = dict(speakers=corpus.speakers, utterances=corpus.utterances[::-1],
                     words=corpus.words, phones=corpus.phones, sounds=corpus.sounds,
                     states_per_phone=corpus.states_per_phone)
        flipped = len(corpus.utterances) - 1 - corpus.utterance  # ids into the reversed names
        columns = dict(speaker=corpus.speaker, utterance=flipped, word=corpus.word,
                       sound=corpus.sound, index=corpus.index)
        shuffled = Corpus(corpus.frames[order], {k: v[order] for k, v in columns.items()},
                          **names)
        assert shuffled.utterances == corpus.utterances
        assert labels(shuffled) == labels(corpus)
        assert np.array_equal(shuffled.frames, corpus.frames)


class TestParse:
    """load_corpus parses the features in one pass and checks every label
    against the header; each bad row is refused, naming file and line."""

    def test_shuffled_file_loads_to_canonical_order(self, tmp_path):
        corpus, path = saved(tmp_path)
        lines = path.read_text().splitlines()
        body = lines[1:]
        random.Random(2).shuffle(body)
        body.insert(5, "")  # blank lines are skipped
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([lines[0]] + body) + "\n")
        loaded = load_corpus(shuffled)
        assert np.array_equal(loaded.frames, corpus.frames)
        assert labels(loaded) == labels(corpus)
        save_corpus(loaded, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_features_round_trip_bit_for_bit(self, tmp_path_factory, data):
        """The one-pass parse reads every value save_corpus writes as
        float() does, subnormals, extremes and signed zero included."""
        corpus, _ = generate_corpus(small_config(n_speakers=2, n_words=2))
        special = st.sampled_from([
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 1e-310, 1.0, -1.0,
        ])
        values = st.one_of(special, st.floats(allow_nan=False, allow_infinity=False))
        frames = np.array(data.draw(st.lists(
            values, min_size=corpus.frames.size, max_size=corpus.frames.size
        ))).reshape(corpus.frames.shape)
        corpus.frames = frames
        path = tmp_path_factory.mktemp("roundtrip") / "corpus.csv"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.frames.tobytes() == frames.tobytes()
        by_float = [[float(v) for v in line.split(",")[6:]]
                    for line in path.read_text().splitlines()[1:]]
        assert np.array(by_float).tobytes() == frames.tobytes()

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (0, "zz", "speaker 'zz' is not in the header"),
            (2, "w99", "word 'w99' is not in the header"),
            (3, "p99", "phone 'p99' is not in the header"),
            (4, "7", "state '7' is not in [0, 2)"),
            (4, "-1", "state '-1' is not in [0, 2)"),
            (4, "x", "state 'x' is not in [0, 2)"),
            (5, "1.5", "frame index '1.5' is not in [0, "),
            (5, "0_1", "frame index '0_1' is not in [0, "),
            (5, "+1", "frame index '+1' is not in [0, "),
            (5, "\u0661", "frame index '\u0661' is not in [0, "),
            (5, " 1", "frame index ' 1' is not in [0, "),
            (4, "-0", "state '-0' is not in [0, 2)"),
            (7, "one", "could not convert string 'one' to float64"),
            (1, "s00 w00", "utterance 's00 w00' is not a non-empty string free of commas"),
            (1, "", "utterance '' is not a non-empty string free of commas"),
        ],
        ids=["speaker", "word", "phone", "state", "negative_state", "state_text",
             "index", "index_underscore", "index_plus", "index_arabic_indic", "index_space",
             "state_negative_zero", "feature", "utterance_with_space", "empty_utterance"],
    )
    def test_bad_label_names_line(self, tmp_path, column, value, message):
        _, path = saved(tmp_path)

        def edit(fields, k):
            if k == 6:
                fields[column] = value

        rewrite_rows(path, edit)
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(path)
        assert exc.value.line_number == 8 and exc.value.path == path
        assert str(exc.value).startswith(f"{path}: line 8: {message}")

    @pytest.mark.parametrize(
        "blank, message", [("", "no value"), (" ", "could not convert string ' ' to float64")]
    )
    def test_blank_feature_is_refused(self, tmp_path, blank, message):
        """loadtxt skips a blank line; the row count check catches it."""
        _, path = saved(tmp_path, feature_dim=1)

        def edit(fields, k):
            if k == 2:
                fields[6] = blank

        rewrite_rows(path, edit)
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(path)
        assert str(exc.value) == f"{path}: line 4: {message}"

    def test_repeated_frame_index(self, tmp_path):
        _, path = saved(tmp_path)

        def edit(fields, k):
            if k == 3:
                fields[5] = "1"  # data line 1 holds index 1 of the same utterance

        rewrite_rows(path, edit)
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(path)
        assert str(exc.value) == f"{path}: line 5: frame index 1 repeats in its utterance"

    @pytest.mark.parametrize("column, kind", [(0, "speaker"), (2, "word")])
    def test_utterance_rows_disagree(self, tmp_path, column, kind):
        corpus, path = saved(tmp_path)
        other = {0: corpus.speakers[1], 2: corpus.words[1]}[column]

        def edit(fields, k):
            if k == 2:
                fields[column] = other

        rewrite_rows(path, edit)
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(path)
        assert str(exc.value) == f"{path}: line 4: {kind} differs from line 2 of its utterance"

    @pytest.mark.parametrize("cut", [1, 3])
    def test_wrong_field_count(self, tmp_path, cut):
        corpus, path = saved(tmp_path)
        lines = path.read_text().splitlines()
        lines[4] = ",".join(lines[4].split(",")[:-cut])
        path.write_text("\n".join(lines) + "\n")
        width = 6 + corpus.feature_dim
        with pytest.raises(CorpusFormatError, match=f"line 5: expected {width} fields, got "
                                                    f"{width - cut}"):
            load_corpus(path)

    @pytest.mark.parametrize("kind", ["speakers", "words", "phones"])
    def test_name_listed_twice(self, tmp_path, kind):
        corpus, path = saved(tmp_path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0][2:])
        header[kind][1] = header[kind][0]
        lines[0] = "# " + json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError, match=r"line 1: \w+ '\w+' is listed twice"):
            load_corpus(path)


def outcome(path):
    """What load_corpus makes of `path`: the corpus's bytes, labels and
    tables, or the type and message of the error it raises."""
    try:
        corpus = load_corpus(path)
    except Exception as e:  # compared, type and message, below
        return type(e), str(e)
    return (corpus.frames.tobytes(), labels(corpus), corpus.speakers, corpus.utterances,
            corpus.words, corpus.phones, corpus.sounds, corpus.states_per_phone)


def assert_same_outcome(path):
    """load_corpus gives the line-by-line parse's outcome on `path`, warns
    of nothing and raises nothing but DataError."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        found = outcome(path)
    assert caught == []
    with mock.patch.object(corpus_mod, "_read_rows", return_value=None):
        assert found == outcome(path)
    assert not isinstance(found[0], type) or issubclass(found[0], DataError)


# field values that one parse might read otherwise than the other, by
# column of a 2-feature corpus: padded, cut, empty or unknown names; ids
# with a space, a NUL (a fixed-width string drops it) or too long to fit;
# integers that loadtxt refuses (`1_0`, `٣`), reads past a 0x1f or reads
# with a sign (`+1`, `-0`), none of them ASCII digits only; values out of
# range or not finite
NAMES = ["s01", "w01", "p01", " s00", "s00 ", "", "s00\x00", "sé0"]
INTS = ["1", "2", "-1", "1_0", "0_1", "1.0", "+1", " 1", "\x1f1", "٣", "\u0661", "-0", "",
        "nan", "99999999999999999999"]
SWAPS = [NAMES, ["s00-w01", "s00 w00", "", "u" * 40, "s00-w00\x00", "s00"], NAMES, NAMES,
         INTS, INTS, *[["nan", "1e400", "-inf", "", "+1", "1_0", "1.0", " 1", "-0"]] * 2]


class TestBulkParse:
    """load_corpus reads a file in one structured pass and leaves the rare
    forms that pass cannot read exactly to the line-by-line parse; either
    way, the outcome is the line-by-line parse's."""

    def test_every_swap_same_outcome(self, tmp_path):
        _, path = saved(tmp_path, n_speakers=2, n_words=2, feature_dim=2)
        lines = path.read_text().splitlines()
        for column, values in enumerate(SWAPS):
            for value in values:
                fields = lines[3].split(",")
                fields[column] = value
                path.write_text("\n".join(lines[:3] + [",".join(fields)] + lines[4:]) + "\n")
                assert_same_outcome(path)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_same_outcome_as_line_by_line(self, tmp_path_factory, data):
        corpus, _ = generate_corpus(small_config(n_speakers=2, n_words=2, feature_dim=2))
        path = tmp_path_factory.mktemp("bulk") / "corpus.csv"
        save_corpus(corpus, path)
        lines = path.read_text().splitlines()
        newline = "\n"
        row = lambda: data.draw(st.integers(1, max(1, len(lines) - 1)))
        edits = data.draw(st.lists(st.sampled_from([
            "swap", "swap", "swap", "non_ascii", "long_utterance", "crlf", "whitespace_line",
            "blank_line", "trailing_comma", "missing_field", "delete", "duplicate", "swap_lines",
        ]), min_size=1, max_size=3))
        for edit in edits:
            if edit == "non_ascii":  # a speaker's name, in the header and the rows
                lines = [line.replace("s00", "sé0") for line in lines]
            elif edit == "long_utterance":
                lines = [line.replace("s01-w00", "u" * 40) for line in lines]
            elif edit == "crlf":
                newline = "\r\n"
            elif edit in ("whitespace_line", "blank_line"):
                lines.insert(row(), " \t " if edit == "whitespace_line" else "")
            elif len(lines) > 1:
                i = row()
                if edit == "swap":
                    fields = lines[i].split(",")
                    k = data.draw(st.integers(0, min(len(fields), len(SWAPS)) - 1))
                    fields[k] = data.draw(st.sampled_from(SWAPS[k]))
                    lines[i] = ",".join(fields)
                elif edit == "trailing_comma":
                    lines[i] += ","
                elif edit == "missing_field":
                    lines[i] = lines[i].rpartition(",")[0]
                elif edit == "delete":
                    del lines[i]
                elif edit == "duplicate":
                    lines.insert(i, lines[i])
                else:
                    k = row()
                    lines[i], lines[k] = lines[k], lines[i]
        path.write_bytes((newline.join(lines) + newline).encode())
        assert_same_outcome(path)

    @pytest.mark.parametrize("overrides", [{}, dict(n_speakers=120, frames_per_state=1)],
                             ids=["default", "adapt"])
    def test_generated_corpus_loads_in_one_pass(self, tmp_path, monkeypatch, overrides):
        """The bulk pass reads a generated corpus, and the load holds no
        Python object per line, so it runs no cyclic garbage collection."""
        corpus, _ = generate_corpus(RunConfig(**overrides))
        path = tmp_path / "corpus.csv"
        save_corpus(corpus, path)

        def line_by_line(*args):
            raise AssertionError("the line-by-line parse ran")

        monkeypatch.setattr(corpus_mod, "_parse_lines", line_by_line)
        collections = []

        def count(phase, info):
            collections.extend([info["generation"]] if phase == "start" else [])

        gc.collect()
        gc.callbacks.append(count)
        try:
            loaded = load_corpus(path)
        finally:
            gc.callbacks.remove(count)
        assert collections == []
        assert loaded.frames.tobytes() == corpus.frames.tobytes()
        assert labels(loaded) == labels(corpus)


class TestLatents:
    @pytest.mark.parametrize(
        "body, line, message",
        [
            ("s00,0.5,x\n", 2, "could not convert string 'x' to float64"),
            ("s00,0.5,0.1\ns01,nan,0.2\n", 3, "non-finite latent value"),
            ("s00,0.5,inf\n", 2, "non-finite latent value"),
            ("s00,nan,0.1\ns01,0.5\n", 3, "expected 3 fields, got 2"),
            ("s00,0.5,0.1,0.3\n", 2, "expected 3 fields, got 4"),
            ("s00\n", 2, "expected 3 fields, got 1"),
            ("s00,0.5,0.1\ns00,0.2,0.2\n", 3, "speaker 's00' repeats"),
        ],
        ids=["bad_float", "nan", "inf", "ragged_short", "ragged_long", "no_values",
             "duplicate"],
    )
    def test_bad_row_names_line(self, tmp_path, body, line, message):
        path = tmp_path / "latents.csv"
        path.write_text("speaker,l_0,l_1\n" + body)
        with pytest.raises(DataError) as exc:
            load_latents(path)
        assert str(exc.value) == f"{path}: line {line}: {message}"

    def test_no_rows(self, tmp_path):
        path = tmp_path / "latents.csv"
        for text in ("", "speaker\n", "speaker,l_0\n"):
            path.write_text(text)
            with pytest.raises(DataError, match=str(path)):
                load_latents(path)


class TestSplit:
    def test_half_split_counts(self):
        corpus, _ = generate_corpus(small_config(n_speakers=20))
        train, test = split_corpus(corpus, 0.5, seed=3)
        assert len(train.speakers) == 10 and len(test.speakers) == 10

    def test_disjoint_and_union(self):
        corpus, _ = generate_corpus(small_config())
        train, test = split_corpus(corpus, 0.5, seed=3)
        assert not set(train.speakers) & set(test.speakers)
        ids = lambda c: {(c.utterances[u], i) for u, i in zip(c.utterance, c.index)}
        assert ids(train) | ids(test) == ids(corpus)

    def test_needs_two_speakers(self):
        corpus, _ = generate_corpus(small_config(n_speakers=1, n_words=2))
        with pytest.raises(DataError):
            split_corpus(corpus, 0.5, seed=0)

    def test_deterministic(self):
        corpus, _ = generate_corpus(small_config())
        a1, b1 = split_corpus(corpus, 0.5, seed=9)
        a2, b2 = split_corpus(corpus, 0.5, seed=9)
        assert a1.speakers == a2.speakers and b1.speakers == b2.speakers
