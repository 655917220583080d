import numpy as np
import pytest

from svcnet.corpus import (
    CorpusSpec,
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


def small_spec(**kw):
    defaults = dict(
        n_speakers=4,
        n_words=4,
        phones_per_word=2,
        states_per_phone=2,
        frames_per_state=2,
        noise_std=0.05,
        seed=1,
        feature_dim=5,
        latent_dim=2,
    )
    defaults.update(kw)
    return CorpusSpec(**defaults)


class TestSpec:
    def test_rejects_zero_counts(self):
        with pytest.raises(StructuralError):
            small_spec(n_speakers=0)

    def test_rejects_negative_noise(self):
        with pytest.raises(StructuralError):
            small_spec(noise_std=-0.1)


class TestWordPhones:
    def test_default_scale_sets_distinct(self):
        spec = CorpusSpec()
        sets = [frozenset(word_phones(spec, k)) for k in range(spec.n_words)]
        assert len(set(sets)) == spec.n_words

    def test_early_words_cover_inventory(self):
        spec = CorpusSpec()
        covered = set()
        blocks = spec.n_words // spec.phones_per_word
        for k in range(blocks):
            covered.update(word_phones(spec, k))
        assert len(covered) == spec.n_words


class TestGenerate:
    def test_deterministic(self):
        c1, l1 = generate_corpus(small_spec())
        c2, l2 = generate_corpus(small_spec())
        assert len(c1.frames) == len(c2.frames)
        for a, b in zip(c1.frames, c2.frames):
            assert np.array_equal(a.features, b.features)
            assert (a.speaker, a.utterance, a.word, a.phone, a.state, a.index) == (
                b.speaker, b.utterance, b.word, b.phone, b.state, b.index
            )
        for s in l1:
            assert np.array_equal(l1[s], l2[s])

    def test_frame_count(self):
        spec = small_spec()
        corpus, _ = generate_corpus(spec)
        expected = (
            spec.n_speakers
            * spec.n_words
            * spec.phones_per_word
            * spec.states_per_phone
            * spec.frames_per_state
        )
        assert len(corpus.frames) == expected

    def test_zero_noise_repeats_frames(self):
        corpus, _ = generate_corpus(small_spec(noise_std=0.0))
        by_key = {}
        for f in corpus.frames:
            by_key.setdefault((f.speaker, f.phone, f.state), []).append(f.features)
        for feats in by_key.values():
            for v in feats[1:]:
                assert np.array_equal(v, feats[0])

    def test_finite_features(self):
        corpus, _ = generate_corpus(small_spec())
        assert all(np.all(np.isfinite(f.features)) for f in corpus.frames)

    def test_distinct_latents_distinct_frames_noiseless(self):
        corpus, latents = generate_corpus(small_spec(noise_std=0.0))
        s0, s1 = corpus.speakers[0], corpus.speakers[1]
        f0 = corpus.frames_of_speaker(s0)[0]
        f1 = next(
            f
            for f in corpus.frames_of_speaker(s1)
            if (f.phone, f.state, f.word) == (f0.phone, f0.state, f0.word)
        )
        assert not np.array_equal(f0.features, f1.features)


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        corpus, latents = generate_corpus(small_spec())
        path = tmp_path / "corpus.csv"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.speakers == corpus.speakers
        assert loaded.words == corpus.words
        assert loaded.feature_dim == corpus.feature_dim
        assert len(loaded.frames) == len(corpus.frames)
        for a, b in zip(corpus.frames, loaded.frames):
            assert np.array_equal(a.features, b.features)
            assert a.utterance == b.utterance and a.state == b.state

    def test_latents_round_trip(self, tmp_path):
        _, latents = generate_corpus(small_spec())
        path = tmp_path / "latents.csv"
        save_latents(latents, path)
        loaded = load_latents(path)
        assert set(loaded) == set(latents)
        for s in latents:
            assert np.array_equal(loaded[s], latents[s])

    def test_malformed_line_names_line_number(self, tmp_path):
        corpus, _ = generate_corpus(small_spec())
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

    def test_non_finite_feature_names_first_bad_line(self, tmp_path):
        corpus, _ = generate_corpus(small_spec())
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

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_corpus(path)


class TestSplit:
    def test_half_split_counts(self):
        corpus, _ = generate_corpus(small_spec(n_speakers=20))
        train, test = split_corpus(corpus, 0.5, seed=3)
        assert len(train.speakers) == 10 and len(test.speakers) == 10

    def test_disjoint_and_union(self):
        corpus, _ = generate_corpus(small_spec())
        train, test = split_corpus(corpus, 0.5, seed=3)
        assert not set(train.speakers) & set(test.speakers)
        ids = lambda c: {(f.utterance, f.index) for f in c.frames}
        assert ids(train) | ids(test) == ids(corpus)

    def test_needs_two_speakers(self):
        corpus, _ = generate_corpus(small_spec(n_speakers=1, n_words=2))
        with pytest.raises(DataError):
            split_corpus(corpus, 0.5, seed=0)

    def test_deterministic(self):
        corpus, _ = generate_corpus(small_spec())
        a1, b1 = split_corpus(corpus, 0.5, seed=9)
        a2, b2 = split_corpus(corpus, 0.5, seed=9)
        assert a1.speakers == a2.speakers and b1.speakers == b2.speakers
