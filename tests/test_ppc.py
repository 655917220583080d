import copy

import numpy as np
import pytest

from svcnet import pipeline
from svcnet.config import RunConfig
from svcnet.corpus import LABELS, SoundId, generate_corpus
from svcnet.errors import DataError, StructuralError
from svcnet.nets import forward, grads_from_activations, init_network, load_model, sgd_step
from svcnet.ppc import (
    EncoderBank,
    codable_frames,
    encode_frame,
    encode_frames,
    encoder_spec,
    reconstruction_mse,
    sound_inventory,
    train_all_encoders,
    train_ppc_encoder,
)
from svcnet.svc import SoundLayout, Stream, make_target, speaker_streams

SOUND = SoundId("p00", 0)


def ppc_config(learning_rate, epochs, seed, code_dim=2):
    return RunConfig(ppc_dim=code_dim, ppc_learning_rate=learning_rate, ppc_epochs=epochs,
                     ppc_seed=seed)


class TestEncoderSpec:
    def test_bottleneck_must_be_narrower(self):
        with pytest.raises(StructuralError):
            encoder_spec(4, 4)


class TestTrainEncoder:
    def test_zero_epochs_is_init(self):
        rng = np.random.default_rng(0)
        frames = [rng.normal(size=5) for _ in range(3)]
        cfg = ppc_config(0.1, 0, seed=17)
        enc, curve = train_ppc_encoder(SOUND, frames, cfg)
        ref = init_network(encoder_spec(5, 2), seed=17)
        for a, b in zip(enc.weights + enc.biases, ref.weights + ref.biases):
            assert np.array_equal(a, b)
        assert curve == []

    def test_empty_frames(self):
        with pytest.raises(DataError):
            train_ppc_encoder(SOUND, [], ppc_config(0.1, 1, 0))

    def test_single_repeated_frame_converges(self):
        frame = np.array([0.3, -0.6, 1.1, 0.0])
        frames = [frame] * 50
        enc, _ = train_ppc_encoder(SOUND, frames, ppc_config(0.05, 500, 1))
        assert reconstruction_mse(enc, frames) < 1e-3

    def test_separated_clusters_get_distinct_codes(self):
        rng = np.random.default_rng(2)
        a = [np.array([2.0, 2.0, 2.0, 2.0]) + 0.05 * rng.normal(size=4) for _ in range(30)]
        b = [np.array([-2.0, -2.0, -2.0, -2.0]) + 0.05 * rng.normal(size=4) for _ in range(30)]
        enc, _ = train_ppc_encoder(SOUND, a + b, ppc_config(0.05, 300, 2))
        code_a = np.mean([encode_frame(enc, f) for f in a], axis=0)
        code_b = np.mean([encode_frame(enc, f) for f in b], axis=0)
        assert np.abs(code_a - code_b).max() > 0.2

    def test_mse_never_worse_than_init(self):
        rng = np.random.default_rng(3)
        frames = [rng.normal(size=4) for _ in range(20)]
        enc, _ = train_ppc_encoder(SOUND, frames, ppc_config(0.02, 100, 3))
        init = init_network(encoder_spec(4, 2), seed=3)
        assert reconstruction_mse(enc, frames) <= reconstruction_mse(init, frames)


class TestEncodeFrame:
    def _encoder(self):
        rng = np.random.default_rng(4)
        frames = [rng.normal(size=4) for _ in range(10)]
        enc, _ = train_ppc_encoder(SOUND, frames, ppc_config(0.05, 20, 4))
        return enc, frames

    def test_deterministic_and_dimension(self):
        enc, frames = self._encoder()
        c1 = encode_frame(enc, frames[0])
        c2 = encode_frame(enc, frames[0])
        assert np.array_equal(c1, c2)
        assert c1.shape == (2,)

    def test_matches_independent_forward(self):
        enc, frames = self._encoder()
        acts = forward(enc, frames[1])
        assert np.array_equal(encode_frame(enc, frames[1]), acts[1])

    def test_sigmoid_range(self):
        enc, frames = self._encoder()
        for f in frames:
            c = encode_frame(enc, f)
            assert np.all(c > 0) and np.all(c < 1)


def average_ppcs(codes):
    """The mean of one sound's codes, as its profile slot holds it
    (svc.make_target of a stream that presents only that sound)."""
    layout = SoundLayout((SOUND,), len(codes[0]))
    one = np.zeros(len(codes), dtype=int)
    stream = Stream((SOUND,), one, np.array(codes), one)
    target, mask = make_target(stream, layout)
    assert mask.all()
    return target


class TestAveragePpcs:
    def test_single(self):
        c = np.array([0.2, 0.7])
        assert np.array_equal(average_ppcs([c]), c)

    def test_arithmetic(self):
        out = average_ppcs([np.array([0.0, 0.0]), np.array([2.0, 4.0])])
        assert np.array_equal(out, np.array([1.0, 2.0]))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        codes = [rng.random(3) for _ in range(100)]
        brute = sum(codes) / len(codes)
        np.testing.assert_allclose(average_ppcs(codes), brute, atol=1e-12)


def tiny_corpus():
    config = RunConfig(
        n_speakers=3, n_words=3, phones_per_word=2, states_per_phone=2,
        frames_per_state=2, noise_std=0.05, corpus_seed=7, feature_dim=5, latent_dim=2,
    )
    return generate_corpus(config)[0]


def rows_of(corpus, sound):
    return corpus.rows(corpus.sound == corpus.sounds.index(sound))


def coded_ids(corpus, encoders):
    return [k for k, sound in enumerate(corpus.sounds) if sound in encoders]


def tiny_encoders(corpus):
    encoders, _ = train_all_encoders(corpus, ppc_config(0.05, 5, 0))
    return encoders


def without(bank, sound):
    """A bank of the encoders of `bank` but the one of `sound`."""
    return EncoderBank({s: encoder for s, encoder in bank.items() if s != sound})


class TestTrainAllEncoders:
    @pytest.mark.parametrize("code_dim", [2, 3])
    def test_lockstep_matches_per_sound_loop(self, code_dim):
        corpus = tiny_corpus()
        sounds = sound_inventory(corpus)
        counts = corpus.sound_counts()
        assert len({counts[s] for s in sounds}) > 1  # several lockstep groups
        cfg = ppc_config(0.05, 3, seed=9, code_dim=code_dim)
        encoders, curves = train_all_encoders(corpus, cfg)
        assert list(encoders) == sounds and list(curves) == sounds
        for i, sound in enumerate(sounds):
            frames = list(corpus.frames[corpus.sound == corpus.sounds.index(sound)])
            net = init_network(encoder_spec(corpus.feature_dim, code_dim), cfg.ppc_seed + i)
            rng = np.random.default_rng(cfg.ppc_seed + i)
            mask = np.ones(corpus.feature_dim, dtype=bool)
            curve = []
            for _ in range(cfg.ppc_epochs):
                for j in rng.permutation(len(frames)):
                    acts = forward(net, frames[j])
                    grads = grads_from_activations(net, acts, frames[j], mask)
                    sgd_step(net, grads, cfg.ppc_learning_rate)
                curve.append(reconstruction_mse(net, frames))
            assert curves[sound] == curve
            trained = encoders[sound]
            for a, b in zip(trained.weights + trained.biases, net.weights + net.biases):
                assert np.array_equal(a, b)

    def test_diverging_encoder_raises(self):
        with np.errstate(all="ignore"):
            with pytest.raises(DataError, match="ppc training diverged at epoch"):
                train_all_encoders(tiny_corpus(), ppc_config(1e3, 5, 0))


class TestEncodeFrames:
    def test_equals_encode_frame_per_row(self):
        """Frames of mixed sounds, in corpus order, coded in one pass."""
        corpus = tiny_corpus()
        encoders = tiny_encoders(corpus)
        frames = corpus.rows(np.isin(corpus.sound, coded_ids(corpus, encoders)))
        codes = encode_frames(encoders, frames.sounds, frames.sound, frames.frames)
        assert codes.shape == (len(frames), 2)
        for k, features, code in zip(frames.sound, frames.frames, codes):
            assert np.array_equal(code, encode_frame(encoders[frames.sounds[k]], features))

    def test_single_frame(self):
        corpus = tiny_corpus()
        encoders = tiny_encoders(corpus)
        f = corpus.rows(slice(5, 6))
        codes = encode_frames(encoders, f.sounds, f.sound, f.frames)
        assert np.array_equal(codes[0], encode_frame(encoders[f.sounds[f.sound[0]]], f.frames[0]))

    def test_missing_encoder(self):
        corpus = tiny_corpus()
        encoders = tiny_encoders(corpus)
        f = corpus.rows(slice(0, 1))
        sound = f.sounds[f.sound[0]]
        with pytest.raises(StructuralError, match=str(sound)):
            encode_frames(without(encoders, sound), f.sounds, f.sound, f.frames)


class TestEncoderBank:
    def test_read_only(self):
        """A bank cannot lose or gain an encoder, so its stacks cannot go
        stale; a bank without one is built anew."""
        bank = tiny_encoders(tiny_corpus())
        with pytest.raises(TypeError):
            del bank[SOUND]
        with pytest.raises(TypeError):
            bank[SOUND] = bank[SOUND]
        smaller = without(bank, SOUND)
        assert SOUND in bank and SOUND not in smaller and len(smaller) == len(bank) - 1
        for sound, encoder in smaller.items():
            row = smaller.index[sound]
            assert np.array_equal(smaller.weights[row], encoder.weights[0])
            assert np.array_equal(smaller.biases[row], encoder.biases[0])

    def test_refuses_mixed_specs(self):
        bank = tiny_encoders(tiny_corpus())
        wide = init_network(encoder_spec(6, 3), 0)
        with pytest.raises(StructuralError, match="different specs"):
            EncoderBank({**bank, SoundId("zz", 0): wide})

    def test_load_encoders_stacks_equal_model_files(self, tmp_path):
        config = RunConfig(out_dir=str(tmp_path), n_speakers=4, n_words=3, states_per_phone=2,
                           frames_per_state=2, feature_dim=5, ppc_epochs=2)
        pipeline.run_gen(config)
        pipeline.run_train_ppc(config)
        bank = pipeline.load_encoders(config)
        assert len(bank) == len(bank.weights) == len(bank.biases) > 0
        for sound in bank:
            net = load_model(pipeline.ppc_model_path(config, sound))
            row = bank.index[sound]
            assert np.array_equal(bank.weights[row], net.weights[0])
            assert np.array_equal(bank.biases[row], net.biases[0])


class TestCodableFrames:
    def test_skips_frames_without_encoder_with_one_warning(self, caplog):
        corpus = tiny_corpus()
        encoders = without(tiny_encoders(corpus), SOUND)
        sets = [corpus.frames_of_speaker(s) for s in corpus.speakers]
        with caplog.at_level("WARNING", logger="svcnet.ppc"):
            kept = codable_frames(sets, encoders)
        n_skipped = int(np.sum(corpus.sound == corpus.sounds.index(SOUND)))
        assert n_skipped > 0
        for frames, codable in zip(sets, kept):
            keep = frames.sound != frames.sounds.index(SOUND)
            assert np.array_equal(codable.frames, frames.frames[keep])
            assert np.array_equal(codable.sound, frames.sound[keep])
        assert len(caplog.records) == 1
        assert f"skipping {n_skipped} frame(s)" in caplog.text and str(SOUND) in caplog.text

    def test_all_codable_is_silent(self, caplog):
        corpus = tiny_corpus()
        encoders = tiny_encoders(corpus)
        with caplog.at_level("WARNING", logger="svcnet.ppc"):
            kept = codable_frames([corpus], encoders)
        assert kept == [corpus] and not caplog.records

    def test_sets_of_two_sound_tables_are_refused(self):
        corpus = tiny_corpus()
        other = corpus.rows(corpus.sound > 0)
        other.sounds = other.sounds[1:]  # another corpus's table
        with pytest.raises(StructuralError, match="one sound table"):
            codable_frames([corpus, other], tiny_encoders(corpus))

    def test_no_codable_frame_names_speaker(self):
        corpus = tiny_corpus()
        frames = corpus.frames_of_speaker(corpus.speakers[1])
        with pytest.raises(DataError, match=f"speaker {corpus.speakers[1]} has no frame"):
            codable_frames([frames], EncoderBank({}))
        with pytest.raises(DataError):
            codable_frames([corpus.rows(slice(0, 0))], tiny_encoders(corpus))


def profile(frames, encoders):
    """A speaker's profile: the per-sound mean of the codes of its
    frames (svc.make_target of its coded stream), keyed by sound."""
    layout = SoundLayout.from_sounds(encoders, 2)
    stream = speaker_streams([frames], encoders)[0]
    target, mask = make_target(stream, layout)
    return {s: target[layout.slot_slice(s)] for s in layout.sounds if mask[layout.slot(s)]}


class TestSpeakerProfile:
    def test_heard_matches_frames(self):
        corpus = tiny_corpus()
        encoders = tiny_encoders(corpus)
        frames = corpus.frames_of_speaker(corpus.speakers[0])
        codes = profile(frames, encoders)
        assert set(codes) == {frames.sounds[k] for k in frames.sound}

    def test_single_sound_speaker(self):
        corpus = tiny_corpus()
        encoders = tiny_encoders(corpus)
        frames = rows_of(corpus, SOUND).rows(slice(0, 3))
        assert set(profile(frames, encoders)) == {SOUND}

    def test_codes_equal_brute_force_mean(self):
        corpus = tiny_corpus()
        encoders = tiny_encoders(corpus)
        frames = corpus.frames_of_speaker(corpus.speakers[1])
        for sound, code in profile(frames, encoders).items():
            codes = [
                encode_frame(encoders[sound], features)
                for features in rows_of(frames, sound).frames
            ]
            np.testing.assert_allclose(code, sum(codes) / len(codes), atol=1e-12)

    def test_permutation_invariant(self):
        corpus = tiny_corpus()
        encoders = tiny_encoders(corpus)
        frames = corpus.frames_of_speaker(corpus.speakers[2])
        p1 = profile(frames, encoders)
        backwards = copy.copy(frames)  # the same rows, last first
        for column in ("frames",) + LABELS:
            setattr(backwards, column, getattr(frames, column)[::-1])
        p2 = profile(backwards, encoders)
        assert set(p1) == set(p2)
        for sound in p1:
            np.testing.assert_allclose(p1[sound], p2[sound], atol=1e-9)

    def test_no_frames(self):
        corpus = tiny_corpus()
        with pytest.raises(DataError):
            profile(corpus.rows(slice(0, 0)), tiny_encoders(corpus))

    def test_missing_encoder(self):
        """A sound without an encoder has no slot in the layout."""
        corpus = tiny_corpus()
        encoders = tiny_encoders(corpus)
        frames = corpus.rows(slice(0, 2))
        stream = speaker_streams([frames], encoders)[0]
        layout = SoundLayout.from_sounds(set(encoders) - {frames.sounds[frames.sound[0]]}, 2)
        with pytest.raises(StructuralError):
            make_target(stream, layout)


class TestSoundInventory:
    def test_drops_scarce_sounds(self):
        corpus = tiny_corpus()
        counts = corpus.sound_counts()
        kept = sound_inventory(corpus, min_frames=2)
        assert all(counts[s] >= 2 for s in kept)
        assert kept == sorted(kept)

    def test_min_threshold_excludes(self):
        corpus = tiny_corpus()
        huge = max(corpus.sound_counts().values()) + 1
        assert sound_inventory(corpus, min_frames=huge) == []
