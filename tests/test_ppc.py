import numpy as np
import pytest

from svcnet.corpus import CorpusSpec, SoundId, generate_corpus
from svcnet.errors import DataError, StructuralError
from svcnet.nets import TrainConfig, forward, grads_from_activations, init_network, sgd_step
from svcnet.ppc import (
    average_ppcs,
    build_speaker_profile,
    encode_frame,
    encoder_spec,
    reconstruction_mse,
    sound_inventory,
    train_all_encoders,
    train_ppc_encoder,
)

SOUND = SoundId("p00", 0)


class TestEncoderSpec:
    def test_bottleneck_must_be_narrower(self):
        with pytest.raises(StructuralError):
            encoder_spec(4, 4)


class TestTrainEncoder:
    def test_zero_epochs_is_init(self):
        rng = np.random.default_rng(0)
        frames = [rng.normal(size=5) for _ in range(3)]
        cfg = TrainConfig(0.1, 0, seed=17)
        enc, curve = train_ppc_encoder(SOUND, frames, 2, cfg)
        ref = init_network(encoder_spec(5, 2), seed=17)
        for a, b in zip(enc.net.weights + enc.net.biases, ref.weights + ref.biases):
            assert np.array_equal(a, b)
        assert curve == []

    def test_empty_frames(self):
        with pytest.raises(DataError):
            train_ppc_encoder(SOUND, [], 2, TrainConfig(0.1, 1, 0))

    def test_single_repeated_frame_converges(self):
        frame = np.array([0.3, -0.6, 1.1, 0.0])
        frames = [frame] * 50
        enc, _ = train_ppc_encoder(SOUND, frames, 2, TrainConfig(0.05, 500, 1))
        assert reconstruction_mse(enc.net, frames) < 1e-3

    def test_separated_clusters_get_distinct_codes(self):
        rng = np.random.default_rng(2)
        a = [np.array([2.0, 2.0, 2.0, 2.0]) + 0.05 * rng.normal(size=4) for _ in range(30)]
        b = [np.array([-2.0, -2.0, -2.0, -2.0]) + 0.05 * rng.normal(size=4) for _ in range(30)]
        enc, _ = train_ppc_encoder(SOUND, a + b, 2, TrainConfig(0.05, 300, 2))
        code_a = np.mean([encode_frame(enc, f) for f in a], axis=0)
        code_b = np.mean([encode_frame(enc, f) for f in b], axis=0)
        assert np.abs(code_a - code_b).max() > 0.2

    def test_mse_never_worse_than_init(self):
        rng = np.random.default_rng(3)
        frames = [rng.normal(size=4) for _ in range(20)]
        enc, _ = train_ppc_encoder(SOUND, frames, 2, TrainConfig(0.02, 100, 3))
        init = init_network(encoder_spec(4, 2), seed=3)
        assert reconstruction_mse(enc.net, frames) <= reconstruction_mse(init, frames)


class TestEncodeFrame:
    def _encoder(self):
        rng = np.random.default_rng(4)
        frames = [rng.normal(size=4) for _ in range(10)]
        enc, _ = train_ppc_encoder(SOUND, frames, 2, TrainConfig(0.05, 20, 4))
        return enc, frames

    def test_deterministic_and_dimension(self):
        enc, frames = self._encoder()
        c1 = encode_frame(enc, frames[0])
        c2 = encode_frame(enc, frames[0])
        assert np.array_equal(c1, c2)
        assert c1.shape == (2,)

    def test_matches_independent_forward(self):
        enc, frames = self._encoder()
        acts = forward(enc.net, frames[1])
        assert np.array_equal(encode_frame(enc, frames[1]), acts[1])

    def test_sigmoid_range(self):
        enc, frames = self._encoder()
        for f in frames:
            c = encode_frame(enc, f)
            assert np.all(c > 0) and np.all(c < 1)


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

    def test_empty(self):
        with pytest.raises(DataError):
            average_ppcs([])


def tiny_corpus():
    spec = CorpusSpec(
        n_speakers=3, n_words=3, phones_per_word=2, states_per_phone=2,
        frames_per_state=2, noise_std=0.05, seed=7, feature_dim=5, latent_dim=2,
    )
    return generate_corpus(spec)[0]


def tiny_encoders(corpus):
    encoders, _ = train_all_encoders(corpus, 2, TrainConfig(0.05, 5, 0))
    return encoders


class TestTrainAllEncoders:
    def test_lockstep_matches_per_sound_loop(self):
        corpus = tiny_corpus()
        sounds = sound_inventory(corpus)
        counts = corpus.sound_counts()
        assert len({counts[s] for s in sounds}) > 1  # several lockstep groups
        cfg = TrainConfig(0.05, 3, seed=9)
        encoders, curves = train_all_encoders(corpus, 2, cfg)
        assert list(encoders) == sounds and list(curves) == sounds
        for i, sound in enumerate(sounds):
            frames = [f.features for f in corpus.frames if f.sound == sound]
            net = init_network(encoder_spec(corpus.feature_dim, 2), cfg.seed + i)
            rng = np.random.default_rng(cfg.seed + i)
            mask = np.ones(corpus.feature_dim, dtype=bool)
            curve = []
            for _ in range(cfg.epochs):
                for j in rng.permutation(len(frames)):
                    acts = forward(net, frames[j])
                    grads = grads_from_activations(net, acts, frames[j], mask)
                    sgd_step(net, grads, cfg.learning_rate)
                curve.append(reconstruction_mse(net, frames))
            assert curves[sound] == curve
            trained = encoders[sound].net
            for a, b in zip(trained.weights + trained.biases, net.weights + net.biases):
                assert np.array_equal(a, b)

    def test_diverging_encoder_raises(self):
        with np.errstate(all="ignore"):
            with pytest.raises(DataError, match="ppc training diverged at epoch"):
                train_all_encoders(tiny_corpus(), 2, TrainConfig(1e3, 5, 0))


class TestSpeakerProfile:
    def test_heard_matches_frames(self):
        corpus = tiny_corpus()
        encoders = tiny_encoders(corpus)
        speaker = corpus.speakers[0]
        frames = corpus.frames_of_speaker(speaker)
        profile = build_speaker_profile(speaker, frames, encoders)
        assert profile.heard == {f.sound for f in frames}
        assert set(profile.codes) == profile.heard

    def test_single_sound_speaker(self):
        corpus = tiny_corpus()
        encoders = tiny_encoders(corpus)
        frames = [f for f in corpus.frames if f.sound == SOUND][:3]
        profile = build_speaker_profile("x", frames, encoders)
        assert profile.heard == {SOUND}
        assert len(profile.codes) == 1

    def test_codes_equal_brute_force_mean(self):
        corpus = tiny_corpus()
        encoders = tiny_encoders(corpus)
        speaker = corpus.speakers[1]
        frames = corpus.frames_of_speaker(speaker)
        profile = build_speaker_profile(speaker, frames, encoders)
        for sound in profile.heard:
            codes = [
                encode_frame(encoders[sound], f.features)
                for f in frames
                if f.sound == sound
            ]
            np.testing.assert_allclose(
                profile.codes[sound], sum(codes) / len(codes), atol=1e-12
            )

    def test_permutation_invariant(self):
        corpus = tiny_corpus()
        encoders = tiny_encoders(corpus)
        speaker = corpus.speakers[2]
        frames = corpus.frames_of_speaker(speaker)
        p1 = build_speaker_profile(speaker, frames, encoders)
        p2 = build_speaker_profile(speaker, frames[::-1], encoders)
        for sound in p1.heard:
            np.testing.assert_allclose(p1.codes[sound], p2.codes[sound], atol=1e-9)

    def test_no_frames(self):
        with pytest.raises(DataError):
            build_speaker_profile("x", [], {})

    def test_missing_encoder(self):
        corpus = tiny_corpus()
        with pytest.raises(StructuralError):
            build_speaker_profile("x", corpus.frames[:2], {})


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
