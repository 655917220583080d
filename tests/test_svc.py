import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcnet.corpus import CorpusSpec, SoundId, generate_corpus
from svcnet.errors import DataError, StructuralError
from svcnet.nets import TrainConfig
from svcnet.ppc import SpeakerProfile, train_all_encoders
from svcnet.svc import (
    Accumulator,
    SoundLayout,
    build_svcnet,
    extract_svc,
    final_svc,
    load_svcnet,
    make_target,
    save_svcnet,
    speaker_stream,
    svc_stability,
    train_svcnet,
)

SOUNDS = tuple(
    sorted(SoundId(f"p{i:02d}", s) for i in range(3) for s in range(2))
)
LAYOUT = SoundLayout(SOUNDS, code_dim=2)


class TestLayout:
    def test_requires_sorted(self):
        with pytest.raises(StructuralError):
            SoundLayout(tuple(reversed(SOUNDS)), 2)

    def test_width(self):
        assert LAYOUT.width == 12

    def test_slots_tile_width(self):
        offsets = [LAYOUT.slot(s) for s in SOUNDS]
        assert len(set(offsets)) == len(SOUNDS)
        covered = set()
        for off in offsets:
            covered.update(range(off, off + 2))
        assert covered == set(range(LAYOUT.width))

    def test_unknown_sound(self):
        with pytest.raises(StructuralError):
            LAYOUT.slot(SoundId("zz", 0))


def profile_for(heard, value=0.5):
    codes = {s: np.full(2, value) for s in heard}
    return SpeakerProfile("spk", codes, set(heard))


class TestMakeTarget:
    def test_all_heard(self):
        profile = profile_for(SOUNDS, 0.3)
        target, mask = make_target(profile, LAYOUT)
        assert np.all(mask)
        assert np.all(target == 0.3)

    def test_unheard_masked_zero(self):
        heard = SOUNDS[1:]
        target, mask = make_target(profile_for(heard), LAYOUT)
        sl = LAYOUT.slot_slice(SOUNDS[0])
        assert not mask[sl].any()
        assert np.all(target[sl] == 0)
        assert mask.sum() == LAYOUT.width - 2

    def test_slot_round_trip(self):
        rng = np.random.default_rng(0)
        codes = {s: rng.random(2) for s in SOUNDS}
        profile = SpeakerProfile("spk", codes, set(SOUNDS))
        target, _ = make_target(profile, LAYOUT)
        for s in SOUNDS:
            off = SOUNDS.index(s) * 2  # independent slot-offset computation
            assert np.array_equal(target[off : off + 2], codes[s])

    def test_sound_missing_from_layout(self):
        profile = profile_for([SoundId("zz", 0)])
        with pytest.raises(StructuralError):
            make_target(profile, LAYOUT)


class TestAccumulator:
    def test_first_observation_is_code(self):
        acc = Accumulator(LAYOUT, "zero_fill")
        c = np.array([0.2, 0.9])
        x = acc.observe(SOUNDS[0], c)
        assert np.array_equal(x[LAYOUT.slot_slice(SOUNDS[0])], c)

    def test_second_observation_averages(self):
        acc = Accumulator(LAYOUT, "zero_fill")
        acc.observe(SOUNDS[0], np.array([0.2, 0.4]))
        x = acc.observe(SOUNDS[0], np.array([0.4, 0.8]))
        np.testing.assert_allclose(
            x[LAYOUT.slot_slice(SOUNDS[0])], [0.3, 0.6], atol=1e-15
        )

    def test_zero_fill_unheard_exactly_zero(self):
        acc = Accumulator(LAYOUT, "zero_fill")
        x = acc.observe(SOUNDS[0], np.array([0.5, 0.5]))
        for s in SOUNDS[1:]:
            assert np.all(x[LAYOUT.slot_slice(s)] == 0.0)

    def test_feedback_zero_before_first_forward(self):
        acc = Accumulator(LAYOUT, "feedback")
        x = acc.observe(SOUNDS[0], np.array([0.5, 0.5]))
        for s in SOUNDS[1:]:
            assert np.all(x[LAYOUT.slot_slice(s)] == 0.0)

    def test_feedback_uses_cached_output(self):
        acc = Accumulator(LAYOUT, "feedback")
        acc.observe(SOUNDS[0], np.array([0.5, 0.5]))
        cached = np.arange(LAYOUT.width, dtype=float) / LAYOUT.width
        acc.commit_output(cached)
        x = acc.observe(SOUNDS[1], np.array([0.1, 0.1]))
        for s in SOUNDS[2:]:
            sl = LAYOUT.slot_slice(s)
            assert np.array_equal(x[sl], cached[sl])
        # heard slots still come from the running means
        assert np.array_equal(x[LAYOUT.slot_slice(SOUNDS[0])], [0.5, 0.5])

    def test_unknown_sound(self):
        acc = Accumulator(LAYOUT, "zero_fill")
        with pytest.raises(StructuralError):
            acc.observe(SoundId("zz", 0), np.zeros(2))

    def test_unknown_mode(self):
        with pytest.raises(StructuralError):
            Accumulator(LAYOUT, "magic")

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(("zero_fill", "feedback")),
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 100), st.booleans()),
            min_size=1,
            max_size=60,
        ),
    )
    def test_running_mean_matches_brute_force(self, mode, events):
        acc = Accumulator(LAYOUT, mode)
        seen = {}
        last_output = None
        for step, (sound_i, code_i, commit) in enumerate(events):
            sound = SOUNDS[sound_i]
            code = np.array([code_i / 100.0, 1.0 - code_i / 100.0])
            x = acc.observe(sound, code)
            seen.setdefault(sound, []).append(code)
            if mode == "feedback" and last_output is not None:
                brute = last_output.copy()
            else:
                brute = np.zeros(LAYOUT.width)
            for s, codes in seen.items():
                mean = sum(codes) / len(codes)
                off = SOUNDS.index(s) * 2  # independent slot-offset computation
                brute[off : off + 2] = mean
                assert np.array_equal(acc.mean(s), mean)
            assert np.array_equal(x, brute)
            if commit:
                last_output = np.sin(np.arange(LAYOUT.width) + step)
                acc.commit_output(last_output)


def tiny_setup(epochs=3, n_speakers=3):
    spec = CorpusSpec(
        n_speakers=n_speakers, n_words=3, phones_per_word=2, states_per_phone=2,
        frames_per_state=2, noise_std=0.05, seed=5, feature_dim=5, latent_dim=2,
    )
    corpus, _ = generate_corpus(spec)
    encoders, _ = train_all_encoders(corpus, 2, TrainConfig(0.05, 3, 0))
    layout = SoundLayout.from_sounds(encoders.keys(), 2)
    cfg = TrainConfig(0.05, epochs, seed=11)
    return corpus, encoders, layout, cfg


class TestTrainSvcnet:
    def test_update_count(self):
        corpus, encoders, layout, cfg = tiny_setup(epochs=2)
        _, metrics = train_svcnet(corpus, encoders, layout, 2, cfg)
        assert metrics["presentations"] == 2 * len(corpus.frames)

    def test_convergence_single_speaker(self):
        corpus, encoders, layout, _ = tiny_setup(n_speakers=2)
        solo = corpus.restricted_to_speakers([corpus.speakers[0]])
        cfg = TrainConfig(0.05, 150, seed=3)
        svcnet, metrics = train_svcnet(solo, encoders, layout, 2, cfg, flank_width=6)
        assert metrics["epoch_loss"][-1] / layout.width * 2 < 0.01

    def test_masked_target_independence(self, monkeypatch):
        import svcnet.svc as svc_mod

        corpus, encoders, layout, cfg = tiny_setup()
        # drop one sound from every speaker so some slots stay masked
        victim = layout.sounds[0]
        reduced = corpus.restricted_to_speakers(corpus.speakers)
        reduced.frames = [f for f in reduced.frames if f.sound != victim]
        net1, _ = train_svcnet(reduced, encoders, layout, 2, cfg)

        original = svc_mod.make_target

        def corrupted(profile, lay):
            target, mask = original(profile, lay)
            target[~mask] = 777.0  # garbage where no error may flow
            return target, mask

        monkeypatch.setattr(svc_mod, "make_target", corrupted)
        net2, _ = train_svcnet(reduced, encoders, layout, 2, cfg)
        for a, b in zip(
            net1.net.weights + net1.net.biases, net2.net.weights + net2.net.biases
        ):
            assert np.array_equal(a, b)

    def test_deterministic_in_seed(self):
        corpus, encoders, layout, cfg = tiny_setup()
        n1, _ = train_svcnet(corpus, encoders, layout, 2, cfg)
        n2, _ = train_svcnet(corpus, encoders, layout, 2, cfg)
        for a, b in zip(n1.net.weights, n2.net.weights):
            assert np.array_equal(a, b)

    def test_empty_corpus(self):
        corpus, encoders, layout, cfg = tiny_setup()
        empty = corpus.restricted_to_speakers([])
        with pytest.raises(DataError):
            train_svcnet(empty, encoders, layout, 2, cfg)

    def test_non_finite_loss_stops_training(self):
        corpus, encoders, layout, cfg = tiny_setup()
        corpus.frames[0].features = np.full(corpus.feature_dim, np.nan)
        with pytest.raises(DataError, match="svc training diverged at epoch 0"):
            train_svcnet(corpus, encoders, layout, 2, cfg)


class TestExtract:
    def _trained(self):
        corpus, encoders, layout, cfg = tiny_setup()
        svcnet, _ = train_svcnet(corpus, encoders, layout, 2, cfg)
        stream, bounds = speaker_stream(
            corpus.frames_of_speaker(corpus.speakers[0]), encoders
        )
        return svcnet, stream, bounds

    def test_trajectory_shape(self):
        svcnet, stream, _ = self._trained()
        traj = extract_svc(svcnet, stream)
        assert traj.shape == (len(stream), 2)

    def test_deterministic(self):
        svcnet, stream, _ = self._trained()
        t1 = extract_svc(svcnet, stream)
        t2 = extract_svc(svcnet, stream)
        assert np.array_equal(t1, t2)

    def test_no_parameter_mutation(self):
        svcnet, stream, _ = self._trained()
        before = [w.copy() for w in svcnet.net.weights + svcnet.net.biases]
        extract_svc(svcnet, stream)
        after = svcnet.net.weights + svcnet.net.biases
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_empty_stream(self):
        svcnet, _, _ = self._trained()
        with pytest.raises(DataError):
            extract_svc(svcnet, [])

    def test_word_boundaries_at_utterance_ends(self):
        svcnet, stream, bounds = self._trained()
        assert bounds[-1] == len(stream) - 1
        assert bounds == sorted(bounds)


class TestStability:
    def test_constant_trajectory(self):
        traj = np.tile([0.5, 0.5], (10, 1))
        assert svc_stability(traj, [2, 5, 9]) == [0.0, 0.0]

    def test_two_word_ends(self):
        traj = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert svc_stability(traj, [0, 1]) == [5.0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        traj = rng.random((20, 2))
        bounds = [3, 7, 12, 19]
        disps = svc_stability(traj, bounds)
        for k in range(len(bounds) - 1):
            expected = float(
                np.sqrt(((traj[bounds[k + 1]] - traj[bounds[k]]) ** 2).sum())
            )
            assert disps[k] == pytest.approx(expected)

    def test_out_of_range_boundary(self):
        with pytest.raises(DataError):
            svc_stability(np.zeros((3, 2)), [5])


class TestFinalSvc:
    def test_single_point(self):
        assert np.array_equal(final_svc(np.array([[0.1, 0.9]])), [0.1, 0.9])

    def test_two_points(self):
        out = final_svc(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert np.array_equal(out, [0.5, 0.5])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        traj = rng.random((50, 2))
        brute = sum(traj) / len(traj)
        np.testing.assert_allclose(final_svc(traj), brute, atol=1e-12)

    def test_empty(self):
        with pytest.raises(DataError):
            final_svc(np.zeros((0, 2)))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        corpus, encoders, layout, cfg = tiny_setup()
        svcnet, _ = train_svcnet(corpus, encoders, layout, 2, cfg)
        mp, lp = tmp_path / "svcnet.txt", tmp_path / "svcnet.layout"
        save_svcnet(svcnet, mp, lp)
        loaded = load_svcnet(mp, lp)
        assert loaded.layout == svcnet.layout
        assert loaded.bottleneck_index == svcnet.bottleneck_index
        for a, b in zip(svcnet.net.weights, loaded.net.weights):
            assert np.array_equal(a, b)


class TestBuildSvcnet:
    def test_default_shape(self):
        net = build_svcnet(LAYOUT, 2, 4, seed=0)
        assert net.net.spec.sizes == (12, 4, 2, 4, 12)
        assert net.bottleneck_index == 2

    def test_no_flank(self):
        net = build_svcnet(LAYOUT, 2, 0, seed=0)
        assert net.net.spec.sizes == (12, 2, 12)
        assert net.bottleneck_index == 1

    def test_svc_dim_too_wide(self):
        with pytest.raises(StructuralError):
            build_svcnet(LAYOUT, 12, 4, seed=0)
