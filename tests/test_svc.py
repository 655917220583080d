import os
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcnet import svc as svc_mod
from svcnet.config import RunConfig
from svcnet.corpus import SoundId, generate_corpus
from svcnet.errors import DataError, StructuralError
from svcnet.nets import forward, grads_from_activations, sgd_step
from svcnet.ppc import encode_frame, train_all_encoders
from svcnet.svc import (
    FEEDBACK,
    MODES,
    ZERO_FILL,
    Accumulator,
    SoundLayout,
    Stream,
    _running_means,
    build_svcnet,
    extract_svc,
    extract_svcs,
    final_svc,
    load_svcnet,
    make_target,
    save_svcnet,
    speaker_streams,
    svc_stability,
    train_svcnet,
)

SOUNDS = tuple(
    sorted(SoundId(f"p{i:02d}", s) for i in range(3) for s in range(2))
)
LAYOUT = SoundLayout(SOUNDS, code_dim=2)


def pairs(stream):
    """A Stream's (SoundId, code) presentations."""
    return [(stream.sounds[k], code) for k, code in zip(stream.sound, stream.codes)]


def part(stream, which):
    """The presentations `which` (a slice or index array) of a Stream."""
    return Stream(stream.sounds, stream.sound[which], stream.codes[which],
                  stream.utterance[which])


def with_nan_first_row(frames):
    """A copy of a feature array whose first row is NaN."""
    bad = frames.copy()
    bad[0] = np.nan
    return bad


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


def stream_of(presented, sounds=SOUNDS):
    """A Stream of (SoundId, code) presentations over a sound table, all
    of one utterance."""
    ids = np.array([sounds.index(sound) for sound, _ in presented], dtype=np.intp)
    codes = np.array([code for _, code in presented], dtype=float).reshape(-1, 2)
    return Stream(tuple(sounds), ids, codes, np.zeros_like(ids))


def brute_means(presented):
    """Per-sound means of (SoundId, code) presentations in their slots,
    zero elsewhere, and the heard mask; slot offsets computed apart from
    the layout, code_dim 2."""
    means, heard = np.zeros(LAYOUT.width), np.zeros(LAYOUT.width, dtype=bool)
    for sound in {sound for sound, _ in presented}:
        codes = [code for s, code in presented if s == sound]
        off = SOUNDS.index(sound) * 2
        means[off : off + 2] = sum(codes) / len(codes)
        heard[off : off + 2] = True
    return means, heard


class TestMakeTarget:
    def test_all_heard(self):
        stream = stream_of([(s, np.full(2, 0.3)) for s in SOUNDS * 2])
        target, mask = make_target(stream, LAYOUT)
        assert np.all(mask)
        assert np.all(target == 0.3)

    def test_unheard_masked_zero(self):
        stream = stream_of([(s, np.full(2, 0.5)) for s in SOUNDS[1:]])
        target, mask = make_target(stream, LAYOUT)
        sl = LAYOUT.slot_slice(SOUNDS[0])
        assert not mask[sl].any()
        assert np.all(target[sl] == 0)
        assert mask.sum() == LAYOUT.width - 2

    def test_slot_round_trip(self):
        rng = np.random.default_rng(0)
        codes = {s: rng.random(2) for s in SOUNDS}
        target, _ = make_target(stream_of(list(codes.items())), LAYOUT)
        for s in SOUNDS:
            off = SOUNDS.index(s) * 2  # independent slot-offset computation
            assert np.array_equal(target[off : off + 2], codes[s])

    def test_sound_missing_from_layout(self):
        zz = SoundId("zz", 0)
        with pytest.raises(StructuralError):
            make_target(stream_of([(zz, np.zeros(2))], SOUNDS + (zz,)), LAYOUT)

    def test_matches_brute_force_mean(self):
        """Each heard slot holds the sum of the sound's codes, in stream
        order, divided by their count."""
        rng = np.random.default_rng(5)
        presented = [(SOUNDS[k], rng.random(2)) for k in rng.integers(0, 4, 100)]
        presented += [(SOUNDS[4], np.zeros(2)), (SOUNDS[4], np.array([2.0, 4.0]))]
        target, mask = make_target(stream_of(presented), LAYOUT)
        means, heard = brute_means(presented)
        assert np.array_equal(mask, heard) and not mask[LAYOUT.slot_slice(SOUNDS[5])].any()
        assert np.array_equal(target, means)
        assert np.array_equal(target[LAYOUT.slot_slice(SOUNDS[4])], [1.0, 2.0])

    def test_empty_stream(self):
        with pytest.raises(DataError, match="empty stream"):
            make_target(stream_of([]), LAYOUT)


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

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, 5), st.integers(0, 100)), min_size=1, max_size=30),
            min_size=1,
            max_size=4,
        )
    )
    def test_running_mean_matches_brute_force(self, events):
        """The stacked running means of streams of unequal length equal,
        at every step of every stream, brute-force means and the inputs of
        one-speaker accumulators: a zero_fill one, and a feedback one whose
        last output lies under the heard slots; a stream that has ended
        keeps its last row. Odd streams index a second, reversed sound
        table, so the streams of one call share two tables."""
        presented = [
            [(SOUNDS[k], np.array([c / 100.0, 1.0 - c / 100.0])) for k, c in stream]
            for stream in events
        ]
        tables = (SOUNDS, SOUNDS[::-1])
        streams = [stream_of(p, tables[row % 2]) for row, p in enumerate(presented)]
        means, heard = _running_means(LAYOUT, streams)
        assert means.shape == heard.shape == (max(map(len, events)), len(events), LAYOUT.width)
        for row, stream in enumerate(presented):
            zero_fill, feedback = Accumulator(LAYOUT, ZERO_FILL), Accumulator(LAYOUT, FEEDBACK)
            for t, (sound, code) in enumerate(stream):
                brute, brute_heard = brute_means(stream[: t + 1])
                assert np.array_equal(means[t, row], brute)
                assert np.array_equal(heard[t, row], brute_heard)
                assert np.array_equal(zero_fill.observe(sound, code), means[t, row])
                last = np.sin(np.arange(LAYOUT.width) + t + 10 * row)
                feedback.commit_output(last)
                np.copyto(last, means[t, row], where=heard[t, row])
                assert np.array_equal(feedback.observe(sound, code), last)
                assert np.array_equal(zero_fill.mean(sound), brute[LAYOUT.slot_slice(sound)])
            assert (means[len(stream) :, row] == means[len(stream) - 1, row]).all()
            assert (heard[len(stream) :, row] == heard[len(stream) - 1, row]).all()


def tiny_setup(epochs=3, n_speakers=3):
    cfg = RunConfig(
        n_speakers=n_speakers, n_words=3, phones_per_word=2, states_per_phone=2,
        frames_per_state=2, noise_std=0.05, corpus_seed=5, feature_dim=5, latent_dim=2,
        ppc_dim=2, ppc_learning_rate=0.05, ppc_epochs=3, ppc_seed=0,
        svc_dim=2, svc_flank=4, svc_learning_rate=0.05, svc_epochs=epochs, svc_seed=11,
        accumulation_mode=FEEDBACK,
    )
    corpus, _ = generate_corpus(cfg)
    encoders, _ = train_all_encoders(corpus, cfg)
    layout = SoundLayout.from_sounds(encoders.keys(), 2)
    return corpus, encoders, layout, cfg


class TestTrainSvcnet:
    def test_update_count(self):
        corpus, encoders, layout, cfg = tiny_setup(epochs=2)
        _, metrics = train_svcnet(corpus, encoders, layout, cfg)
        assert metrics["presentations"] == 2 * len(corpus.frames)

    def test_matches_reference_loop(self):
        """Lockstep training equals a plain loop, in both modes: every
        sweep each speaker draws its utterance order from the one rng, in
        speaker order; at step t every speaker that has a t-th frame folds
        it into its own accumulator and backprops, and the summed
        gradients update the weights once. Each target is the running mean
        of a zero_fill accumulator fed the speaker's whole stream in
        temporal order. Speaker 0 lacks a word, so its stream ends early."""
        corpus, encoders, layout, cfg = tiny_setup(epochs=3)
        corpus = corpus.rows((corpus.speaker != 0) | (corpus.word != 0))
        targets, utterances = [], []
        for s in corpus.speakers:
            stream = speaker_streams([corpus.frames_of_speaker(s)], encoders)[0]
            ends = stream.word_ends()
            presented = pairs(stream)
            whole = Accumulator(layout, ZERO_FILL)
            target = [whole.observe(*pair) for pair in presented][-1]
            targets.append((target, whole.counts > 0))
            utterances.append([presented[a + 1 : b + 1] for a, b in zip([-1] + ends, ends)])
        for mode in MODES:
            trained, metrics = train_svcnet(corpus, encoders, layout,
                                            replace(cfg, accumulation_mode=mode))
            ref = build_svcnet(layout, 2, 4, cfg.svc_seed).net
            rng = np.random.default_rng(cfg.svc_seed)
            losses = []
            for _ in range(cfg.svc_epochs):
                seqs = [sum((utts[i] for i in rng.permutation(len(utts))), [])
                        for utts in utterances]
                accs = [Accumulator(layout, mode) for _ in seqs]
                loss = 0.0
                for t in range(max(map(len, seqs))):
                    total = ([np.zeros_like(w) for w in ref.weights],
                             [np.zeros_like(b) for b in ref.biases])
                    for seq, acc, (target, mask) in zip(seqs, accs, targets):
                        if t < len(seq):
                            acts = forward(ref, acc.observe(*seq[t]))
                            acc.commit_output(acts[-1])
                            loss += 0.5 * np.sum(np.where(mask, acts[-1] - target, 0.0) ** 2)
                            gw, gb = grads_from_activations(ref, acts, target, mask)
                            for g, part in zip(total[0] + total[1], gw + gb):
                                g += part
                    sgd_step(ref, total, cfg.svc_learning_rate)
                losses.append(loss / sum(map(len, seqs)))

            assert metrics["presentations"] == cfg.svc_epochs * len(corpus.frames)
            np.testing.assert_allclose(metrics["epoch_loss"], losses, rtol=1e-10)
            for a, b in zip(trained.net.weights + trained.net.biases, ref.weights + ref.biases):
                np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-13)

    def test_convergence_single_speaker(self):
        corpus, encoders, layout, cfg = tiny_setup(n_speakers=2)
        solo = corpus.restricted_to_speakers([corpus.speakers[0]])
        cfg = replace(cfg, svc_learning_rate=0.05, svc_epochs=150, svc_seed=3, svc_flank=6)
        svcnet, metrics = train_svcnet(solo, encoders, layout, cfg)
        assert metrics["epoch_loss"][-1] / layout.width * 2 < 0.01

    def test_masked_target_independence(self, monkeypatch):
        import svcnet.svc as svc_mod

        corpus, encoders, layout, cfg = tiny_setup()
        # drop one sound from every speaker so some slots stay masked
        victim = layout.sounds[0]
        reduced = corpus.rows(corpus.sound != corpus.sounds.index(victim))
        net1, _ = train_svcnet(reduced, encoders, layout, cfg)

        original = svc_mod.make_target

        def corrupted(stream, lay):
            target, mask = original(stream, lay)
            target[~mask] = 777.0  # garbage where no error may flow
            return target, mask

        monkeypatch.setattr(svc_mod, "make_target", corrupted)
        net2, _ = train_svcnet(reduced, encoders, layout, cfg)
        for a, b in zip(
            net1.net.weights + net1.net.biases, net2.net.weights + net2.net.biases
        ):
            assert np.array_equal(a, b)

    def test_deterministic_in_seed(self):
        corpus, encoders, layout, cfg = tiny_setup()
        n1, _ = train_svcnet(corpus, encoders, layout, cfg)
        n2, _ = train_svcnet(corpus, encoders, layout, cfg)
        for a, b in zip(n1.net.weights, n2.net.weights):
            assert np.array_equal(a, b)

    def test_empty_corpus(self):
        corpus, encoders, layout, cfg = tiny_setup()
        empty = corpus.restricted_to_speakers([])
        with pytest.raises(DataError):
            train_svcnet(empty, encoders, layout, cfg)
        corpus.speakers = ()  # frames but no speaker rows to train
        with pytest.raises(DataError):
            train_svcnet(corpus, encoders, layout, cfg)

    def test_non_finite_loss_stops_training(self):
        corpus, encoders, layout, cfg = tiny_setup()
        corpus.frames = with_nan_first_row(corpus.frames)
        with pytest.raises(DataError, match="svc training diverged at epoch 0"):
            train_svcnet(corpus, encoders, layout, cfg)


class TestExtract:
    def _trained(self):
        corpus, encoders, layout, cfg = tiny_setup()
        svcnet, _ = train_svcnet(corpus, encoders, layout, cfg)
        stream = speaker_streams([corpus.frames_of_speaker(corpus.speakers[0])], encoders)[0]
        return svcnet, stream, stream.word_ends()

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


def reference_trajectory(svcnet, stream, mode):
    """The accumulate/forward loop, one presentation at a time."""
    acc = Accumulator(svcnet.layout, mode)
    trajectory = []
    for sound, code in pairs(stream):
        acts = forward(svcnet.net, acc.observe(sound, code))
        trajectory.append(acts[svcnet.bottleneck_index].copy())
        acc.commit_output(acts[-1])
    return np.array(trajectory)


class TestBatchedExtract:
    """extract_svcs equals the per-presentation loop exactly, whatever
    streams run beside a stream and however long they are."""

    def _streams(self, flank_width=4):
        corpus, encoders, layout, cfg = tiny_setup()
        svcnet, _ = train_svcnet(corpus, encoders, layout, replace(cfg, svc_flank=flank_width))
        full = speaker_streams([corpus.frames_of_speaker(s) for s in corpus.speakers], encoders)
        return svcnet, full

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("flank_width", [0, 4])
    def test_equals_reference_loop(self, mode, flank_width):
        svcnet, full = self._streams(flank_width)
        batches = [
            [full[0]],
            [part(full[2], slice(1))],
            [full[0], part(full[1], slice(5)), part(full[2], slice(1))],
            [part(full[1], slice(None, None, -1)), part(full[0], slice(3, None)), full[2],
             part(full[0], [0, 1] * 3)],
        ]
        for streams in batches:
            trajs = extract_svcs(svcnet, streams, mode)
            assert len(trajs) == len(streams)
            for stream, traj in zip(streams, trajs):
                assert traj.shape == (len(stream), 2)
                assert np.array_equal(traj, reference_trajectory(svcnet, stream, mode))
                assert np.array_equal(extract_svc(svcnet, stream, mode), traj)

    def _mixed_streams(self):
        """Streams that hear every slot early (a whole speaker), never (one
        word), and at their final step (every frame of a speaker but one
        sound's, then one frame of that sound)."""
        svcnet, full = self._streams()
        held_back = full[2].sound == full[2].sound[0]
        late = np.concatenate([np.flatnonzero(~held_back), np.flatnonzero(held_back)[:1]])
        return svcnet, [full[0], part(full[1], slice(8)), part(full[2], late)]

    @staticmethod
    def last_open_step(svcnet, stream):
        """The last step after which the stream still has an unheard slot,
        or -1 when it hears every slot at its first step."""
        sounds = [sound for sound, _ in pairs(stream)]
        unheard = [set(svcnet.layout.sounds) - set(sounds[: t + 1]) for t in range(len(stream))]
        return max((t for t, u in enumerate(unheard) if u), default=-1)

    def test_feedback_cut_equals_reference_loop(self):
        svcnet, streams = self._mixed_streams()
        early, word, late = (self.last_open_step(svcnet, s) for s in streams)
        assert early < len(streams[0]) - 1 and word == len(streams[1]) - 1
        assert late == len(streams[2]) - 2 and late > max(early, word)
        for stream, traj in zip(streams, extract_svcs(svcnet, streams, FEEDBACK)):
            assert np.array_equal(traj, reference_trajectory(svcnet, stream, FEEDBACK))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("flank_width", [0, 4])
    def test_one_stream_alone_equals_it_in_a_batch(self, mode, flank_width):
        """One stream alone runs the loop on plain vectors, several run it on
        columns: each of a whole stream, a stream of length 1 and a stream
        that ends inside the feedback loop gives the reference trajectory
        both ways. With flank 0 the bottleneck is the first layer, so the
        first layer writes the trajectory."""
        svcnet, full = self._streams(flank_width)
        held_back = full[2].sound == full[2].sound[0]
        late = part(full[2], np.concatenate([np.flatnonzero(~held_back),
                                             np.flatnonzero(held_back)[:1]]))
        n_loop = self.last_open_step(svcnet, late) + 1
        cases = [full[0], part(full[1], slice(1)), part(full[1], slice(n_loop // 2))]
        assert 1 < len(cases[2]) < n_loop
        for stream in cases:
            alone = extract_svcs(svcnet, [stream], mode)[0]
            beside = extract_svcs(svcnet, [late, stream, full[0]], mode)[1]
            assert np.array_equal(alone, reference_trajectory(svcnet, stream, mode))
            assert np.array_equal(beside, alone)

    @pytest.mark.parametrize("svc_dim", [1, 2, 3])
    def test_final_svc_of_a_batched_trajectory(self, svc_dim):
        """A trajectory of a batch is a view of the time-major codes, not
        contiguous; its mean has the bits of the contiguous trajectory's."""
        corpus, encoders, layout, cfg = tiny_setup()
        svcnet, _ = train_svcnet(corpus, encoders, layout, replace(cfg, svc_dim=svc_dim))
        streams = speaker_streams([corpus.frames_of_speaker(s) for s in corpus.speakers],
                                  encoders)
        for mode in MODES:
            for stream, traj in zip(streams, extract_svcs(svcnet, streams, mode)):
                assert not traj.flags.c_contiguous
                code = final_svc(traj).tobytes()
                assert code == np.ascontiguousarray(traj).mean(axis=0).tobytes()
                assert code == final_svc(reference_trajectory(svcnet, stream, mode)).tobytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_lockstep_steps_stop_at_last_open_step(self, monkeypatch, mode):
        """Each step of the lockstep loop runs every layer's tanh once."""
        calls = []
        tanh = np.tanh

        def counting(*args, **kwargs):
            if sys._getframe(1).f_code is svc_mod._feedback_steps.__code__:
                calls.append(1)
            return tanh(*args, **kwargs)

        monkeypatch.setattr(np, "tanh", counting)
        svcnet, streams = self._mixed_streams()
        extract_svcs(svcnet, streams, mode)
        steps, left = divmod(len(calls), len(svcnet.net.weights))
        last = max(self.last_open_step(svcnet, s) for s in streams)
        assert left == 0
        assert steps == (last + 1 if mode == FEEDBACK else 0)

    @pytest.mark.parametrize("flank_width", [0, 4])
    def test_saturated_units_equal_reference_loop(self, flank_width):
        """With the weights scaled x80, units reach exactly 0.0 and 1.0
        (tanh at -1 and 1, where 2 sigmoid and its halving meet the edges of
        the float grid). The lockstep loop still gives the reference
        trajectory bit for bit, for one stream alone and three side by side."""
        svcnet, full = self._streams(flank_width)
        net = svcnet.net.copy()
        for w in net.weights:
            w *= 80.0
        loud = replace(svcnet, net=net)
        acc, edges = Accumulator(loud.layout, FEEDBACK), set()
        for sound, code in pairs(full[0]):
            acts = forward(loud.net, acc.observe(sound, code))
            units = np.concatenate(acts[1:])
            edges.update(units[(units == 0) | (units == 1)].tolist())
            acc.commit_output(acts[-1])
        assert edges == {0.0, 1.0}
        for streams in ([full[0]], [full[0], part(full[1], slice(5)), full[2]]):
            for stream, traj in zip(streams, extract_svcs(loud, streams, FEEDBACK)):
                assert np.array_equal(traj, reference_trajectory(loud, stream, FEEDBACK))

    @pytest.mark.parametrize("flank_width", [0, 4])
    def test_rows_after_the_loop_stop_at_the_bottleneck(self, flank_width):
        """NaN weights and biases in every layer past the bottleneck leave
        the zero_fill trajectories, and the feedback rows after the
        lockstep loop, byte-identical: no decoder output feeds those rows.
        The loop's rows read its output, so the NaNs reach them."""
        svcnet, full = self._streams(flank_width)
        streams = [full[0], part(full[1], slice(5)), part(full[2], slice(None, None, -1))]
        cut = replace(svcnet, net=svcnet.net.copy())
        for layer in range(svcnet.bottleneck_index, len(cut.net.weights)):
            cut.net.weights[layer][...] = np.nan
            cut.net.biases[layer][...] = np.nan
        for intact, decoder_free in zip(extract_svcs(svcnet, streams, ZERO_FILL),
                                        extract_svcs(cut, streams, ZERO_FILL)):
            assert np.array_equal(decoder_free, intact)
        n_loop = max(self.last_open_step(svcnet, s) for s in streams) + 1
        assert 1 < n_loop < max(len(s) for s in streams)
        trajs = list(zip(extract_svcs(svcnet, streams, FEEDBACK),
                         extract_svcs(cut, streams, FEEDBACK)))
        for intact, decoder_free in trajs:
            assert np.array_equal(decoder_free[n_loop:], intact[n_loop:])
        assert any(np.isnan(decoder_free[:n_loop]).any() for _, decoder_free in trajs)

    def test_empty_stream_among_others(self):
        svcnet, full = self._streams()
        with pytest.raises(DataError, match="empty stream"):
            extract_svcs(svcnet, [full[0], []])

    def test_unknown_mode(self):
        svcnet, full = self._streams()
        with pytest.raises(StructuralError):
            extract_svcs(svcnet, [full[0]], "bogus")

    def test_speaker_streams_equal_per_frame_encoding(self):
        corpus, encoders, _, _ = tiny_setup()
        rng = np.random.default_rng(8)
        sets = [corpus.frames_of_speaker(s) for s in corpus.speakers]
        some = np.zeros(len(sets[1]), dtype=bool)
        some[rng.permutation(len(sets[1]))[:7]] = True
        sets.append(sets[1].rows(some))
        for frames, stream in zip(sets, speaker_streams(sets, encoders)):
            utterances = [frames.utterances[u] for u in frames.utterance]
            ordered = sorted(range(len(frames)), key=lambda i: (utterances[i], frames.index[i]))
            assert [sound for sound, _ in pairs(stream)] == [
                frames.sounds[frames.sound[i]] for i in ordered
            ]
            for (sound, code), i in zip(pairs(stream), ordered):
                assert np.array_equal(code, encode_frame(encoders[sound], frames.frames[i]))
            ends = [k for k in range(len(ordered) - 1)
                    if utterances[ordered[k + 1]] != utterances[ordered[k]]]
            assert stream.word_ends() == ends + [len(ordered) - 1]


@pytest.mark.parametrize("mode", MODES)
def test_enrollment_equals_reference_loop(tmp_path, mode):
    """pipeline.speaker_svc with the models as loaded from their files
    equals, bit for bit, the per-presentation reference for every held-out
    speaker: each codable frame coded by its encoder alone, folded into an
    Accumulator and run through forward(), the bottleneck snapshots
    averaged."""
    from svcnet import pipeline
    from svcnet.config import RunConfig

    config = RunConfig(out_dir=str(tmp_path), n_speakers=6, n_words=4, states_per_phone=2,
                       frames_per_state=2, feature_dim=5, train_fraction=0.5, ppc_epochs=2,
                       svc_epochs=2, accumulation_mode=mode)
    pipeline.run_gen(config)
    pipeline.run_train_ppc(config)
    pipeline.run_train_svc(config)
    _, _, test = pipeline.load_split(config)
    encoders = pipeline.load_encoders(config)
    svcnet = pipeline.load_svcnet_artifact(config)
    for speaker in test.speakers:
        frames = test.frames_of_speaker(speaker)
        acc, snapshots = Accumulator(svcnet.layout, mode), []
        for sound, features in zip(frames.sound, frames.frames):
            sound = frames.sounds[sound]
            if sound in encoders:
                code = encode_frame(encoders[sound], features)
                acts = forward(svcnet.net, acc.observe(sound, code))
                snapshots.append(acts[svcnet.bottleneck_index])
                acc.commit_output(acts[-1])
        expected = np.mean(snapshots, axis=0)
        assert np.array_equal(pipeline.speaker_svc(config, svcnet, encoders, frames), expected)


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
        svcnet, _ = train_svcnet(corpus, encoders, layout, cfg)
        path = tmp_path / "svcnet.txt"
        save_svcnet(svcnet, path)
        assert os.listdir(tmp_path) == ["svcnet.txt"]
        head = path.read_text().splitlines()[0].split()
        assert head[:2] == ["svcnet-completion", "v2"]
        assert "bottleneck=2" in head and "code_dim=2" in head
        assert f"sounds={','.join(map(str, layout.sounds))}" in head
        loaded = load_svcnet(path)
        assert loaded.layout == svcnet.layout
        assert loaded.bottleneck_index == svcnet.bottleneck_index
        assert loaded.net.spec == svcnet.net.spec
        for a, b in zip(
            svcnet.net.weights + svcnet.net.biases, loaded.net.weights + loaded.net.biases
        ):
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
