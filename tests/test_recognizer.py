import random

import numpy as np
import pytest

from svcnet.config import RunConfig
from svcnet import recognizer as rec_mod
from svcnet.corpus import Corpus, SoundId, generate_corpus, load_corpus, save_corpus
from svcnet.errors import DataError, StructuralError
from svcnet.nets import Step, flat_views, forward, sigmoid
from svcnet.recognizer import (
    BATCH_FRAMES,
    SVC_HIDDEN_WIDTH,
    SPEAKERS_PER_BLOCK,
    AvailabilityFlags,
    ablation_eval,
    compute_average_svc,
    flag_grid,
    forward_frame,
    frame_gradients,
    init_recognizer,
    load_recognizer,
    recognize,
    recognize_corpus,
    recognizer_spec,
    save_recognizer,
    svc_hidden,
    train_recognizer,
    window_frames,
)

WORDS = ("w00", "w01", "w02")


def small_config(**kw):
    defaults = dict(svc_dim=2, rec_acoustic_units=6, rec_state_units=5, rec_window=0,
                    rec_learning_rate=0.2, rec_epochs=10, rec_seed=3)
    defaults.update(kw)
    return RunConfig(**defaults)


class TestStructure:
    def test_parameter_count_formula(self):
        cfg = small_config()
        net = init_recognizer(WORDS, feature_dim=4, config=cfg)
        a, s, o, f, d, h = 6, 5, 3, 4, 2, SVC_HIDDEN_WIDTH
        expected = (
            h * d + h            # side path
            + a * f + a + a * h  # acoustic level + injection
            + s * a + s + s * h  # state level + injection
            + o * s + o + o * h  # word level + injection
        )
        assert sum(p.size for p in net.param_arrays()) == expected

    def test_injection_matrices_are_dense_two_wide(self):
        net = init_recognizer(WORDS, 4, small_config())
        u_acoustic, u_state, u_word = net.net.injections
        assert u_acoustic.shape == (6, 2)
        assert u_state.shape == (5, 2)
        assert u_word.shape == (3, 2)

    @pytest.mark.parametrize("window", [0, 1])
    def test_forward_frame_is_nets_forward(self, window):
        """The recognizer's per-frame reference, with one code at every
        level, is nets.forward of its net, bit for bit."""
        rng = np.random.default_rng(6 + window)
        net = init_recognizer(WORDS, 4, small_config(rec_window=window))
        for p in net.param_arrays():
            p[...] = rng.normal(0, 1, p.shape)
        for _ in range(5):
            x, code = rng.normal(size=net.input_dim), rng.random(2)
            h = svc_hidden(net, code)
            acts = forward_frame(net, x, h, h, h)
            for a, b in zip(acts, forward(net.net, x, code)[1:], strict=True):
                assert np.array_equal(a, b)

    def test_flag_grid_order(self):
        grid = flag_grid()
        assert len(grid) == 8
        assert grid[0] == AvailabilityFlags(False, False, False)
        assert grid[-1] == AvailabilityFlags(True, True, True)
        assert grid[1] == AvailabilityFlags(False, False, True)
        assert grid[4] == AvailabilityFlags(True, False, False)


class TestGradients:
    def test_matches_textbook_formulas(self):
        # the allocating np.outer formulation, in nets.Step's association
        # order: each derivative f'(a) = (1 - a) * a is formed first
        rng = np.random.default_rng(4)
        net = init_recognizer(WORDS, 4, small_config(rec_seed=2))
        (w_svc, b_svc, w_acoustic, b_acoustic, u_acoustic, w_state, b_state, u_state,
         w_word, b_word, u_word) = net.param_arrays()
        for _ in range(10):
            x, svc = rng.normal(size=4), rng.random(2)
            target = np.eye(3)[rng.integers(3)]
            h = svc_hidden(net, svc)
            a, s, y = forward_frame(net, x, h, h, h)
            dy = (y - target) * ((1.0 - y) * y)
            ds = (w_word.T @ dy) * ((1.0 - s) * s)
            da = (w_state.T @ ds) * ((1.0 - a) * a)
            dh = (
                u_acoustic.T @ da + u_state.T @ ds + u_word.T @ dy
            ) * ((1.0 - h) * h)
            expected = [
                np.outer(dh, svc), dh,
                np.outer(da, x), da, np.outer(da, h),
                np.outer(ds, a), ds, np.outer(ds, h),
                np.outer(dy, s), dy, np.outer(dy, h),
            ]
            grads, _ = frame_gradients(net, x, svc, target)
            for g, e in zip(grads, expected):
                assert np.array_equal(g, e)

    def test_batch_matches_summed_textbook_gradients(self):
        """nets.Step's gradients of the recognizer on 5 rows against the
        sum of the per-frame np.outer gradients. The step forms each weight
        gradient as one matrix product over the batch, which adds the
        frames' terms in the BLAS kernel's order, so the two agree to
        rounding, not bit for bit."""
        rng = np.random.default_rng(7)
        net = init_recognizer(WORDS, 4, small_config(rec_seed=7))
        for p in net.param_arrays():
            p[...] = rng.normal(0, 1, p.shape)
        rows = (rng.normal(size=(5, 4)), rng.random((5, 2)), np.eye(3)[rng.integers(3, size=5)])
        (w_svc, b_svc, w_acoustic, b_acoustic, u_acoustic, w_state, b_state, u_state,
         w_word, b_word, u_word) = net.param_arrays()
        step = Step([net.net.copy()], 5, 0.1)
        step.gradients(rows[0], rows[2], code=rows[1])
        expected = [np.zeros_like(p) for p in net.param_arrays()]
        for x, svc, target in zip(*rows):
            h = svc_hidden(net, svc)
            a, s, y = forward_frame(net, x, h, h, h)
            dy = (y - target) * ((1.0 - y) * y)
            ds = (w_word.T @ dy) * ((1.0 - s) * s)
            da = (w_state.T @ ds) * ((1.0 - a) * a)
            dh = (
                u_acoustic.T @ da + u_state.T @ ds + u_word.T @ dy
            ) * ((1.0 - h) * h)
            frame = [
                np.outer(dh, svc), dh,
                np.outer(da, x), da, np.outer(da, h),
                np.outer(ds, a), ds, np.outer(ds, h),
                np.outer(dy, s), dy, np.outer(dy, h),
            ]
            for e, f in zip(expected, frame):
                e += f
        grads = flat_views(step.grad, [p.shape for p in net.param_arrays()])
        for g, e in zip(grads, expected):
            np.testing.assert_allclose(g, e, rtol=1e-12, atol=1e-15)

    def test_frame_gradients_leave_the_net_alone(self):
        net = init_recognizer(WORDS, 4, small_config())
        params = net.param_arrays()
        frame_gradients(net, np.ones(4), np.ones(2), np.array([1.0, 0, 0]))
        assert all(p is q for p, q in zip(net.param_arrays(), params))

    def test_loss_is_pre_update(self):
        net = init_recognizer(WORDS, 4, small_config())
        x, svc, target = np.zeros(4), np.zeros(2), np.array([1.0, 0, 0])
        _, loss = frame_gradients(net, x, svc, target)
        h = svc_hidden(net, svc)
        d = forward_frame(net, x, h, h, h)[2] - target
        assert loss == pytest.approx(0.5 * float(d @ d))


def tiny_corpus():
    config = RunConfig(
        n_speakers=4, n_words=4, phones_per_word=2, states_per_phone=2,
        frames_per_state=2, noise_std=0.02, corpus_seed=13, feature_dim=6, latent_dim=2,
    )
    return generate_corpus(config)[0]


def speaker_of(frames):
    return frames.speakers[frames.speaker[0]]


def word_of(frames):
    return frames.words[frames.word[0]]


def tiny_svcs(corpus):
    rng = np.random.default_rng(21)
    return {s: rng.random(2) for s in corpus.speakers}


class TestTraining:
    def test_deterministic(self):
        corpus = tiny_corpus()
        svcs = tiny_svcs(corpus)
        n1, _ = train_recognizer(corpus, svcs, small_config(rec_epochs=2))
        n2, _ = train_recognizer(corpus, svcs, small_config(rec_epochs=2))
        for a, b in zip(n1.param_arrays(), n2.param_arrays()):
            assert np.array_equal(a, b)

    def test_training_error_reaches_zero_on_separable_words(self):
        corpus = tiny_corpus()
        svcs = tiny_svcs(corpus)
        cfg = small_config(rec_acoustic_units=12, rec_state_units=8, rec_epochs=60,
                           rec_learning_rate=0.3)
        net, metrics = train_recognizer(corpus, svcs, cfg)
        avg = compute_average_svc(list(svcs.values()))
        flags = AvailabilityFlags.all_on()
        errors = 0
        for utt, frames in corpus.by_utterance().items():
            label, _ = recognize(net, list(frames.frames), svcs[speaker_of(frames)], flags, avg)
            errors += label != word_of(frames)
        assert errors == 0
        assert metrics["epoch_loss"][-1] < metrics["epoch_loss"][0]

    @pytest.mark.parametrize("window", [0, 1])
    def test_matches_mini_batch_reference_loop(self, window):
        """Textbook batched formulas, allocating, on the same permutation,
        BATCH_FRAMES slices and summed updates, with nets.Step's derivative
        order (1 - a) * a. 72 frames, so every epoch ends on a batch of 8,
        which the step runs as 16 rows with 8 inactive. The reference forms
        the same products in the same order, so the parameters are equal
        bit for bit; the epoch loss is summed frame by frame here and batch
        by batch in the step, so the two agree to rounding."""
        config = RunConfig(
            n_speakers=3, n_words=3, phones_per_word=2, states_per_phone=2,
            frames_per_state=2, noise_std=0.02, corpus_seed=13, feature_dim=6, latent_dim=2,
        )
        corpus = generate_corpus(config)[0]
        assert len(corpus.frames) % BATCH_FRAMES == 8
        svcs = tiny_svcs(corpus)
        cfg = small_config(rec_epochs=3, rec_window=window)
        net, metrics = train_recognizer(corpus, svcs, cfg)

        ref = init_recognizer(corpus.words, corpus.feature_dim, cfg)
        (w_svc, b_svc, w_acoustic, b_acoustic, u_acoustic, w_state, b_state, u_state,
         w_word, b_word, u_word) = ref.param_arrays()
        inputs = window_frames(corpus.frames, window, corpus.utterance_bounds())
        codes = np.array([svcs[corpus.speakers[k]] for k in corpus.speaker])
        targets = np.eye(len(corpus.words))[corpus.word]
        rng = np.random.default_rng(cfg.rec_seed)
        losses = []
        for _ in range(cfg.rec_epochs):
            order = rng.permutation(len(inputs))
            total = 0.0
            for start in range(0, len(order), BATCH_FRAMES):
                rows = order[start : start + BATCH_FRAMES]
                x, c, t = inputs[rows], codes[rows], targets[rows]
                h = sigmoid(c @ w_svc.T + b_svc)
                a = sigmoid(x @ w_acoustic.T + b_acoustic + h @ u_acoustic.T)
                s = sigmoid(a @ w_state.T + b_state + h @ u_state.T)
                y = sigmoid(s @ w_word.T + b_word + h @ u_word.T)
                dy = (y - t) * ((1.0 - y) * y)
                ds = (dy @ w_word) * ((1.0 - s) * s)
                da = (ds @ w_state) * ((1.0 - a) * a)
                dh = (da @ u_acoustic + ds @ u_state + dy @ u_word) * ((1.0 - h) * h)
                grads = [
                    dh.T @ c, dh.sum(axis=0),
                    da.T @ x, da.sum(axis=0), da.T @ h,
                    ds.T @ a, ds.sum(axis=0), ds.T @ h,
                    dy.T @ s, dy.sum(axis=0), dy.T @ h,
                ]
                for d in y - t:
                    total += 0.5 * float(d @ d)
                for p, g in zip(ref.param_arrays(), grads):
                    p -= cfg.rec_learning_rate * g
            losses.append(total / len(order))
        assert metrics["epoch_loss"] == pytest.approx(losses, rel=1e-12)
        assert metrics["presentations"] == 3 * 72
        assert metrics["batches"] == 3 * 5
        for a, b in zip(net.param_arrays(), ref.param_arrays()):
            assert np.array_equal(a, b)

    def test_non_finite_loss_stops_training(self):
        corpus = tiny_corpus()
        nan_first = corpus.frames.copy()
        nan_first[0] = np.nan
        corpus.frames = nan_first
        with pytest.raises(DataError, match="recognizer training diverged at epoch 0"):
            train_recognizer(corpus, tiny_svcs(corpus), small_config(rec_epochs=2))

    def test_missing_svc(self):
        corpus = tiny_corpus()
        with pytest.raises(DataError):
            train_recognizer(corpus, {}, small_config())

    def test_ragged_codes(self):
        corpus = tiny_corpus()
        svcs = tiny_svcs(corpus)
        svcs[corpus.speakers[1]] = np.ones(3)
        with pytest.raises(DataError, match=f"speaker {corpus.speakers[1]}: .* length 2"):
            train_recognizer(corpus, svcs, small_config())

    def test_codes_of_the_wrong_length(self):
        corpus = tiny_corpus()
        svcs = {s: np.ones(3) for s in corpus.speakers}
        with pytest.raises(DataError, match=f"speaker {corpus.speakers[0]}: .* length 2"):
            train_recognizer(corpus, svcs, small_config())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_code(self, bad):
        corpus = tiny_corpus()
        svcs = tiny_svcs(corpus)
        svcs[corpus.speakers[2]] = np.array([0.5, bad])
        with pytest.raises(DataError, match=f"speaker {corpus.speakers[2]}: .* finite"):
            train_recognizer(corpus, svcs, small_config())


class TestRecognize:
    def _net(self):
        corpus = tiny_corpus()
        svcs = tiny_svcs(corpus)
        net, _ = train_recognizer(corpus, svcs, small_config(rec_epochs=3))
        return net, corpus, svcs

    def test_substitution_identity(self):
        net, corpus, svcs = self._net()
        frames = list(corpus.frames[:6])
        avg = np.array([0.4, 0.6])
        outputs = [
            recognize(net, frames, avg, flags, avg) for flags in flag_grid()
        ]
        for label, scores in outputs[1:]:
            assert label == outputs[0][0]
            assert np.array_equal(scores, outputs[0][1])

    def test_single_frame_scores(self):
        net, corpus, svcs = self._net()
        features = corpus.frames[0]
        svc = svcs[corpus.speakers[corpus.speaker[0]]]
        avg = np.zeros(2)
        flags = AvailabilityFlags.all_on()
        _, scores = recognize(net, [features], svc, flags, avg)
        h = svc_hidden(net, svc)
        _, _, y = forward_frame(net, features, h, h, h)
        assert np.array_equal(scores, y)

    def test_scores_match_independent_forward(self):
        net, corpus, svcs = self._net()
        frames = list(corpus.frames[:5])
        svc, avg = np.array([0.2, 0.8]), np.array([0.5, 0.5])
        flags = AvailabilityFlags(True, False, True)
        _, scores = recognize(net, frames, svc, flags, avg)
        h_t, h_a = svc_hidden(net, svc), svc_hidden(net, avg)
        expected = np.zeros(len(net.words))
        for x in frames:
            _, _, y = forward_frame(net, x, h_t, h_a, h_t)
            expected += y
        expected /= len(frames)
        np.testing.assert_allclose(scores, expected, atol=1e-15)

    def test_pure(self):
        net, corpus, svcs = self._net()
        frames = list(corpus.frames[:4])
        args = (frames, np.array([0.3, 0.3]), AvailabilityFlags.all_on(), np.zeros(2))
        r1 = recognize(net, *args)
        r2 = recognize(net, *args)
        assert r1[0] == r2[0] and np.array_equal(r1[1], r2[1])

    def test_empty_utterance(self):
        net, _, _ = self._net()
        with pytest.raises(DataError):
            recognize(net, [], np.zeros(2), AvailabilityFlags.all_on(), np.zeros(2))


def random_corpus(rng, lengths, dim=6):
    """A Corpus of normal random frames: speaker s has one utterance per
    entry of lengths[s], of that many frames, each of a random word."""
    speaker, utterance, word, index, names = [], [], [], [], []
    for s, utterance_lengths in enumerate(lengths):
        for n in utterance_lengths:
            speaker += [s] * n
            utterance += [len(names)] * n
            word += [int(rng.integers(len(WORDS)))] * n
            index += range(n)
            names.append(f"u{len(names):02d}")
    return Corpus(
        rng.normal(0, 1, (len(speaker), dim)),
        dict(speaker=speaker, utterance=utterance, word=word, sound=[0] * len(speaker),
             index=index),
        speakers=[f"s{s}" for s in range(len(lengths))], utterances=names, words=WORDS,
        phones=("p0",), sounds=(SoundId("p0", 0),), states_per_phone=1,
    )


def random_net(rng, window):
    net = init_recognizer(WORDS, 6, small_config(rec_window=window))
    for p in net.param_arrays():
        p[...] = rng.normal(0, 1, p.shape)
    return net


class TestBatchedRecognizer:
    @pytest.mark.parametrize("window", [0, 2])
    def test_equals_per_frame_loop(self, window):
        """All 8 flag settings, three speakers with utterances of unequal
        length (one of a single frame), random biases and codes: every
        utterance scores as recognize's per-frame loop scores it with
        its speaker's code, exactly."""
        rng = np.random.default_rng(window)
        net = random_net(rng, window)
        corpus = random_corpus(rng, [(5, 1), (9,), (2, 4, 3)])
        svcs = {s: rng.random(2) for s in corpus.speakers}
        avg = rng.random(2)
        grid = flag_grid()
        scores = recognize_corpus(net, corpus, svcs, grid, avg)
        bounds = corpus.utterance_bounds()
        assert scores.shape == (8, 6, len(WORDS))
        for k, flags in enumerate(grid):
            for u, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                svc = svcs[corpus.speakers[corpus.speaker[lo]]]
                label, expected = recognize(net, corpus.frames[lo:hi], svc, flags, avg)
                assert np.array_equal(scores[k, u], expected)
                assert label == net.words[scores[k, u].argmax()]

    def test_speaker_without_a_code(self):
        rng = np.random.default_rng(1)
        corpus = random_corpus(rng, [(2,), (3,)])
        with pytest.raises(DataError, match="^speaker s1 has no speaker code$"):
            recognize_corpus(random_net(rng, 0), corpus, {"s0": np.zeros(2)}, flag_grid(),
                             np.zeros(2))

    def test_flag_subset_and_order(self):
        rng = np.random.default_rng(5)
        net = random_net(rng, 0)
        corpus = random_corpus(rng, [(3,)])
        svcs, avg = {"s0": rng.random(2)}, rng.random(2)
        flags = [AvailabilityFlags(True, False, True), AvailabilityFlags.all_off()]
        scores = recognize_corpus(net, corpus, svcs, flags, avg)
        for k, f in enumerate(flags):
            expected = recognize(net, corpus.frames, svcs["s0"], f, avg)[1]
            assert np.array_equal(scores[k, 0], expected)

    def test_empty_utterance_in_block(self):
        """A block of no rows has no utterance to score."""
        corpus = random_corpus(np.random.default_rng(0), [()])
        with pytest.raises(DataError, match="no utterance"):
            recognize_corpus(random_net(np.random.default_rng(0), 0), corpus,
                             {"s0": np.zeros(2)}, flag_grid(), np.zeros(2))

    def test_wrong_feature_width(self):
        rng = np.random.default_rng(2)
        corpus = random_corpus(rng, [(2,)], dim=5)
        with pytest.raises(StructuralError):
            recognize_corpus(random_net(rng, 0), corpus, {"s0": np.zeros(2)}, flag_grid(),
                             np.zeros(2))


class TestAblation:
    def test_eight_rows_canonical_order(self):
        corpus = tiny_corpus()
        svcs = tiny_svcs(corpus)
        net, _ = train_recognizer(corpus, svcs, small_config(rec_epochs=2))
        rows, _ = ablation_eval(net, corpus, svcs, np.zeros(2))
        assert [f for f, _ in rows] == flag_grid()

    def test_zero_error_for_perfect_net(self):
        corpus = tiny_corpus()
        svcs = tiny_svcs(corpus)
        cfg = small_config(rec_acoustic_units=12, rec_state_units=8, rec_epochs=60,
                           rec_learning_rate=0.3)
        net, _ = train_recognizer(corpus, svcs, cfg)
        avg = compute_average_svc(list(svcs.values()))
        rows, _ = ablation_eval(net, corpus, svcs, avg)
        # trained to zero training error with the true code everywhere
        full = dict((f, r) for f, r in rows)
        assert full[AvailabilityFlags.all_on()] == 0.0

    def test_rows_match_brute_force_counting(self):
        corpus = tiny_corpus()
        svcs = tiny_svcs(corpus)
        net, _ = train_recognizer(corpus, svcs, small_config(rec_epochs=2))
        avg = np.array([0.1, 0.9])
        rows, log = ablation_eval(net, corpus, svcs, avg)
        utterances = corpus.by_utterance()
        for flags, rate in rows:
            wrong = 0
            for utt_id, frames in utterances.items():
                label, _ = recognize(
                    net, list(frames.frames), svcs[speaker_of(frames)], flags, avg
                )
                wrong += label != word_of(frames)
            assert rate == pytest.approx(wrong / len(utterances))
        assert len(log) == 8 * len(utterances)

    def test_speaker_blocks_equal_one_speaker_at_a_time(self, monkeypatch):
        """Nine speakers, so blocks of 4, 4 and 1: the rows and the log
        equal those of recognizing each speaker's utterances alone with
        its code. The random net and codes are ones under which the codes
        change some predictions."""
        config = RunConfig(
            n_speakers=9, n_words=3, phones_per_word=2, states_per_phone=2,
            frames_per_state=2, noise_std=0.3, corpus_seed=5, feature_dim=6, latent_dim=2,
        )
        corpus = generate_corpus(config)[0]
        assert len(corpus.speakers) % SPEAKERS_PER_BLOCK == 1
        rng = np.random.default_rng(21)
        svcs = {s: rng.normal(0, 3, 2) for s in corpus.speakers}
        net = init_recognizer(corpus.words, corpus.feature_dim, small_config())
        rng = np.random.default_rng(3)
        for p in net.param_arrays():
            p[...] = rng.normal(0, 0.5, p.shape)
        avg = np.array([0.2, 0.7])
        grid = flag_grid()
        labels = []
        for speaker in corpus.speakers:
            alone = corpus.restricted_to_speakers([speaker])
            labels.append(recognize_corpus(net, alone, svcs, grid, avg).argmax(axis=-1))
        labels = np.concatenate(labels, axis=1)
        assert not (labels == labels[0]).all()
        blocks = []  # the speakers of each recognition pass

        def spy(net, corpus, *args):
            blocks.append(corpus.speakers)
            return recognize_corpus(net, corpus, *args)

        monkeypatch.setattr(rec_mod, "recognize_corpus", spy)
        rows, log = ablation_eval(net, corpus, svcs, avg)
        assert blocks == [corpus.speakers[:4], corpus.speakers[4:8], corpus.speakers[8:]]
        assert [net.words[k] for k in labels.reshape(-1)] == [entry[2] for entry in log]
        truths = [entry[1] for entry in log[: labels.shape[1]]]
        for (flags, rate), predicted in zip(rows, labels):
            assert rate == np.mean([net.words[k] != t for k, t in zip(predicted, truths)])

    def test_interleaved_speakers_keep_utterance_order(self, tmp_path):
        """A corpus file whose rows are shuffled, speakers interleaved,
        loads to the canonical row order, so the ablation rows and the
        prediction log equal those of the sorted file, whose log follows
        the utterances' row order."""
        corpus = tiny_corpus()
        svcs = tiny_svcs(corpus)
        net, _ = train_recognizer(corpus, svcs, small_config(rec_epochs=2))
        path = tmp_path / "corpus.csv"
        save_corpus(corpus, path)
        lines = path.read_text().splitlines()
        body = lines[1:]
        random.Random(4).shuffle(body)
        assert body != lines[1:]
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([lines[0]] + body) + "\n")
        avg = np.array([0.3, 0.6])
        rows, log = ablation_eval(net, load_corpus(shuffled), svcs, avg)
        assert (rows, log) == ablation_eval(net, load_corpus(path), svcs, avg)
        utterances = corpus.by_utterance()
        expected = []
        for flags in flag_grid():
            for utt_id, frames in utterances.items():
                label, _ = recognize(
                    net, list(frames.frames), svcs[speaker_of(frames)], flags, avg
                )
                expected.append((utt_id, word_of(frames), label, flags))
        assert log == expected


class TestAverageSvc:
    def test_single(self):
        assert np.array_equal(compute_average_svc([np.array([0.1, 0.2])]), [0.1, 0.2])

    def test_pair(self):
        out = compute_average_svc([np.array([0.0, 0.0]), np.array([2.0, 2.0])])
        assert np.array_equal(out, [1.0, 1.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        svcs = [rng.random(2) for _ in range(40)]
        np.testing.assert_allclose(
            compute_average_svc(svcs), sum(svcs) / len(svcs), atol=1e-12
        )

    def test_empty(self):
        with pytest.raises(DataError):
            compute_average_svc([])


class TestWindowing:
    def test_zero_window_passthrough(self):
        frames = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        out = window_frames(frames, 0)
        assert all(np.array_equal(a, b) for a, b in zip(out, frames))

    def test_edge_padding(self):
        frames = [np.array([1.0]), np.array([2.0]), np.array([3.0])]
        out = window_frames(frames, 1)
        assert np.array_equal(out[0], [1.0, 1.0, 2.0])
        assert np.array_equal(out[2], [2.0, 3.0, 3.0])


class TestPersistence:
    def test_round_trip(self, tmp_path):
        corpus = tiny_corpus()
        svcs = tiny_svcs(corpus)
        net, _ = train_recognizer(corpus, svcs, small_config(rec_epochs=1))
        path = tmp_path / "rec.txt"
        save_recognizer(net, path)
        loaded = load_recognizer(path)
        assert loaded.words == net.words
        assert loaded.window == net.window
        for a, b in zip(net.param_arrays(), loaded.param_arrays()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("window", [0, 2])
    def test_loaded_spec_is_recognizer_spec(self, tmp_path, window):
        net = init_recognizer(WORDS, 4, small_config(rec_window=window))
        path = tmp_path / "rec.txt"
        save_recognizer(net, path)
        loaded = load_recognizer(path)
        assert loaded.fields() == net.fields()
        assert loaded.net.spec == net.net.spec == recognizer_spec(**loaded.fields())

    def test_truncation_is_a_structural_error(self, tmp_path):
        corpus = tiny_corpus()
        net, _ = train_recognizer(corpus, tiny_svcs(corpus), small_config(rec_epochs=1))
        path = tmp_path / "rec.txt"
        save_recognizer(net, path)
        lines = path.read_text().splitlines(keepends=True)
        cut = tmp_path / "cut.txt"
        for n in range(len(lines)):
            for tail in ("", lines[n][: len(lines[n]) // 2]):
                cut.write_text("".join(lines[:n]) + tail)
                with pytest.raises(StructuralError, match="cut.txt"):
                    load_recognizer(cut)
