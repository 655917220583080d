import numpy as np
import pytest

from svcnet.corpus import CorpusSpec, generate_corpus
from svcnet.errors import DataError, StructuralError
from svcnet.recognizer import (
    SVC_HIDDEN_WIDTH,
    AvailabilityFlags,
    RecognizerConfig,
    ablation_eval,
    compute_average_svc,
    flag_grid,
    forward_frame,
    frame_gradients,
    frame_loss,
    init_recognizer,
    load_recognizer,
    recognize,
    save_recognizer,
    svc_hidden,
    train_recognizer,
    window_frames,
)

WORDS = ("w00", "w01", "w02")


def small_config(**kw):
    defaults = dict(acoustic_units=6, state_units=5, window=0,
                    learning_rate=0.2, epochs=10, seed=3)
    defaults.update(kw)
    return RecognizerConfig(**defaults)


class TestStructure:
    def test_parameter_count_formula(self):
        cfg = small_config()
        net = init_recognizer(WORDS, feature_dim=4, svc_dim=2, config=cfg)
        a, s, o, f, d, h = 6, 5, 3, 4, 2, SVC_HIDDEN_WIDTH
        expected = (
            h * d + h            # side path
            + a * f + a + a * h  # acoustic level + injection
            + s * a + s + s * h  # state level + injection
            + o * s + o + o * h  # word level + injection
        )
        assert net.n_params() == expected

    def test_injection_matrices_are_dense_two_wide(self):
        net = init_recognizer(WORDS, 4, 2, small_config())
        assert net.u_acoustic.shape == (6, 2)
        assert net.u_state.shape == (5, 2)
        assert net.u_word.shape == (3, 2)

    def test_flag_grid_order(self):
        grid = flag_grid()
        assert len(grid) == 8
        assert grid[0] == AvailabilityFlags(False, False, False)
        assert grid[-1] == AvailabilityFlags(True, True, True)
        assert grid[1] == AvailabilityFlags(False, False, True)
        assert grid[4] == AvailabilityFlags(True, False, False)


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        net = init_recognizer(WORDS, 4, 2, small_config(seed=1))
        x = rng.normal(size=4)
        svc = rng.random(2)
        target = np.array([1.0, 0.0, 0.0])
        grads, _ = frame_gradients(net, x, svc, target)
        eps = 1e-6
        for arr, g in zip(net.param_arrays(), grads):
            flat, gflat = arr.reshape(-1), g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = frame_loss(net, x, svc, target)
                flat[i] = orig - eps
                lo = frame_loss(net, x, svc, target)
                flat[i] = orig
                num = (hi - lo) / (2 * eps)
                assert gflat[i] == pytest.approx(num, rel=1e-4, abs=1e-9)

    def test_matches_textbook_formulas(self):
        # the allocating np.outer formulation, in its exact association order
        rng = np.random.default_rng(4)
        net = init_recognizer(WORDS, 4, 2, small_config(seed=2))
        for _ in range(10):
            x, svc = rng.normal(size=4), rng.random(2)
            target = np.eye(3)[rng.integers(3)]
            h = svc_hidden(net, svc)
            a, s, y = forward_frame(net, x, h, h, h)
            dy = (y - target) * y * (1.0 - y)
            ds = (net.w_word.T @ dy) * s * (1.0 - s)
            da = (net.w_state.T @ ds) * a * (1.0 - a)
            dh = (
                net.u_acoustic.T @ da + net.u_state.T @ ds + net.u_word.T @ dy
            ) * h * (1.0 - h)
            expected = [
                np.outer(dh, svc), dh,
                np.outer(da, x), da, np.outer(da, h),
                np.outer(ds, a), ds, np.outer(ds, h),
                np.outer(dy, s), dy, np.outer(dy, h),
            ]
            grads, _ = frame_gradients(net, x, svc, target)
            for g, e in zip(grads, expected):
                assert np.array_equal(g, e)

    def test_loss_is_pre_update(self):
        net = init_recognizer(WORDS, 4, 2, small_config())
        x = np.zeros(4)
        _, loss = frame_gradients(net, x, np.zeros(2), np.array([1.0, 0, 0]))
        assert loss == pytest.approx(frame_loss(net, x, np.zeros(2), np.array([1.0, 0, 0])))


def tiny_corpus():
    spec = CorpusSpec(
        n_speakers=4, n_words=4, phones_per_word=2, states_per_phone=2,
        frames_per_state=2, noise_std=0.02, seed=13, feature_dim=6, latent_dim=2,
    )
    return generate_corpus(spec)[0]


def tiny_svcs(corpus):
    rng = np.random.default_rng(21)
    return {s: rng.random(2) for s in corpus.speakers}


class TestTraining:
    def test_deterministic(self):
        corpus = tiny_corpus()
        svcs = tiny_svcs(corpus)
        n1, _ = train_recognizer(corpus, svcs, small_config(epochs=2))
        n2, _ = train_recognizer(corpus, svcs, small_config(epochs=2))
        for a, b in zip(n1.param_arrays(), n2.param_arrays()):
            assert np.array_equal(a, b)

    def test_training_error_reaches_zero_on_separable_words(self):
        corpus = tiny_corpus()
        svcs = tiny_svcs(corpus)
        cfg = small_config(acoustic_units=12, state_units=8, epochs=60, learning_rate=0.3)
        net, metrics = train_recognizer(corpus, svcs, cfg)
        avg = compute_average_svc(list(svcs.values()))
        flags = AvailabilityFlags.all_on()
        errors = 0
        for utt, frames in corpus.by_utterance().items():
            label, _ = recognize(
                net, [f.features for f in frames], svcs[frames[0].speaker], flags, avg
            )
            errors += label != frames[0].word
        assert errors == 0
        assert metrics["epoch_loss"][-1] < metrics["epoch_loss"][0]

    def test_matches_per_presentation_loop(self):
        corpus = tiny_corpus()
        svcs = tiny_svcs(corpus)
        cfg = small_config(epochs=2)
        net, metrics = train_recognizer(corpus, svcs, cfg)

        ref = init_recognizer(corpus.words, corpus.feature_dim, 2, cfg)
        presentations = []
        for frames in corpus.by_utterance().values():
            for f in frames:
                target = np.zeros(len(ref.words))
                target[ref.words.index(f.word)] = 1.0
                presentations.append((f.features, svcs[f.speaker], target))
        rng = np.random.default_rng(cfg.seed)
        losses = []
        for _ in range(cfg.epochs):
            total = 0.0
            for i in rng.permutation(len(presentations)):
                grads, loss = frame_gradients(ref, *presentations[i])
                for p, g in zip(ref.param_arrays(), grads):
                    p -= cfg.learning_rate * g
                total += loss
            losses.append(total / len(presentations))
        assert metrics["epoch_loss"] == losses
        for a, b in zip(net.param_arrays(), ref.param_arrays()):
            assert np.array_equal(a, b)

    def test_non_finite_loss_stops_training(self):
        corpus = tiny_corpus()
        corpus.frames[0].features = np.full(corpus.feature_dim, np.nan)
        with pytest.raises(DataError, match="recognizer training diverged at epoch 0"):
            train_recognizer(corpus, tiny_svcs(corpus), small_config(epochs=2))

    def test_missing_svc(self):
        corpus = tiny_corpus()
        with pytest.raises(DataError):
            train_recognizer(corpus, {}, small_config())


class TestRecognize:
    def _net(self):
        corpus = tiny_corpus()
        svcs = tiny_svcs(corpus)
        net, _ = train_recognizer(corpus, svcs, small_config(epochs=3))
        return net, corpus, svcs

    def test_substitution_identity(self):
        net, corpus, svcs = self._net()
        frames = [f.features for f in corpus.frames[:6]]
        avg = np.array([0.4, 0.6])
        outputs = [
            recognize(net, frames, avg, flags, avg) for flags in flag_grid()
        ]
        for label, scores in outputs[1:]:
            assert label == outputs[0][0]
            assert np.array_equal(scores, outputs[0][1])

    def test_single_frame_scores(self):
        net, corpus, svcs = self._net()
        f = corpus.frames[0]
        svc = svcs[f.speaker]
        avg = np.zeros(2)
        flags = AvailabilityFlags.all_on()
        _, scores = recognize(net, [f.features], svc, flags, avg)
        h = svc_hidden(net, svc)
        _, _, y = forward_frame(net, f.features, h, h, h)
        assert np.array_equal(scores, y)

    def test_scores_match_independent_forward(self):
        net, corpus, svcs = self._net()
        frames = [f.features for f in corpus.frames[:5]]
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
        frames = [f.features for f in corpus.frames[:4]]
        args = (frames, np.array([0.3, 0.3]), AvailabilityFlags.all_on(), np.zeros(2))
        r1 = recognize(net, *args)
        r2 = recognize(net, *args)
        assert r1[0] == r2[0] and np.array_equal(r1[1], r2[1])

    def test_empty_utterance(self):
        net, _, _ = self._net()
        with pytest.raises(DataError):
            recognize(net, [], np.zeros(2), AvailabilityFlags.all_on(), np.zeros(2))


class TestAblation:
    def test_eight_rows_canonical_order(self):
        corpus = tiny_corpus()
        svcs = tiny_svcs(corpus)
        net, _ = train_recognizer(corpus, svcs, small_config(epochs=2))
        rows, _ = ablation_eval(net, corpus, svcs, np.zeros(2))
        assert [f for f, _ in rows] == flag_grid()

    def test_zero_error_for_perfect_net(self):
        corpus = tiny_corpus()
        svcs = tiny_svcs(corpus)
        cfg = small_config(acoustic_units=12, state_units=8, epochs=60, learning_rate=0.3)
        net, _ = train_recognizer(corpus, svcs, cfg)
        avg = compute_average_svc(list(svcs.values()))
        rows, _ = ablation_eval(net, corpus, svcs, avg)
        # trained to zero training error with the true code everywhere
        full = dict((f, r) for f, r in rows)
        assert full[AvailabilityFlags.all_on()] == 0.0

    def test_rows_match_brute_force_counting(self):
        corpus = tiny_corpus()
        svcs = tiny_svcs(corpus)
        net, _ = train_recognizer(corpus, svcs, small_config(epochs=2))
        avg = np.array([0.1, 0.9])
        rows, log = ablation_eval(net, corpus, svcs, avg)
        utterances = corpus.by_utterance()
        for flags, rate in rows:
            wrong = 0
            for utt_id, frames in utterances.items():
                label, _ = recognize(
                    net, [f.features for f in frames], svcs[frames[0].speaker], flags, avg
                )
                wrong += label != frames[0].word
            assert rate == pytest.approx(wrong / len(utterances))
        assert len(log) == 8 * len(utterances)


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
        net, _ = train_recognizer(corpus, svcs, small_config(epochs=1))
        path = tmp_path / "rec.txt"
        save_recognizer(net, path)
        loaded = load_recognizer(path)
        assert loaded.words == net.words
        assert loaded.window == net.window
        for a, b in zip(net.param_arrays(), loaded.param_arrays()):
            assert np.array_equal(a, b)

    def test_truncation_is_a_structural_error(self, tmp_path):
        corpus = tiny_corpus()
        net, _ = train_recognizer(corpus, tiny_svcs(corpus), small_config(epochs=1))
        path = tmp_path / "rec.txt"
        save_recognizer(net, path)
        lines = path.read_text().splitlines(keepends=True)
        cut = tmp_path / "cut.txt"
        for n in range(len(lines)):
            for tail in ("", lines[n][: len(lines[n]) // 2]):
                cut.write_text("".join(lines[:n]) + tail)
                with pytest.raises(StructuralError, match="cut.txt"):
                    load_recognizer(cut)
