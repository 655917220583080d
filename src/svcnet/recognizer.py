"""Three-level frame classifier with a speaker-code side path.

Main path: frame window -> acoustic hidden -> state hidden -> word output
(all sigmoid). Side path: the speaker code feeds two hidden units whose
activations are injected into every unit of the acoustic, state, and word
layers. At test time each level independently takes the injection either
from the speaker's own code or from the cross-speaker average, controlled
by per-level availability flags; training always uses the speaker's own
code at every level.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import DataError, StructuralError
from .fileio import check_shapes, read_arrays, str_list, write_arrays
from .nets import flat_views

SVC_HIDDEN_WIDTH = 2  # fixed side-path width
PARAM_NAMES = (
    "w_svc", "b_svc",
    "w_acoustic", "b_acoustic", "u_acoustic",
    "w_state", "b_state", "u_state",
    "w_word", "b_word", "u_word",
)


@dataclass(frozen=True)
class AvailabilityFlags:
    acoustic: bool
    state: bool
    word: bool

    @classmethod
    def all_on(cls):
        return cls(True, True, True)

    @classmethod
    def all_off(cls):
        return cls(False, False, False)


def flag_grid():
    """All 8 combinations, acoustic most significant: (x,x,x) .. (on,on,on)."""
    return [
        AvailabilityFlags(bool(i & 4), bool(i & 2), bool(i & 1)) for i in range(8)
    ]


@dataclass
class RecognizerConfig:
    acoustic_units: int = 24
    state_units: int = 16
    window: int = 0  # frames of context on each side
    learning_rate: float = 0.3
    epochs: int = 15
    seed: int = 0


@dataclass
class RecognizerNet:
    words: tuple
    feature_dim: int
    svc_dim: int
    window: int
    # side path
    w_svc: np.ndarray  # (2, svc_dim)
    b_svc: np.ndarray
    # main path with per-level injection matrices (units x 2)
    w_acoustic: np.ndarray
    b_acoustic: np.ndarray
    u_acoustic: np.ndarray
    w_state: np.ndarray
    b_state: np.ndarray
    u_state: np.ndarray
    w_word: np.ndarray
    b_word: np.ndarray
    u_word: np.ndarray

    def param_arrays(self):
        return [getattr(self, name) for name in PARAM_NAMES]

    def n_params(self):
        return sum(a.size for a in self.param_arrays())

    @property
    def input_dim(self):
        return self.feature_dim * (2 * self.window + 1)


def init_recognizer(words, feature_dim, svc_dim, config):
    rng = np.random.default_rng(config.seed)
    in_dim = feature_dim * (2 * config.window + 1)
    a, s, o = config.acoustic_units, config.state_units, len(words)

    def uniform(fan_in, shape):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    return RecognizerNet(
        words=tuple(words),
        feature_dim=feature_dim,
        svc_dim=svc_dim,
        window=config.window,
        w_svc=uniform(svc_dim, (SVC_HIDDEN_WIDTH, svc_dim)),
        b_svc=np.zeros(SVC_HIDDEN_WIDTH),
        w_acoustic=uniform(in_dim, (a, in_dim)),
        b_acoustic=np.zeros(a),
        u_acoustic=uniform(SVC_HIDDEN_WIDTH, (a, SVC_HIDDEN_WIDTH)),
        w_state=uniform(a, (s, a)),
        b_state=np.zeros(s),
        u_state=uniform(SVC_HIDDEN_WIDTH, (s, SVC_HIDDEN_WIDTH)),
        w_word=uniform(s, (o, s)),
        b_word=np.zeros(o),
        u_word=uniform(SVC_HIDDEN_WIDTH, (o, SVC_HIDDEN_WIDTH)),
    )


def svc_hidden(net, svc):
    svc = np.asarray(svc, dtype=float)
    if svc.shape != (net.svc_dim,):
        raise StructuralError(f"svc shape {svc.shape} != ({net.svc_dim},)")
    return expit(net.w_svc @ svc + net.b_svc)


def forward_frame(net, x, h_acoustic, h_state, h_word):
    """Layer activations given per-level side-path activations."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.input_dim,):
        raise StructuralError(f"frame input shape {x.shape} != ({net.input_dim},)")
    a = expit(net.w_acoustic @ x + net.b_acoustic + net.u_acoustic @ h_acoustic)
    s = expit(net.w_state @ a + net.b_state + net.u_state @ h_state)
    y = expit(net.w_word @ s + net.b_word + net.u_word @ h_word)
    return a, s, y


def frame_loss(net, x, svc, target):
    h = svc_hidden(net, svc)
    _, _, y = forward_frame(net, x, h, h, h)
    d = y - target
    return 0.5 * float(d @ d)


def _gradients_into(net, x, svc, target, grads):
    """Write the frame-loss gradients into `grads` (arrays shaped like
    param_arrays, in that order); returns the loss at the current params."""
    x = np.asarray(x, dtype=float)
    svc = np.asarray(svc, dtype=float)
    h = svc_hidden(net, svc)
    a, s, y = forward_frame(net, x, h, h, h)
    g_svc, dh, g_acoustic, da, gu_acoustic, g_state, ds, gu_state, g_word, dy, gu_word = grads
    resid = y - target
    np.multiply(resid, y, out=dy)
    dy *= 1.0 - y
    np.matmul(net.w_word.T, dy, out=ds)
    ds *= s
    ds *= 1.0 - s
    np.matmul(net.w_state.T, ds, out=da)
    da *= a
    da *= 1.0 - a
    np.add(net.u_acoustic.T @ da + net.u_state.T @ ds, net.u_word.T @ dy, out=dh)
    dh *= h
    dh *= 1.0 - h
    for g, delta, inputs in (
        (g_svc, dh, svc),
        (g_acoustic, da, x), (gu_acoustic, da, h),
        (g_state, ds, a), (gu_state, ds, h),
        (g_word, dy, s), (gu_word, dy, h),
    ):
        np.multiply(delta[:, None], inputs[None, :], out=g)
    return 0.5 * float(resid @ resid)


def frame_gradients(net, x, svc, target):
    """Gradients of the squared-error frame loss, side path included.

    Returns (gradient list in param_arrays order, loss at the current params).
    """
    grads = [np.empty_like(p) for p in net.param_arrays()]
    return grads, _gradients_into(net, x, svc, target, grads)


def window_frames(features, window, bounds=None):
    """(n, (2 * window + 1) * dim) array: each frame stacked with its
    +-window neighbours within its utterance, edge-padded. The frames are
    one utterance, or consecutive utterances starting at the row offsets
    `bounds` (which end with n)."""
    feats = np.array(features, dtype=float)
    if window == 0:
        return feats
    n = len(feats)
    bounds = np.array([0, n] if bounds is None else bounds)
    first = np.repeat(bounds[:-1], np.diff(bounds))
    last = np.repeat(bounds[1:] - 1, np.diff(bounds))
    around = np.arange(n)[:, None] + np.arange(-window, window + 1)
    around = np.clip(around, first[:, None], last[:, None])
    return feats[around].reshape(n, -1)


def train_recognizer(corpus, svc_per_speaker, config, svc_dim=None):
    """Per-presentation supervised training on one-of-N word targets, the
    speaker's own code always on the side-path inputs: each frame of the
    corpus, in row order, is one presentation. Returns (net, metrics)."""
    for speaker in corpus.speakers:
        if speaker not in svc_per_speaker:
            raise DataError(f"speaker {speaker} has no speaker code")
    if svc_dim is None:
        svc_dim = len(next(iter(svc_per_speaker.values())))
    net = init_recognizer(corpus.words, corpus.feature_dim, svc_dim, config)

    inputs = window_frames(corpus.frames, config.window, corpus.utterance_bounds())
    svcs = np.array([svc_per_speaker[s] for s in corpus.speakers], dtype=float)[corpus.speaker]
    targets = np.eye(len(net.words))[corpus.word]

    # all parameters are views of one flat buffer and all gradients views
    # of another, so one subtraction updates the whole net
    shapes = [p.shape for p in net.param_arrays()]
    flat = np.concatenate([p.ravel() for p in net.param_arrays()])
    for name, view in zip(PARAM_NAMES, flat_views(flat, shapes)):
        setattr(net, name, view)
    grad = np.empty_like(flat)
    grads = flat_views(grad, shapes)

    rng = np.random.default_rng(config.seed)
    epoch_loss = []
    for epoch in range(config.epochs):
        total = 0.0
        for i in rng.permutation(len(inputs)):
            total += _gradients_into(net, inputs[i], svcs[i], targets[i], grads)
            np.multiply(grad, config.learning_rate, out=grad)
            flat -= grad
        epoch_loss.append(total / len(inputs))
        if not np.isfinite(epoch_loss[-1]):
            raise DataError(
                f"recognizer training diverged at epoch {epoch}: "
                f"mean frame loss {epoch_loss[-1]}"
            )
    return net, {"epoch_loss": epoch_loss, "presentations": config.epochs * len(inputs)}


def _utterance_means(rows, lengths):
    """Mean over each utterance of rows (..., n_rows, n_words), the
    utterances' rows consecutive. Summed from zero in row order, as a
    running += over the frames does: step k adds every utterance's k-th
    row, or zero where the utterance is shorter, which adds nothing."""
    lengths = np.asarray(lengths)
    utterance = np.repeat(np.arange(len(lengths)), lengths)
    position = np.arange(len(utterance)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    padded = np.zeros(rows.shape[:-2] + (lengths.max(), len(lengths), rows.shape[-1]))
    padded[..., position, utterance, :] = rows
    sums = np.zeros(padded.shape[:-3] + padded.shape[-2:])
    for k in range(padded.shape[-3]):
        sums += padded[..., k, :, :]
    return sums / lengths[:, None]


def recognize_utterances(net, utterances, svc, flag_list, avg):
    """Mean word scores (n_flags, n_utterances, n_words) of each utterance
    (a sequence of feature vectors) under each flag setting; per level the
    side path runs from the true code (flag on) or the cross-speaker
    average (flag off).

    All frames go through the net as one block of stacked rows (W @
    rows[:, :, None], one matrix-vector product per row), so the scores
    equal per-frame forward_frame sums bit for bit. Each layer's main-path
    product is formed once per distinct input: the acoustic one once, the
    state one per acoustic flag and the word one per (acoustic, state)
    flags. The block's arrays grow with its frames; callers pass one
    speaker's utterances at a time."""
    if len(utterances) == 0 or any(len(u) == 0 for u in utterances):
        raise DataError("empty utterance")
    hidden = {True: svc_hidden(net, svc), False: svc_hidden(net, np.asarray(avg, dtype=float))}
    x = np.concatenate([window_frames(u, net.window) for u in utterances])
    if x.shape[1] != net.input_dim:
        raise StructuralError(f"frame input width {x.shape[1]} != {net.input_dim}")

    def main_path(w, b, inputs):
        z = np.matmul(w, inputs[:, :, None])[:, :, 0]
        z += b
        return z

    into_acoustic = main_path(net.w_acoustic, net.b_acoustic, x)
    into_state, into_word = {}, {}
    y = np.empty((len(flag_list), len(x), len(net.words)))
    for k, flags in enumerate(flag_list):
        a_key, s_key = flags.acoustic, (flags.acoustic, flags.state)
        if a_key not in into_state:
            a = expit(into_acoustic + net.u_acoustic @ hidden[flags.acoustic])
            into_state[a_key] = main_path(net.w_state, net.b_state, a)
        if s_key not in into_word:
            s = expit(into_state[a_key] + net.u_state @ hidden[flags.state])
            into_word[s_key] = main_path(net.w_word, net.b_word, s)
        expit(into_word[s_key] + net.u_word @ hidden[flags.word], out=y[k])
    return _utterance_means(y, [len(u) for u in utterances])


def recognize(net, utterance_features, svc, flags, avg):
    """Classify one utterance; per level the side path runs from the true
    code (flag on) or the cross-speaker average (flag off)."""
    scores = recognize_utterances(net, [utterance_features], svc, [flags], avg)[0, 0]
    return net.words[int(np.argmax(scores))], scores


def compute_average_svc(svcs):
    if len(svcs) == 0:
        raise DataError("cannot average an empty code list")
    return np.asarray(svcs, dtype=float).mean(axis=0)


def error_rate(wrong):
    """Share of misrecognized utterances, from one flag per utterance."""
    return sum(wrong) / len(wrong)


def ablation_eval(net, test_corpus, svc_per_speaker, avg):
    """Error rate for each of the 8 availability combinations, plus the
    per-utterance prediction log in row order. Each speaker's utterances
    are recognized under all 8 settings as one block."""
    bounds = test_corpus.utterance_bounds()
    starts = bounds[:-1]
    grid = flag_grid()
    predicted = np.empty((len(grid), len(starts)), dtype=int)
    speaker = test_corpus.speaker[starts]
    # a speaker's utterances are consecutive
    for block in np.split(np.arange(len(starts)), np.flatnonzero(np.diff(speaker)) + 1):
        feats = [test_corpus.frames[bounds[u] : bounds[u + 1]] for u in block]
        svc = svc_per_speaker[test_corpus.speakers[speaker[block[0]]]]
        predicted[:, block] = recognize_utterances(net, feats, svc, grid, avg).argmax(axis=-1)
    utterances = [test_corpus.utterances[u] for u in test_corpus.utterance[starts]]
    truths = [test_corpus.words[w] for w in test_corpus.word[starts]]
    rows = []
    log = []
    for flags, labels in zip(grid, predicted):
        wrong = []
        for utt_id, truth, label in zip(utterances, truths, labels):
            wrong.append(net.words[label] != truth)
            log.append((utt_id, truth, net.words[label], flags))
        rows.append((flags, error_rate(wrong)))
    return rows, log


REC_FIELDS = dict(
    words=str_list, feature_dim=int, svc_dim=int, window=int, acoustic_units=int, state_units=int
)


def save_recognizer(net, path):
    fields = dict(
        words=net.words, feature_dim=net.feature_dim, svc_dim=net.svc_dim, window=net.window,
        acoustic_units=net.w_acoustic.shape[0], state_units=net.w_state.shape[0],
    )
    write_arrays(path, "recognizer", fields, dict(zip(PARAM_NAMES, net.param_arrays())))


def _recognizer_from_arrays(fields, arrays):
    words, feature_dim, svc_dim, window, a, s = fields.values()  # REC_FIELDS order
    if window < 0:
        raise StructuralError(f"window {window} is negative")
    h, o, i = SVC_HIDDEN_WIDTH, len(words), feature_dim * (2 * window + 1)
    shapes = [(h, svc_dim), (h,), (a, i), (a,), (a, h), (s, a), (s,), (s, h)]
    shapes += [(o, s), (o,), (o, h)]
    check_shapes(arrays, dict(zip(PARAM_NAMES, shapes)))
    return RecognizerNet(words, feature_dim, svc_dim, window, **arrays)


def load_recognizer(path):
    return read_arrays(path, "recognizer", REC_FIELDS, _recognizer_from_arrays)
