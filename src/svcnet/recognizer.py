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
from .fileio import atomic_write_text, fmt_float, int_fields
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


def window_frames(features_list, window):
    """Stack +-window neighbours around each frame, edge-padded."""
    if window == 0:
        return [np.asarray(f, dtype=float) for f in features_list]
    n = len(features_list)
    out = []
    for i in range(n):
        parts = []
        for k in range(i - window, i + window + 1):
            parts.append(np.asarray(features_list[min(max(k, 0), n - 1)], dtype=float))
        out.append(np.concatenate(parts))
    return out


def train_recognizer(corpus, svc_per_speaker, config, svc_dim=None):
    """Per-presentation supervised training on one-of-N word targets, the
    speaker's own code always on the side-path inputs. Returns (net, metrics)."""
    for speaker in corpus.speakers:
        if speaker not in svc_per_speaker:
            raise DataError(f"speaker {speaker} has no speaker code")
    if svc_dim is None:
        svc_dim = len(next(iter(svc_per_speaker.values())))
    net = init_recognizer(corpus.words, corpus.feature_dim, svc_dim, config)
    word_index = {w: i for i, w in enumerate(net.words)}

    presentations = []
    for utt_frames in corpus.by_utterance().values():
        xs = window_frames([f.features for f in utt_frames], config.window)
        for f, x in zip(utt_frames, xs):
            target = np.zeros(len(net.words))
            target[word_index[f.word]] = 1.0
            presentations.append((x, svc_per_speaker[f.speaker], target))

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
        for i in rng.permutation(len(presentations)):
            x, svc, target = presentations[i]
            total += _gradients_into(net, x, svc, target, grads)
            np.multiply(grad, config.learning_rate, out=grad)
            flat -= grad
        epoch_loss.append(total / len(presentations))
        if not np.isfinite(epoch_loss[-1]):
            raise DataError(
                f"recognizer training diverged at epoch {epoch}: "
                f"mean frame loss {epoch_loss[-1]}"
            )
    return net, {"epoch_loss": epoch_loss, "presentations": config.epochs * len(presentations)}


def recognize(net, utterance_features, svc, flags, avg):
    """Classify one utterance; per level the side path runs from the true
    code (flag on) or the cross-speaker average (flag off)."""
    if len(utterance_features) == 0:
        raise DataError("empty utterance")
    h_true = svc_hidden(net, svc)
    h_avg = svc_hidden(net, np.asarray(avg, dtype=float))
    h_a = h_true if flags.acoustic else h_avg
    h_s = h_true if flags.state else h_avg
    h_w = h_true if flags.word else h_avg
    xs = window_frames(list(utterance_features), net.window)
    scores = np.zeros(len(net.words))
    for x in xs:
        _, _, y = forward_frame(net, x, h_a, h_s, h_w)
        scores += y
    scores /= len(xs)
    return net.words[int(np.argmax(scores))], scores


def compute_average_svc(svcs):
    if len(svcs) == 0:
        raise DataError("cannot average an empty code list")
    return np.asarray(svcs, dtype=float).mean(axis=0)


def ablation_eval(net, test_corpus, svc_per_speaker, avg):
    """Error rate for each of the 8 availability combinations, plus the
    per-utterance prediction log."""
    utterances = test_corpus.by_utterance()
    rows = []
    log = []
    for flags in flag_grid():
        errors = 0
        total = 0
        for utt_id, frames in utterances.items():
            feats = [f.features for f in frames]
            label, _ = recognize(net, feats, svc_per_speaker[frames[0].speaker], flags, avg)
            truth = frames[0].word
            if label != truth:
                errors += 1
            total += 1
            log.append((utt_id, truth, label, flags))
        rows.append((flags, errors / total))
    return rows, log


def save_recognizer(net, path):
    lines = ["svcnet-recognizer v1"]
    lines.append(
        f"words {','.join(net.words)} feature_dim={net.feature_dim} "
        f"svc_dim={net.svc_dim} window={net.window}"
    )
    for arr in net.param_arrays():
        mat = np.atleast_2d(arr)
        lines.append(f"array {arr.ndim} {' '.join(str(d) for d in arr.shape)}")
        for row in mat:
            lines.append(" ".join(fmt_float(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_recognizer(path):
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != "svcnet-recognizer v1":
        raise StructuralError(f"{path}: not an svcnet-recognizer v1 file")
    head = lines[1].split() if len(lines) > 1 else []
    if len(head) < 2 or head[0] != "words":
        raise StructuralError(f"{path}: malformed header line")
    words = tuple(head[1].split(","))
    feature_dim, svc_dim, window = int_fields(
        path, head[2:], ("feature_dim", "svc_dim", "window")
    )
    arrays = []
    pos = 2
    while pos < len(lines) and lines[pos]:
        tag = lines[pos].split()
        if (
            len(tag) not in (3, 4)
            or tag[0] != "array"
            or not all(t.isdigit() for t in tag[1:])
            or int(tag[1]) != len(tag) - 2
        ):
            raise StructuralError(f"{path}: malformed array header {lines[pos]!r}")
        shape = tuple(int(d) for d in tag[2:])
        n_rows = shape[0] if len(shape) == 2 else 1
        pos += 1
        if pos + n_rows > len(lines):
            raise StructuralError(
                f"{path}: truncated: array {len(arrays)} needs {n_rows} rows, "
                f"{len(lines) - pos} left"
            )
        try:
            arr = np.array(
                [[float(v) for v in ln.split()] for ln in lines[pos : pos + n_rows]]
            )
        except ValueError:  # a non-number, or rows of unequal width
            raise StructuralError(f"{path}: malformed rows in array {len(arrays)}") from None
        if arr.size != int(np.prod(shape)):
            raise StructuralError(f"{path}: array {len(arrays)} is not of shape {shape}")
        arrays.append(arr.reshape(shape))
        pos += n_rows
    if len(arrays) != len(PARAM_NAMES):
        raise StructuralError(
            f"{path}: expected {len(PARAM_NAMES)} parameter arrays, got {len(arrays)}"
        )
    net = RecognizerNet(words, feature_dim, svc_dim, window, *arrays)
    h, a, s = SVC_HIDDEN_WIDTH, net.w_acoustic.shape[0], net.w_state.shape[0]
    o = len(words)
    expected = [
        (h, svc_dim), (h,),
        (a, net.input_dim), (a,), (a, h),
        (s, a), (s,), (s, h),
        (o, s), (o,), (o, h),
    ]
    for name, arr, shape in zip(PARAM_NAMES, arrays, expected):
        if arr.shape != shape:
            raise StructuralError(f"{path}: {name} has shape {arr.shape}, expected {shape}")
        if not np.all(np.isfinite(arr)):
            raise StructuralError(f"{path}: non-finite value in {name}")
    return net
