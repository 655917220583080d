"""Three-level frame classifier with a speaker-code side path.

Main path: frame window -> acoustic hidden -> state hidden -> word output
(all sigmoid). Side path: the speaker code feeds two hidden units whose
activations are injected into every unit of the acoustic, state, and word
layers. At test time each level independently takes the injection either
from the speaker's own code or from the cross-speaker average, controlled
by per-level availability flags; training always uses the speaker's own
code at every level. The net is a nets.NetworkParams with a side layer
(RecognizerNet.net), stepped by nets.Step.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, StructuralError
from .fileio import check_shapes, parse_int, read_arrays, str_list, write_arrays
from .nets import LayerSpec, NetworkParams, Step, flat_views, init_network, sigmoid

SVC_HIDDEN_WIDTH = 2  # fixed side-path width
BATCH_FRAMES = 16  # frames per training step
SPEAKERS_PER_BLOCK = 4  # test speakers recognized in one block by ablation_eval
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
class RecognizerNet:
    """Word labels, context window and the net: a nets.NetworkParams with
    a side layer, spec from recognizer_spec, arrays() in PARAM_NAMES order."""

    words: tuple
    window: int
    net: NetworkParams

    def param_arrays(self):
        return self.net.arrays()

    @property
    def input_dim(self):
        return self.net.spec.sizes[0]

    @property
    def svc_dim(self):
        return self.net.spec.side[0]

    def fields(self):
        """The model file's header fields, in REC_FIELDS order."""
        sizes = self.net.spec.sizes
        return dict(words=self.words, feature_dim=sizes[0] // (2 * self.window + 1),
                    svc_dim=self.svc_dim, window=self.window, acoustic_units=sizes[1],
                    state_units=sizes[2])


def recognizer_spec(words, feature_dim, svc_dim, window, acoustic_units, state_units):
    """The recognizer's nets.LayerSpec, from its header fields: the
    sigmoid main path and the side layer from the code, whose arrays()
    order is PARAM_NAMES."""
    sizes = (feature_dim * (2 * window + 1), acoustic_units, state_units, len(words))
    return LayerSpec(sizes, ("sigmoid",) * 3, (svc_dim, SVC_HIDDEN_WIDTH))


def init_recognizer(words, feature_dim, config):
    """A new net of the config's svc_dim and rec_* widths, from rec_seed."""
    spec = recognizer_spec(words, feature_dim, config.svc_dim, config.rec_window,
                           config.rec_acoustic_units, config.rec_state_units)
    return RecognizerNet(tuple(words), config.rec_window, init_network(spec, config.rec_seed))


def svc_hidden(net, svc):
    svc = np.asarray(svc, dtype=float)
    if svc.shape != (net.svc_dim,):
        raise StructuralError(f"svc shape {svc.shape} != ({net.svc_dim},)")
    w, b = net.net.side
    return sigmoid(w @ svc + b)


def forward_frame(net, x, h_acoustic, h_state, h_word):
    """Layer activations given per-level side-path activations."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.input_dim,):
        raise StructuralError(f"frame input shape {x.shape} != ({net.input_dim},)")
    acts = []
    for w, b, u, h in zip(net.net.weights, net.net.biases, net.net.injections,
                          (h_acoustic, h_state, h_word)):
        x = sigmoid(w @ x + b + u @ h)
        acts.append(x)
    return tuple(acts)


def frame_gradients(net, x, svc, target):
    """Gradients of the squared-error frame loss, side path included, by a
    one-frame nets.Step on a copy of the net's parameters. Returns
    (gradient list in param_arrays order, loss at the current params)."""
    step = Step([net.net.copy()], 1, 0.0)
    resid = step.gradients(x, target, code=svc)
    grads = flat_views(step.grad, net.net.spec.param_shapes())
    return grads, 0.5 * float(np.vdot(resid, resid))


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


def _speaker_codes(corpus, svc_per_speaker, svc_dim):
    """(n_speakers, svc_dim) array of the corpus speakers' codes, in
    corpus.speakers order; refuses a speaker whose code is missing or is
    not a finite vector of length svc_dim."""
    codes = np.empty((len(corpus.speakers), svc_dim))
    for k, speaker in enumerate(corpus.speakers):
        if speaker not in svc_per_speaker:
            raise DataError(f"speaker {speaker} has no speaker code")
        code = np.asarray(svc_per_speaker[speaker])
        if (code.shape != (svc_dim,) or code.dtype.kind not in "iuf"
                or not np.isfinite(code).all()):
            raise DataError(
                f"speaker {speaker}: speaker code is not a finite vector of length {svc_dim}"
            )
        codes[k] = code
    return codes


@np.errstate(over="ignore", invalid="ignore")  # a diverged epoch is refused below, in one line
def train_recognizer(corpus, svc_per_speaker, config):
    """Mini-batch supervised training on one-of-N word targets, for the
    config's rec_epochs at rec_learning_rate, the speaker's own code (of
    svc_dim values) always on the side-path inputs. Each epoch steps
    through a fresh permutation of the corpus frames in consecutive slices
    of BATCH_FRAMES, one nets.Step per slice; in a shorter last slice the
    missing rows are inactive. The net's arrays are views of the step's
    parameter buffer. An epoch's loss is the mean over frames of each
    frame's loss at the parameters before its batch's update.
    Returns (net, metrics)."""
    codes = _speaker_codes(corpus, svc_per_speaker, config.svc_dim)[corpus.speaker]
    net = init_recognizer(corpus.words, corpus.feature_dim, config)
    inputs = window_frames(corpus.frames, config.rec_window, corpus.utterance_bounds())
    targets = np.eye(len(net.words))[corpus.word]
    n = len(inputs)
    n_batches = -(-n // BATCH_FRAMES)

    step = Step([net.net], BATCH_FRAMES, config.rec_learning_rate)
    active = [None] * n_batches  # each slice's active rows: all, but in a shorter last one
    if n % BATCH_FRAMES:
        active[-1] = np.arange(BATCH_FRAMES)[:, None] < n % BATCH_FRAMES
    rng = np.random.default_rng(config.rec_seed)
    epoch_loss = []
    for epoch in range(config.rec_epochs):
        # the permutation in slices, the last one padded from its start
        order = np.resize(rng.permutation(n), (n_batches, BATCH_FRAMES))
        total = 0.0
        for x, code, target, rows in zip(inputs[order], codes[order], targets[order], active):
            resid = step(x, target, active=rows, code=code)
            total += 0.5 * float(np.vdot(resid, resid))
        epoch_loss.append(total / n)
        if not np.isfinite(epoch_loss[-1]):
            raise DataError(
                f"recognizer training diverged at epoch {epoch}: "
                f"mean frame loss {epoch_loss[-1]}"
            )
    metrics = {
        "epoch_loss": epoch_loss,
        "presentations": config.rec_epochs * n,
        "batches": config.rec_epochs * n_batches,
    }
    return net, metrics


def _utterance_means(rows, bounds):
    """Mean over each utterance of rows (..., n_rows, n_words), utterance u
    being rows bounds[u]:bounds[u + 1]. Summed from zero in row order, as
    recognize's running += does: step k adds the k-th row of every
    utterance that has one."""
    starts, lengths = bounds[:-1], np.diff(bounds)
    sums = np.zeros(rows.shape[:-2] + (len(starts), rows.shape[-1]))
    for k in range(lengths.max()):
        has = lengths > k
        sums[..., has, :] += rows[..., starts[has] + k, :]
    return sums / lengths[:, None]


def recognize_corpus(net, corpus, svc_per_speaker, flag_list, avg):
    """Mean word scores (n_flags, n_utterances, n_words) of the corpus's
    utterances, in row order, under each flag setting; per level the side
    path runs from the utterance's speaker's code (flag on) or the
    cross-speaker average (flag off). `svc_per_speaker` holds a code for
    every corpus speaker, as train_recognizer's does.

    All frames go through the net as one block of stacked rows (W @
    rows[:, :, None], one matrix-vector product per row), each window
    clipped at its utterance's bounds, so the scores equal recognize's
    per-frame sums bit for bit. Each layer's main-path product is formed
    once per distinct input: the acoustic one once, the state one per
    acoustic flag and the word one per (acoustic, state) flags. Each
    speaker's side-path terms U @ h are formed once per level and
    gathered to its frames. The block's arrays grow with the corpus."""
    bounds = corpus.utterance_bounds()
    if len(bounds) < 2:
        raise DataError("no utterance to recognize")
    hidden = [svc_hidden(net, code)
              for code in _speaker_codes(corpus, svc_per_speaker, net.svc_dim)]
    h_avg = svc_hidden(net, avg)
    # flag -> per level, each frame's side-path terms U @ h
    side = {True: [np.array([u @ h for h in hidden])[corpus.speaker] for u in net.net.injections],
            False: [u @ h_avg for u in net.net.injections]}
    x = window_frames(corpus.frames, net.window, bounds)
    if x.shape[1] != net.input_dim:
        raise StructuralError(f"frame input width {x.shape[1]} != {net.input_dim}")

    def main_path(w, b, inputs):
        z = np.matmul(w, inputs[:, :, None])[:, :, 0]
        z += b
        return z

    (w_acoustic, w_state, w_word), (b_acoustic, b_state, b_word) = net.net.weights, net.net.biases
    into_acoustic = main_path(w_acoustic, b_acoustic, x)
    into_state, into_word = {}, {}
    y = np.empty((len(flag_list), len(x), len(net.words)))
    for k, flags in enumerate(flag_list):
        a_key, s_key = flags.acoustic, (flags.acoustic, flags.state)
        if a_key not in into_state:
            a = into_acoustic + side[flags.acoustic][0]
            into_state[a_key] = main_path(w_state, b_state, sigmoid(a, out=a))
        if s_key not in into_word:
            s = into_state[a_key] + side[flags.state][1]
            into_word[s_key] = main_path(w_word, b_word, sigmoid(s, out=s))
        sigmoid(np.add(into_word[s_key], side[flags.word][2], out=y[k]), out=y[k])
    return _utterance_means(y, bounds)


def recognize(net, utterance_features, svc, flags, avg):
    """Classify one utterance frame by frame, the reference that
    recognize_corpus is checked against: each frame stacked with its
    +-window neighbours (edge-padded), one forward_frame per frame, per
    level the side path from the true code (flag on) or the cross-speaker
    average (flag off), and the scores summed in frame order."""
    feats = np.array(utterance_features, dtype=float)
    if len(feats) == 0:
        raise DataError("empty utterance")
    h_true, h_avg = svc_hidden(net, svc), svc_hidden(net, avg)
    levels = [h_true if on else h_avg for on in (flags.acoustic, flags.state, flags.word)]
    scores = np.zeros(len(net.words))
    for i in range(len(feats)):
        x = feats[np.clip(range(i - net.window, i + net.window + 1), 0, len(feats) - 1)]
        scores += forward_frame(net, x.reshape(-1), *levels)[2]
    scores /= len(feats)
    return net.words[int(np.argmax(scores))], scores


def compute_average_svc(svcs):
    if len(svcs) == 0:
        raise DataError("cannot average an empty code list")
    return np.asarray(svcs, dtype=float).mean(axis=0)


def error_rate(wrong):
    """Share of misrecognized utterances, from one flag per utterance."""
    return float(np.mean(wrong))


def word_errors(net, corpus, svc_per_speaker, flag_list, avg):
    """(labels, wrong), each (n_flags, n_utterances): for each utterance of
    the corpus, in row order, and each flag setting, the index into
    net.words of the word recognize_corpus scores highest, and whether
    that is not the utterance's word."""
    labels = recognize_corpus(net, corpus, svc_per_speaker, flag_list, avg).argmax(axis=-1)
    truths = np.array(corpus.words)[corpus.word[corpus.utterance_bounds()[:-1]]]
    return labels, np.array(net.words)[labels] != truths


def ablation_eval(net, test_corpus, svc_per_speaker, avg):
    """Error rate for each of the 8 availability combinations, plus the
    per-utterance prediction log in row order. Each SPEAKERS_PER_BLOCK
    consecutive speakers are recognized under all 8 settings as one
    block, a corpus of only their rows, each with its own code."""
    grid, speakers = flag_grid(), test_corpus.speakers
    blocks = [test_corpus.restricted_to_speakers(speakers[k : k + SPEAKERS_PER_BLOCK])
              for k in range(0, len(speakers), SPEAKERS_PER_BLOCK)]
    blocks = [word_errors(net, block, svc_per_speaker, grid, avg) for block in blocks]
    labels, wrong = (np.concatenate(parts, axis=1) for parts in zip(*blocks))
    starts = test_corpus.utterance_bounds()[:-1]
    utterances = [test_corpus.utterances[u] for u in test_corpus.utterance[starts]]
    truths = [test_corpus.words[w] for w in test_corpus.word[starts]]
    log = [(utt, truth, net.words[label], flags) for flags, row in zip(grid, labels.tolist())
           for utt, truth, label in zip(utterances, truths, row)]
    return [(flags, error_rate(row)) for flags, row in zip(grid, wrong)], log


REC_FIELDS = dict(words=str_list, feature_dim=parse_int, svc_dim=parse_int, window=parse_int,
                  acoustic_units=parse_int, state_units=parse_int)


def save_recognizer(net, path):
    write_arrays(path, "recognizer", net.fields(), dict(zip(PARAM_NAMES, net.param_arrays())))


def _recognizer_from_arrays(fields, arrays):
    spec = recognizer_spec(**fields)
    check_shapes(arrays, dict(zip(PARAM_NAMES, spec.param_shapes())))
    net = NetworkParams.from_arrays(spec, list(arrays.values()))  # in PARAM_NAMES order, as checked
    return RecognizerNet(fields["words"], fields["window"], net)


def load_recognizer(path):
    return read_arrays(path, "recognizer", REC_FIELDS, _recognizer_from_arrays)
