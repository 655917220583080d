"""Pattern-completion network over pronunciation codes.

The network maps the accumulating partial set of per-sound codes to the
speaker's full profile; its bottleneck activations are the speaker voice
code. Unheard slots are held at zero (zero_fill mode) or at the previous
presentation's output activations (feedback mode), and never receive
backpropagated error.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import SoundId, SoundIndex
from .errors import DataError, StructuralError
from .fileio import parse_int, read_arrays, str_list, write_arrays
from .nets import MODEL_FIELDS, ONE, LayerSpec, Step, forward_rows, init_network
from .nets import model_arrays, model_from_arrays
from .ppc import codable_frames, encode_frames

ZERO_FILL = "zero_fill"
FEEDBACK = "feedback"
MODES = (ZERO_FILL, FEEDBACK)


@dataclass(frozen=True)
class SoundLayout:
    """Canonical slot order shared by the input and target sides."""

    sounds: tuple
    code_dim: int

    def __post_init__(self):
        if tuple(sorted(self.sounds)) != self.sounds:
            raise StructuralError("layout sounds must be in canonical sorted order")
        if len(set(self.sounds)) != len(self.sounds):
            raise StructuralError("layout sounds must be unique")

    @classmethod
    def from_sounds(cls, sounds, code_dim):
        return cls(tuple(sorted(sounds)), code_dim)

    @property
    def width(self):
        return len(self.sounds) * self.code_dim

    @cached_property
    def _index(self):
        return SoundIndex(self.sounds)

    def slot(self, sound):
        try:
            return self._index[sound] * self.code_dim
        except KeyError:
            raise StructuralError(f"sound {sound} not in layout") from None

    def slot_numbers(self, stream):
        """Each presentation's slot number (its sound's index in `sounds`)
        in a Stream."""
        slots = self._index.of_table(stream.sounds)[stream.sound]
        if np.logical_or.reduce(slots < 0):  # ndarray.any's reduction, without its wrapper
            sound = stream.sounds[stream.sound[np.argmax(slots < 0)]]
            raise StructuralError(f"sound {sound} not in layout")
        return slots

    def slot_slice(self, sound):
        off = self.slot(sound)
        return slice(off, off + self.code_dim)


def _check_mode(mode):
    if mode not in MODES:
        raise StructuralError(f"unknown accumulation mode {mode!r}")


class Accumulator:
    """One speaker's running per-sound means of observed codes plus the
    input-building rule, one presentation at a time: the reference that
    _running_means computes for many streams at once."""

    def __init__(self, layout, mode=FEEDBACK):
        _check_mode(mode)
        self.layout = layout
        self.mode = mode
        self.reset()

    def reset(self):
        self.sums = np.zeros(self.layout.width)
        self.counts = np.zeros(self.layout.width, dtype=int)
        self.last_output = np.zeros(self.layout.width)  # stays zero in zero_fill mode

    def mean(self, sound):
        sl = self.layout.slot_slice(sound)
        if self.counts[sl.start] == 0:
            raise DataError(f"sound {sound} has no observations")
        return self.sums[sl] / self.counts[sl]

    def observe(self, sound, code):
        """Fold one code into the running mean and build the (W,) net input."""
        sl = self.layout.slot_slice(sound)
        self.sums[sl] += np.asarray(code, dtype=float)
        self.counts[sl] += 1
        return self.inputs()

    def inputs(self):
        """Running means in heard slots; elsewhere the feedback output or zero."""
        fill = self.last_output.copy()
        return np.divide(self.sums, self.counts, out=fill, where=self.counts > 0)

    def commit_output(self, output):
        """Cache the caller's (W,) forward-pass output for feedback
        filling; zero_fill mode ignores it."""
        if self.mode == FEEDBACK:
            self.last_output[...] = output


@dataclass
class SVCNet:
    net: "NetworkParams"
    layout: SoundLayout
    bottleneck_index: int

    @property
    def code_dim(self):
        return self.net.spec.sizes[self.bottleneck_index]


def build_svcnet(layout, svc_dim, flank_width, seed):
    """Symmetric bottleneck net [W, flank, D, flank, W]; flank 0 drops the flanks."""
    w = layout.width
    if svc_dim >= w:
        raise StructuralError(f"svc_dim {svc_dim} must be < layout width {w}")
    if flank_width > 0:
        sizes = (w, flank_width, svc_dim, flank_width, w)
        bottleneck = 2
    else:
        sizes = (w, svc_dim, w)
        bottleneck = 1
    spec = LayerSpec(sizes, ("sigmoid",) * (len(sizes) - 1))
    return SVCNet(init_network(spec, seed), layout, bottleneck)


@dataclass(frozen=True, eq=False)
class Stream:
    """A speaker's coded speech in temporal order: presentation t is a
    frame of sound sounds[sound[t]] (a sound table and integer ids into it)
    of utterance utterance[t], with code codes[t]."""

    sounds: tuple
    sound: np.ndarray      # (T,)
    codes: np.ndarray      # (T, code_dim)
    utterance: np.ndarray  # (T,)

    def __len__(self):
        return len(self.sound)

    def rows(self, which):
        """The Stream of the presentations that `which`, a boolean mask or
        an index array, selects, in its order."""
        return Stream(self.sounds, self.sound[which], self.codes[which], self.utterance[which])

    def word_ends(self):
        """The positions of each utterance's (word's) last presentation."""
        u = self.utterance
        return np.flatnonzero(u[1:] != u[:-1]).tolist() + [len(u) - 1]


def speaker_streams(frame_sets, encoders):
    """One Stream per frame set (one speaker's rows of a corpus, in
    temporal order). Frames of a sound without an encoder in the
    EncoderBank `encoders` are skipped (ppc.codable_frames). The frames of
    all sets are coded by one stacked pass (ppc.encode_frames)."""
    kept = codable_frames(frame_sets, encoders)
    if not kept:
        return []
    sounds = kept[0].sounds
    ids = np.concatenate([frames.sound for frames in kept])
    codes = encode_frames(encoders, sounds, ids, np.concatenate([f.frames for f in kept]))
    result, start = [], 0
    for frames in kept:
        end = start + len(frames)
        result.append(Stream(sounds, ids[start:end], codes[start:end], frames.utterance))
        start = end
    return result


def _running_means(layout, streams):
    """The accumulator's inputs for many Streams side by side, both
    (T, S, W) with T the longest stream and C-contiguous: means[t, s]
    holds stream s's running per-sound means after its presentation t,
    zero in unheard slots, and heard[t, s] marks its heard slots; a stream
    that has ended keeps its last row. One flat scatter of the codes and
    counts, then a running sum over time (one accumulate for one stream,
    whole rows at a time for many) whose adds equal the
    accumulator's += bit for bit; an unheard slot's sum, 0.0, divided by 1
    stays 0.0. The counts are a separate array, freed on return, so that
    passes over the means do not hold them."""
    lengths = [len(stream) for stream in streams]
    if min(lengths) == 0:
        raise DataError("empty stream")
    n_steps, n_streams, width = max(lengths), len(streams), layout.width
    # each presentation's first position in the flat (T, S * W) sums: by step, stream and slot
    blocks = np.arange(0, n_steps * n_streams * width, width).reshape(n_steps, n_streams)
    starts = np.concatenate([layout.slot_numbers(s) * layout.code_dim + blocks[:n, row]
                             for row, (s, n) in enumerate(zip(streams, lengths))])
    at = (starts[:, None] + np.arange(layout.code_dim)).reshape(-1)
    sums = np.zeros((n_steps, n_streams * width))
    counts = np.zeros((n_steps, n_streams * width))
    sums.reshape(-1)[at] = np.concatenate([stream.codes for stream in streams]).reshape(-1)
    counts.reshape(-1)[at] = 1.0
    for acc in (sums, counts):
        if n_streams == 1:  # one value at a time: quickest on narrow rows
            np.add.accumulate(acc, axis=0, out=acc)
        else:  # whole rows at a time
            for prev, row in zip(acc[:-1], acc[1:]):
                row += prev
    heard = counts > 0
    sums /= np.maximum(counts, 1, out=counts)
    shape = (n_steps, n_streams, width)
    return sums.reshape(shape), heard.reshape(shape)


def make_target(stream, layout):
    """A speaker's profile, the net's target, and its mask, both (W,): the
    profile averages the codes over all of the speaker's frames of each
    sound (the running means after the Stream's last presentation).
    Unheard slots are zero and masked."""
    means, heard = _running_means(layout, [stream])
    return means[-1, 0], heard[-1, 0]


@np.errstate(over="ignore", invalid="ignore")  # a diverged epoch is refused below, in one line
def train_svcnet(corpus, encoders, layout, config):
    """The completion net of the config's svc_* keys, trained in its
    accumulation_mode. Two-pass scheme: fix each speaker's full-profile
    target, then step through all speakers' speech side by side, one row
    each. Time step t presents every speaker's t-th frame and updates the
    shared weights once, by the speakers' summed gradients; a speaker
    whose stream has ended is masked out (no loss or gradient). Every
    sweep each speaker draws its own utterance (word) order from the one
    rng, in speaker order, so the completion behaviour does not bind to
    one arrival order; frames inside an utterance stay in temporal order.
    Returns (svcnet, metrics)."""
    if len(corpus) == 0 or not corpus.speakers:
        raise DataError("empty corpus")
    svcnet = build_svcnet(layout, config.svc_dim, config.svc_flank, config.svc_seed)
    coded = speaker_streams([corpus.frames_of_speaker(s) for s in corpus.speakers], encoders)
    targets, masks = map(np.array, zip(*(make_target(stream, layout) for stream in coded)))
    utterances = [np.split(np.arange(len(stream)), [b + 1 for b in stream.word_ends()[:-1]])
                  for stream in coded]
    lengths = np.array([len(stream) for stream in coded])
    n_steps, n_frames, n_rows = int(lengths.max()), int(lengths.sum()), len(coded)
    live = np.arange(n_steps)[:, None] < lengths  # (T, S); a step's (S, 1) rows, or None: all
    active = [None if rows.all() else rows[:, None] for rows in live]
    rng = np.random.default_rng(config.svc_seed)
    step = Step([svcnet.net], n_rows, config.svc_learning_rate)
    x = np.empty((n_rows, layout.width))  # heard means over the last outputs, or over zeros
    epoch_loss = []
    for epoch in range(config.svc_epochs):
        streams = [stream.rows(np.concatenate([utts[i] for i in rng.permutation(len(utts))]))
                   for stream, utts in zip(coded, utterances)]
        means, heard = _running_means(layout, streams)
        x.fill(0.0)
        sweep_loss = 0.0
        for t in range(n_steps):
            np.copyto(x, means[t], where=heard[t])  # heard slots only grow
            resid = step(x, targets, masks, active[t]).reshape(-1)
            if config.accumulation_mode == FEEDBACK:
                x[...] = step.outputs
            sweep_loss += 0.5 * float(resid @ resid)
        epoch_loss.append(sweep_loss / n_frames)
        if not np.isfinite(epoch_loss[-1]):
            raise DataError(
                f"svc training diverged at epoch {epoch}: mean masked loss {epoch_loss[-1]}"
            )
    metrics = {"epoch_loss": epoch_loss, "presentations": config.svc_epochs * n_frames}
    return svcnet, metrics


def extract_svcs(svcnet, streams, mode=FEEDBACK):
    """The accumulate/forward loop without weight updates for many
    Streams: one (T, svc_dim) trajectory of bottleneck snapshots per
    stream, each equal bit for bit to running the stream alone through an
    Accumulator and forward(). The trajectories are views of one
    time-major (T_max, S, svc_dim) array.

    One rule for both modes: a row reads feedback only while its stream
    still has an unheard slot; once every slot is heard its input is the
    running means alone, whatever the last output was. So all streams step
    in lockstep (_feedback_steps), each step's last output filling the
    next input outside the heard slots, only up to the last step at which
    an active row of some stream has an unheard slot (none in zero_fill
    mode); a stream that has ended keeps a row whose values are never
    read. The rows of every stream after that step read no feedback: they
    run in one forward_rows pass over the running means, up to the
    bottleneck only."""
    _check_mode(mode)
    if not streams:
        return []
    means, heard = _running_means(svcnet.layout, streams)
    lengths = [len(stream) for stream in streams]
    n_steps, n_streams, width = means.shape
    # heard slots only grow, so a stream's rows with an unheard slot come first
    n_loop = (int(np.minimum((~heard.all(axis=-1)).sum(axis=0), lengths).max())
              if mode == FEEDBACK else 0)
    codes = np.empty((n_steps, n_streams, svcnet.code_dim))  # codes[t, s]: stream s, step t
    if n_loop:  # the buffers cost a zero_fill enrollment a few percent
        _feedback_steps(svcnet, means[:n_loop], heard[:n_loop], codes[:n_loop])
    rest = forward_rows(svcnet.net, means[n_loop:].reshape(-1, width), svcnet.bottleneck_index)
    codes[n_loop:] = rest[-1].reshape(codes[n_loop:].shape)
    return [codes[:n, row] for row, n in enumerate(lengths)]


def _feedback_steps(svcnet, means, heard, codes):
    """The lockstep loop over the C-contiguous (T, S, ...) means, heard
    slots and codes. At step t every stream's input is means[t] in the
    slots heard[t] and the last output elsewhere (zeros at first), and
    codes[t] receives the bottleneck activations, each equal to
    forward()'s bit for bit.

    The completion net is all sigmoid (build_svcnet; load_svcnet refuses
    others), and nets.sigmoid(z) is (tanh(z/2) + 1)/2. So the loop carries
    u = 2 sigmoid(z) = tanh(z/2) + 1, two calls a layer fewer. It runs on
    weights W/4, biases b/2 and the means doubled, so (W/4) @ u + b/2 is
    exactly z/2: scaling by a power of two commutes with every rounding,
    fused multiply-adds included. The bottleneck writes u into codes[t],
    and the codes are halved once after the loop. The one limit is a
    subnormal weight or bias (below 2.2e-308), which loses bits when
    scaled, so that its layer may differ from forward() in the last bit.

    One stream's rows are plain vectors, and a layer's product is np.dot,
    the matrix-vector kernel of forward()'s W @ x. S streams' rows are
    (S, width, 1) columns, one matmul product each, with the bias tiled S
    times and added elementwise. The buffers and each layer's (weights,
    output, bias) are set up once, and the bottleneck layer writes
    straight into codes[t]."""
    n_steps, n_streams = means.shape[:2]
    lead, col = ((), ()) if n_streams == 1 else ((n_streams,), (1,))  # one stream: vectors
    outs = [np.zeros(lead + (b.size,) + col) for b in svcnet.net.biases]
    weights = [w * 0.25 for w in svcnet.net.weights]
    biases = [np.repeat(b[None] * 0.5, n_streams, axis=0).reshape(out.shape)
              for b, out in zip(svcnet.net.biases, outs)]
    last, x = outs[-1], outs[-1].reshape(-1)  # the last output fills the unheard slots
    outs[svcnet.bottleneck_index - 1] = None  # codes[t]
    layers = list(zip(weights, outs, biases))
    taps = codes.reshape((n_steps,) + lead + codes.shape[-1:] + col)
    doubled = means.reshape(n_steps, -1) * 2.0
    copyto, add, tanh, one = np.copyto, np.add, np.tanh, ONE  # local names: ~4% of a step
    product = np.dot if n_streams == 1 else np.matmul
    for m, h, tap in zip(doubled, heard.reshape(n_steps, -1), taps):
        copyto(x, m, where=h)
        src = last
        for w, out, b in layers:
            out = tap if out is None else out
            product(w, src, out)
            add(out, b, out)
            tanh(out, out)
            add(out, one, out)
            src = out
    codes *= 0.5


def extract_svc(svcnet, stream, mode=FEEDBACK):
    """Run the accumulate/forward loop without weight updates; one
    bottleneck snapshot per presentation."""
    return extract_svcs(svcnet, [stream], mode)[0]


def svc_stability(trajectory, word_boundaries):
    """Euclidean displacement between consecutive end-of-word codes."""
    trajectory = np.asarray(trajectory)
    for b in word_boundaries:
        if not 0 <= b < len(trajectory):
            raise DataError(f"word boundary {b} outside trajectory of length {len(trajectory)}")
    ends = [trajectory[b] for b in word_boundaries]
    return [float(np.linalg.norm(b - a)) for a, b in zip(ends[:-1], ends[1:])]


def final_svc(trajectory):
    trajectory = np.asarray(trajectory)
    if trajectory.size == 0:
        raise DataError("empty trajectory")
    return np.add.reduce(trajectory, axis=0) / len(trajectory)  # mean's arithmetic, unwrapped


SVCNET_FIELDS = {**MODEL_FIELDS, "code_dim": parse_int, "bottleneck": parse_int,
                 "sounds": str_list}


def save_svcnet(svcnet, path):
    """One file: the net's spec and arrays, and the layout in the header."""
    fields, arrays = model_arrays(svcnet.net)
    fields.update(code_dim=svcnet.layout.code_dim, bottleneck=svcnet.bottleneck_index)
    fields["sounds"] = svcnet.layout.sounds
    write_arrays(path, "completion", fields, arrays)


def _svcnet_from_arrays(fields, arrays):
    net = model_from_arrays(fields, arrays)
    if set(net.spec.activations) != {"sigmoid"}:
        raise StructuralError(f"activations {','.join(net.spec.activations)}: "
                              "the completion net's layers are all sigmoid")
    layout = SoundLayout(tuple(map(SoundId.parse, fields["sounds"])), fields["code_dim"])
    if net.spec.sizes[0] != layout.width or net.spec.sizes[-1] != layout.width:
        raise StructuralError(f"model width does not match layout width {layout.width}")
    if not 0 < fields["bottleneck"] < len(net.spec.sizes) - 1:
        raise StructuralError(f"bottleneck {fields['bottleneck']} is not a hidden layer")
    return SVCNet(net, layout, fields["bottleneck"])


def load_svcnet(path):
    return read_arrays(path, "completion", SVCNET_FIELDS, _svcnet_from_arrays)
