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

from .corpus import SoundId
from .errors import DataError, StructuralError
from .fileio import atomic_write_text, int_fields
from .nets import FusedStep, LayerSpec, forward, init_network, load_model, save_model
from .ppc import build_speaker_profile, encode_frame

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
    def _offsets(self):
        return {s: i * self.code_dim for i, s in enumerate(self.sounds)}

    def slot(self, sound):
        try:
            return self._offsets[sound]
        except KeyError:
            raise StructuralError(f"sound {sound} not in layout") from None

    def slot_slice(self, sound):
        off = self.slot(sound)
        return slice(off, off + self.code_dim)


def make_target(profile, layout):
    """Heard slots carry the averaged code; unheard slots are zero and masked."""
    target = np.zeros(layout.width)
    mask = np.zeros(layout.width, dtype=bool)
    for sound in profile.heard:
        sl = layout.slot_slice(sound)  # raises for sounds missing from layout
        target[sl] = profile.codes[sound]
        mask[sl] = True
    return target, mask


class Accumulator:
    """Running per-sound means of observed codes plus the input-building rule."""

    def __init__(self, layout, mode=FEEDBACK):
        if mode not in MODES:
            raise StructuralError(f"unknown accumulation mode {mode!r}")
        self.layout = layout
        self.mode = mode
        self.reset()

    def reset(self):
        self.sums = np.zeros(self.layout.width)
        self.counts = np.zeros(self.layout.width, dtype=int)
        self.last_output = None

    def mean(self, sound):
        sl = self.layout.slot_slice(sound)
        if self.counts[sl.start] == 0:
            raise DataError(f"sound {sound} has no observations")
        return self.sums[sl] / self.counts[sl]

    def observe(self, sound, code):
        """Fold one code into the running mean and build the net input."""
        sl = self.layout.slot_slice(sound)
        self.sums[sl] += np.asarray(code, dtype=float)
        self.counts[sl] += 1
        return self.input_vector()

    def input_vector(self):
        """Running means in heard slots; elsewhere the feedback output or zero."""
        if self.mode == FEEDBACK and self.last_output is not None:
            fill = self.last_output.copy()
        else:
            fill = np.zeros(self.layout.width)
        return np.divide(self.sums, self.counts, out=fill, where=self.counts > 0)

    def commit_output(self, output):
        """Cache the caller's forward-pass output for feedback filling."""
        self.last_output = np.asarray(output, dtype=float).copy()


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


def speaker_stream(frames, encoders):
    """(SoundId, code) stream in temporal order plus end-of-word boundaries."""
    ordered = sorted(frames, key=lambda f: (f.utterance, f.index))
    stream = [(f.sound, encode_frame(encoders[f.sound], f.features)) for f in ordered]
    boundaries = []
    for i in range(len(ordered)):
        last = i + 1 == len(ordered)
        if last or ordered[i + 1].utterance != ordered[i].utterance:
            boundaries.append(i)
    return stream, boundaries


def train_svcnet(corpus, encoders, layout, svc_dim, config, mode=FEEDBACK, flank_width=4):
    """Two-pass scheme per speaker: fix the full-profile target, then step
    through the speaker's speech accumulating codes, updating after every
    presentation. Word (utterance) order is reshuffled every sweep so the
    completion behaviour does not bind to one arrival order; frames inside
    an utterance stay in temporal order. Returns (svcnet, metrics)."""
    if not corpus.frames:
        raise DataError("empty corpus")
    svcnet = build_svcnet(layout, svc_dim, flank_width, config.seed)
    net = svcnet.net
    speakers = list(corpus.speakers)
    targets = {}
    utt_streams = {}
    for s in speakers:
        frames = corpus.frames_of_speaker(s)
        profile = build_speaker_profile(s, frames, encoders)
        targets[s] = make_target(profile, layout)
        stream, ends = speaker_stream(frames, encoders)
        utt_streams[s] = [stream[a + 1 : b + 1] for a, b in zip([-1] + ends, ends)]

    rng = np.random.default_rng(config.seed)
    acc = Accumulator(layout, mode)
    step = FusedStep([net], config.learning_rate)
    presentations = 0
    total_frames = sum(sum(len(u) for u in us) for us in utt_streams.values())
    epoch_loss = []
    for epoch in range(config.epochs):
        sweep_loss = 0.0
        for s in speakers:
            target, mask = targets[s]
            acc.reset()
            order = rng.permutation(len(utt_streams[s]))
            for ui in order:
                for sound, code in utt_streams[s][ui]:
                    resid = step(acc.observe(sound, code), target, mask)[0]
                    acc.commit_output(step.outputs[0])
                    sweep_loss += 0.5 * float(resid @ resid)
                    presentations += 1
        epoch_loss.append(sweep_loss / max(1, total_frames))
        if not np.isfinite(epoch_loss[-1]):
            raise DataError(
                f"svc training diverged at epoch {epoch}: mean masked loss {epoch_loss[-1]}"
            )
    metrics = {"epoch_loss": epoch_loss, "presentations": presentations}
    return svcnet, metrics


def extract_svc(svcnet, labelled_stream, mode=FEEDBACK):
    """Run the accumulate/forward loop without weight updates; one
    bottleneck snapshot per presentation."""
    if len(labelled_stream) == 0:
        raise DataError("empty stream")
    acc = Accumulator(svcnet.layout, mode)
    trajectory = []
    for sound, code in labelled_stream:
        x = acc.observe(sound, code)
        acts = forward(svcnet.net, x)
        trajectory.append(acts[svcnet.bottleneck_index].copy())
        acc.commit_output(acts[-1])
    return np.asarray(trajectory)


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
    return trajectory.mean(axis=0)


def save_svcnet(svcnet, model_path, layout_path):
    save_model(svcnet.net, model_path)
    lines = [f"svcnet-layout v1 code_dim={svcnet.layout.code_dim} bottleneck={svcnet.bottleneck_index}"]
    lines.extend(str(s) for s in svcnet.layout.sounds)
    atomic_write_text(layout_path, "\n".join(lines) + "\n")


def load_svcnet(model_path, layout_path):
    net = load_model(model_path)
    with open(layout_path) as f:
        lines = f.read().splitlines()
    head = lines[0].split() if lines else []
    if head[0:2] != ["svcnet-layout", "v1"]:
        raise StructuralError(f"{layout_path}: not an svcnet-layout v1 file")
    code_dim, bottleneck = int_fields(layout_path, head[2:], ("code_dim", "bottleneck"))
    sounds = tuple(SoundId.parse(ln) for ln in lines[1:] if ln)
    layout = SoundLayout(sounds, code_dim)
    if net.spec.sizes[0] != layout.width or net.spec.sizes[-1] != layout.width:
        raise StructuralError("model width does not match layout width")
    if not 0 < bottleneck < len(net.spec.sizes) - 1:
        raise StructuralError(f"{layout_path}: bottleneck {bottleneck} is not a hidden layer")
    return SVCNet(net, layout, bottleneck)
