"""Per-sound bottleneck encoders.

One encoder per (phone, state) pair is trained to reconstruct its input
frames through a narrow sigmoid bottleneck; the bottleneck activations
are the pronunciation code for that sound.
"""

import logging
from collections.abc import Mapping

import numpy as np

from .corpus import SoundIndex
from .errors import DataError, StructuralError
from .nets import LayerSpec, NetworkParams, Step, activate, forward, forward_rows, init_network

log = logging.getLogger(__name__)


class EncoderBank(Mapping):
    """A read-only mapping sound -> encoder net, the nets of one spec
    (checked here), that stacks their first layers once: `weights`
    (K, code_dim, feature_dim) and `biases` (K, code_dim), row `index[s]`
    sound s's. Read-only, so the stacks cannot go stale."""

    def __init__(self, encoders):
        self._encoders = dict(encoders)
        nets = list(self._encoders.values())
        if len({net.spec for net in nets}) > 1:
            raise StructuralError("encoders of different specs cannot code together")
        self.index = SoundIndex(self._encoders)
        self.weights = np.array([net.weights[0] for net in nets])
        self.biases = np.array([net.biases[0] for net in nets])
        self.kind = nets[0].spec.activations[0] if nets else None

    def __getitem__(self, sound):
        return self._encoders[sound]

    def __iter__(self):
        return iter(self._encoders)

    def __len__(self):
        return len(self._encoders)


def encoder_spec(feature_dim, code_dim):
    """Sigmoid bottleneck (codes live in (0,1)), linear reconstruction output."""
    if code_dim >= feature_dim:
        raise StructuralError(
            f"bottleneck width {code_dim} must be < feature dim {feature_dim}"
        )
    return LayerSpec((feature_dim, code_dim, feature_dim), ("sigmoid", "linear"))


def reconstruction_mse(net, frames):
    total = 0.0
    for x in frames:
        out = forward(net, x)[-1]
        d = out - x
        total += d @ d
    return total / (len(frames) * len(frames[0]))


@np.errstate(over="ignore", invalid="ignore")  # a diverged epoch is refused below, in one line
def _train_lockstep(sounds, frames, config, seeds):
    """Train one encoder per sound side by side on `frames` (S, N, dim),
    at the config's ppc_dim, ppc_learning_rate and ppc_epochs:
    every sound has N frames, its own seed for init and shuffling, and its
    own permutation each epoch. Step t of an epoch presents frame
    perm_s[t] to encoder s, so each encoder follows exactly the sequence
    it would follow alone. Returns (nets, per-sound epoch MSE lists)."""
    n_sounds, n_frames, feature_dim = frames.shape
    spec = encoder_spec(feature_dim, config.ppc_dim)
    nets = [init_network(spec, seed) for seed in seeds]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    step = Step(nets, 1, config.ppc_learning_rate)
    rows = frames.reshape(-1, feature_dim)
    offsets = np.arange(n_sounds)[:, None] * n_frames
    lead = step.outputs.shape[:-1]  # (N, 1), or (1,) for one encoder
    stacked = NetworkParams(spec, step.weights, step.biases)
    sets = frames.reshape(lead[:-1] + frames.shape[1:])  # as the stacked weights: (N, F, dim)
    curves = np.empty((config.ppc_epochs, n_sounds))
    for epoch in range(config.ppc_epochs):
        order = np.array([rng.permutation(n_frames) for rng in rngs]) + offsets
        for idx in order.T:
            x = rows[idx.reshape(lead)]
            step(x, x)
        # reconstruction_mse of every encoder in one pass, summed in frame order
        d = forward_rows(stacked, sets)[-1]
        d -= sets
        total = np.cumsum((d[..., None, :] @ d[..., None])[..., 0, 0], axis=-1)[..., -1]
        curves[epoch] = total / (n_frames * feature_dim)
        for sound, mse in zip(sounds, curves[epoch]):
            if not np.isfinite(mse):
                raise DataError(
                    f"ppc training diverged at epoch {epoch}: encoder {sound} "
                    f"reconstruction MSE {mse}"
                )
    return nets, [curve.tolist() for curve in curves.T]


def train_ppc_encoder(sound, frames_for_sound, config):
    """Per-presentation reconstruction training, shuffled per epoch, from
    the config's ppc_seed. Returns (net, epoch MSE list)."""
    if len(frames_for_sound) == 0:
        raise DataError(f"no frames to train encoder for {sound}")
    frames = np.asarray(frames_for_sound, dtype=float)[None]
    nets, curves = _train_lockstep([sound], frames, config, [config.ppc_seed])
    return nets[0], curves[0]


def encode_frame(net, frame):
    """Bottleneck activations of an encoder net for one frame."""
    return forward(net, frame)[1]


def encode_frames(bank, sounds, ids, frames):
    """Codes (N, code_dim) of frames of mixed sounds, frames[n] a frame of
    sound sounds[ids[n]] (a sound table and integer ids into it): row n
    equals encode_frame(bank[sounds[ids[n]]], frames[n]) bit for bit. Each
    row meets its sound's first layer, gathered from the EncoderBank's
    stacks, in one broadcast W @ x[:, :, None] pass: one matrix-vector
    product per row, the kernel of forward()'s W @ x."""
    which = bank.index.of_table(sounds)[ids]
    if np.logical_or.reduce(which < 0):  # ndarray.any's reduction, without its wrapper
        raise StructuralError(f"no encoder for sound {sounds[ids[np.argmax(which < 0)]]}")
    z = np.matmul(bank.weights[which], np.asarray(frames, dtype=float)[:, :, None])[:, :, 0]
    z += bank.biases[which]
    return activate(z, bank.kind, out=z)


def codable_frames(frame_sets, bank):
    """Each frame set (a corpus, such as one speaker's rows) with only the
    rows whose sound has an encoder in the EncoderBank. A sound missing
    from the training split, or dropped there as scarce, has no encoder and
    no slot in the code layout, so its frames are skipped, with one warning
    that counts them. The sets share one sound table, whose sounds are
    looked up once. DataError for a set with no frame left."""
    if not frame_sets:
        return []
    sounds = frame_sets[0].sounds
    if any(frames.sounds != sounds for frames in frame_sets):
        raise StructuralError("frame sets to code together must share one sound table")
    coded = bank.index.of_table(sounds) >= 0
    kept, skipped = [], []
    for frames in frame_sets:
        ok = coded[frames.sound]
        kept.append(frames if ok.all() else frames.rows(ok))
        if kept[-1] is not frames:
            skipped.append(frames.rows(~ok))
    if skipped:
        log.warning(
            "skipping %d frame(s) of speaker(s) %s: no encoder for sound(s) %s",
            sum(len(frames) for frames in skipped),
            " ".join(sorted({f.speakers[k] for f in skipped for k in set(f.speaker.tolist())})),
            " ".join(str(sounds[k]) for k in np.unique(np.concatenate([f.sound for f in skipped]))),
        )
    for frames, codable in zip(frame_sets, kept):
        if len(codable) == 0:
            raise DataError(
                f"speaker {frames.speakers[frames.speaker[0]]} has no frame of a sound with an "
                "encoder" if len(frames) else "no frames to code"
            )
    return kept


def _inventory(corpus, min_frames):
    """Sound ids, in table order, with enough training frames; scarce
    sounds are dropped with a warning."""
    counts = np.bincount(corpus.sound, minlength=len(corpus.sounds))
    for k in np.flatnonzero((counts > 0) & (counts < min_frames)):
        log.warning(
            "dropping sound %s: only %d frame(s) in the training set", corpus.sounds[k], counts[k]
        )
    return np.flatnonzero(counts >= max(min_frames, 1))


def sound_inventory(corpus, min_frames=2):
    """Sorted sounds with enough training frames; scarce ones are dropped."""
    return [corpus.sounds[k] for k in _inventory(corpus, min_frames)]


def train_all_encoders(corpus, config):
    """One encoder per sound with at least config.min_sound_frames
    training frames; deterministic per-sound seeds (config.ppc_seed +
    index in the sorted inventory). Sounds with equal frame counts train
    in lockstep; the result equals training them one by one.

    Returns (EncoderBank, per-sound epoch MSE curves); DataError when no
    sound keeps min_sound_frames frames.
    """
    most = max(corpus.sound_counts().values(), default=0)
    if most < max(config.min_sound_frames, 1):
        raise DataError(f"no sound has min_sound_frames {config.min_sound_frames} training "
                        f"frames: the most any sound has is {most}")
    kept = _inventory(corpus, config.min_sound_frames)
    sounds = [corpus.sounds[k] for k in kept]
    by_sound = [corpus.frames[corpus.sound == k] for k in kept]  # in row order
    groups = {}
    for i, frames in enumerate(by_sound):
        groups.setdefault(len(frames), []).append(i)
    encoders, curves = {}, {}
    for members in groups.values():
        group = [sounds[i] for i in members]
        trained, group_curves = _train_lockstep(
            group,
            np.array([by_sound[i] for i in members]),
            config,
            [config.ppc_seed + i for i in members],
        )
        encoders.update(zip(group, trained))
        curves.update(zip(group, group_curves))
    # inventory order: the pipeline averages curves in this order
    return EncoderBank({s: encoders[s] for s in sounds}), {s: curves[s] for s in sounds}
