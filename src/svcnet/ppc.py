"""Per-sound bottleneck encoders and speaker pronunciation profiles.

One encoder per (phone, state) pair is trained to reconstruct its input
frames through a narrow sigmoid bottleneck; the bottleneck activations
are the pronunciation code for that sound. A speaker's profile averages
the codes over all of that speaker's frames of each sound.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import SoundId
from .errors import DataError, StructuralError
from .nets import FusedStep, LayerSpec, forward, init_network

log = logging.getLogger(__name__)


@dataclass
class PPCEncoder:
    sound: SoundId
    net: "NetworkParams"

    @property
    def code_dim(self):
        return self.net.spec.sizes[1]

    @property
    def feature_dim(self):
        return self.net.spec.sizes[0]


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


def _train_lockstep(sounds, frames, code_dim, config, seeds):
    """Train one encoder per sound side by side on `frames` (S, N, dim):
    every sound has N frames, its own seed for init and shuffling, and its
    own permutation each epoch. Step t of an epoch presents frame
    perm_s[t] to encoder s, so each encoder follows exactly the sequence
    it would follow alone. Returns (encoders, per-sound epoch MSE lists)."""
    n_sounds, n_frames, feature_dim = frames.shape
    spec = encoder_spec(feature_dim, code_dim)
    nets = [init_network(spec, seed) for seed in seeds]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    step = FusedStep(nets, config.learning_rate)
    rows = frames.reshape(-1, feature_dim)
    offsets = np.arange(n_sounds)[:, None] * n_frames
    curves = np.empty((config.epochs, n_sounds))
    for epoch in range(config.epochs):
        order = np.array([rng.permutation(n_frames) for rng in rngs]) + offsets
        for idx in order.T:
            x = rows[idx]
            step(x, x)
        # reconstruction_mse, one frame at a time across all encoders
        total = np.zeros(n_sounds)
        for j in range(n_frames):
            x = frames[:, j]
            d = step.forward(x) - x
            total += (d[:, None, :] @ d[:, :, None])[:, 0, 0]
        curves[epoch] = total / (n_frames * feature_dim)
        for sound, mse in zip(sounds, curves[epoch]):
            if not np.isfinite(mse):
                raise DataError(
                    f"ppc training diverged at epoch {epoch}: encoder {sound} "
                    f"reconstruction MSE {mse}"
                )
    encoders = [PPCEncoder(sound, net) for sound, net in zip(sounds, nets)]
    return encoders, [curve.tolist() for curve in curves.T]


def train_ppc_encoder(sound, frames_for_sound, code_dim, config):
    """Per-presentation reconstruction training, shuffled per epoch."""
    if len(frames_for_sound) == 0:
        raise DataError(f"no frames to train encoder for {sound}")
    frames = np.asarray(frames_for_sound, dtype=float)[None]
    encoders, curves = _train_lockstep([sound], frames, code_dim, config, [config.seed])
    return encoders[0], curves[0]


def encode_frame(encoder, frame):
    """Bottleneck activations for one frame."""
    return forward(encoder.net, frame)[1]


def average_ppcs(codes):
    if len(codes) == 0:
        raise DataError("cannot average an empty code list")
    codes = np.asarray(codes, dtype=float)
    return codes.mean(axis=0)


@dataclass
class SpeakerProfile:
    speaker: str
    codes: dict  # SoundId -> averaged code vector
    heard: set

    def __post_init__(self):
        if set(self.codes) != self.heard:
            raise StructuralError("profile codes must cover exactly the heard sounds")


def build_speaker_profile(speaker, frames, encoders):
    """Average the per-frame codes of one speaker, per sound."""
    if not frames:
        raise DataError(f"speaker {speaker} has no frames")
    per_sound = {}
    for f in frames:
        if f.sound not in encoders:
            raise StructuralError(f"no encoder for sound {f.sound}")
        per_sound.setdefault(f.sound, []).append(encode_frame(encoders[f.sound], f.features))
    codes = {s: average_ppcs(cs) for s, cs in per_sound.items()}
    return SpeakerProfile(speaker, codes, set(codes))


def sound_inventory(corpus, min_frames=2):
    """Sorted sounds with enough training frames; scarce ones are dropped."""
    counts = corpus.sound_counts()
    kept = []
    for sound in sorted(counts):
        if counts[sound] >= min_frames:
            kept.append(sound)
        else:
            log.warning(
                "dropping sound %s: only %d frame(s) in the training set",
                sound,
                counts[sound],
            )
    return kept


def train_all_encoders(corpus, code_dim, config, min_frames=2):
    """One encoder per surviving sound; deterministic per-sound seeds
    (config.seed + index in the sorted inventory). Sounds with equal frame
    counts train in lockstep; the result equals training them one by one.

    Returns (encoders, per-sound epoch MSE curves).
    """
    sounds = sound_inventory(corpus, min_frames)
    by_sound = {s: [] for s in sounds}
    for f in corpus.frames:
        if f.sound in by_sound:
            by_sound[f.sound].append(f.features)
    groups = {}
    for i, sound in enumerate(sounds):
        groups.setdefault(len(by_sound[sound]), []).append(i)
    encoders, curves = {}, {}
    for members in groups.values():
        group = [sounds[i] for i in members]
        trained, group_curves = _train_lockstep(
            group,
            np.array([by_sound[s] for s in group], dtype=float),
            code_dim,
            config,
            [config.seed + i for i in members],
        )
        encoders.update(zip(group, trained))
        curves.update(zip(group, group_curves))
    # inventory order: the pipeline averages curves in this order
    return {s: encoders[s] for s in sounds}, {s: curves[s] for s in sounds}
