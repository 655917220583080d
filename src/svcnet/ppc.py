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
from .nets import (
    LayerSpec,
    TrainConfig,
    forward,
    grads_from_activations,
    init_network,
    sgd_step,
)

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


def train_ppc_encoder(sound, frames_for_sound, code_dim, config):
    """Per-presentation reconstruction training, shuffled per epoch."""
    if len(frames_for_sound) == 0:
        raise DataError(f"no frames to train encoder for {sound}")
    frames = [np.asarray(f, dtype=float) for f in frames_for_sound]
    feature_dim = len(frames[0])
    net = init_network(encoder_spec(feature_dim, code_dim), config.seed)
    rng = np.random.default_rng(config.seed)
    mask = np.ones(feature_dim, dtype=bool)
    epoch_mse = []
    for _ in range(config.epochs):
        for i in rng.permutation(len(frames)):
            x = frames[i]
            acts = forward(net, x)
            grads = grads_from_activations(net, acts, x, mask)
            sgd_step(net, grads, config.learning_rate)
        epoch_mse.append(reconstruction_mse(net, frames))
    return PPCEncoder(sound, net), epoch_mse


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
    """One encoder per surviving sound; deterministic per-sound seeds.

    Returns (encoders, per-sound epoch MSE curves).
    """
    sounds = sound_inventory(corpus, min_frames)
    by_sound = {s: [] for s in sounds}
    for f in corpus.frames:
        if f.sound in by_sound:
            by_sound[f.sound].append(f.features)
    encoders = {}
    curves = {}
    for i, sound in enumerate(sounds):
        cfg = TrainConfig(config.learning_rate, config.epochs, config.seed + i)
        encoders[sound], curves[sound] = train_ppc_encoder(
            sound, by_sound[sound], code_dim, cfg
        )
    return encoders, curves
