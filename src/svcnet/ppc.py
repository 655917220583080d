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
from .nets import FusedStep, LayerSpec, activate, forward, init_network

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


def encode_frames(encoders, sounds, frames):
    """Codes (N, code_dim) of frames of mixed sounds: row n equals
    encode_frame(encoders[sounds[n]], frames[n]) bit for bit. One stacked
    pass codes every row: each row meets its own sound's encoder weights,
    gathered into an (N, code_dim, dim) stack, one matrix-vector product
    per row, the kernel of W @ x."""
    bank = {sound: i for i, sound in enumerate(dict.fromkeys(sounds))}
    for sound in bank:
        if sound not in encoders:
            raise StructuralError(f"no encoder for sound {sound}")
    nets = [encoders[sound].net for sound in bank]
    if any(net.spec != nets[0].spec for net in nets):
        raise StructuralError("encoders of different specs cannot code together")
    which = [bank[sound] for sound in sounds]
    x = np.asarray(frames, dtype=float)
    z = np.matmul(np.stack([net.weights[0] for net in nets])[which], x[:, :, None])[:, :, 0]
    z += np.stack([net.biases[0] for net in nets])[which]
    return activate(z, nets[0].spec.activations[0], out=z)


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


def codable_frames(frame_sets, encoders):
    """Each frame set with only the frames whose sound has an encoder. A
    sound missing from the training split, or dropped there as scarce, has
    no encoder and no slot in the code layout, so its frames are skipped,
    with one warning that counts them. DataError for a set with no frame
    left."""
    kept = [[f for f in frames if f.sound in encoders] for frames in frame_sets]
    skipped = [
        f for frames, codable in zip(frame_sets, kept) if len(codable) < len(frames)
        for f in frames if f.sound not in encoders
    ]
    if skipped:
        log.warning(
            "skipping %d frame(s) of speaker(s) %s: no encoder for sound(s) %s",
            len(skipped),
            " ".join(sorted({f.speaker for f in skipped})),
            " ".join(str(s) for s in sorted({f.sound for f in skipped})),
        )
    for frames, codable in zip(frame_sets, kept):
        if not codable:
            raise DataError(
                f"speaker {frames[0].speaker} has no frame of a sound with an encoder"
                if frames else "no frames to code"
            )
    return kept


def build_speaker_profile(speaker, frames, encoders):
    """Average the per-frame codes of one speaker, per sound."""
    if not frames:
        raise DataError(f"speaker {speaker} has no frames")
    sounds = [f.sound for f in frames]
    frame_codes = encode_frames(encoders, sounds, [f.features for f in frames])
    rows = {}
    for i, sound in enumerate(sounds):
        rows.setdefault(sound, []).append(i)
    codes = {sound: average_ppcs(frame_codes[idx]) for sound, idx in rows.items()}
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
