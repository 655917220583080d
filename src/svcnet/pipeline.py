"""Stage orchestration shared by the CLI and the test suite.

Every stage is deterministic given the run configuration: all randomness
flows from the per-stage seeds, and every report carries a provenance
header with the config hash, seeds, and corpus path; none of it names
the directory the run was written to.
"""

import glob
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from . import corpus as corpus_mod
from . import ppc as ppc_mod
from . import recognizer as rec_mod
from . import svc as svc_mod
from .corpus import SoundId
from .errors import DataError
from .fileio import atomic_write_text, fmt_float
from .nets import load_model, save_model


def write_report_lines(config, name, lines):
    """Write the report `name`: `#` provenance lines, then `lines`. The
    provenance depends on the config alone: its hash (which leaves the
    paths out), the seeds and the corpus path relative to the report."""
    seeds = ",".join(f"{k}:{v}" for k, v in config.seeds().items())
    corpus = os.path.relpath(config.resolved_corpus_path, config.resolved_report_dir)
    head = [f"# config_hash={config.config_hash()}", f"# seeds={seeds}", f"# corpus={corpus}"]
    os.makedirs(config.resolved_report_dir, exist_ok=True)
    path = os.path.join(config.resolved_report_dir, name)
    atomic_write_text(path, "\n".join([*head, *lines]) + "\n")
    return path


def write_report(config, name, header_cols, rows):
    lines = [",".join(header_cols)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    return write_report_lines(config, name, lines)


# ---------------------------------------------------------------- stages


def run_gen(config):
    corpus, latents = corpus_mod.generate_corpus(config)
    os.makedirs(os.path.dirname(config.resolved_corpus_path) or ".", exist_ok=True)
    corpus_mod.save_corpus(corpus, config.resolved_corpus_path)
    corpus_mod.save_latents(latents, config.resolved_latents_path)
    return corpus, latents


def check_config(path, config, checks):
    """DataError naming `path` for the first (name, value, config key) of
    `checks` whose value is not the config's."""
    for name, value, key in checks:
        if value != getattr(config, key):
            raise DataError(f"{path}: {name} {value} != {key} {getattr(config, key)}")


def load_split(config):
    """The corpus and its (train, test) split; DataError, naming the file,
    for a corpus of another feature width than the config's."""
    path = config.resolved_corpus_path
    corpus = corpus_mod.load_corpus(path)
    check_config(path, config, [("feature_dim", corpus.feature_dim, "feature_dim")])
    train, test = corpus_mod.split_corpus(
        corpus, config.train_fraction, config.split_seed
    )
    return corpus, train, test


def ppc_model_path(config, sound):
    return os.path.join(
        config.resolved_model_dir, f"ppc_{sound.phone}_{sound.state}.txt"
    )


def ppc_model_pattern(config):
    return os.path.join(config.resolved_model_dir, "ppc_*.txt")


def run_train_ppc(config):
    """Train and save the encoders, first deleting the model directory's
    other ppc_*.txt files, so that no encoder of an earlier corpus stays
    to be loaded with them."""
    _, train, _ = load_split(config)
    encoders, curves = ppc_mod.train_all_encoders(train, config)
    os.makedirs(config.resolved_model_dir, exist_ok=True)
    paths = {ppc_model_path(config, sound): net for sound, net in encoders.items()}
    for stale in set(glob.glob(ppc_model_pattern(config))) - set(paths):
        os.remove(stale)
    for path, net in paths.items():
        save_model(net, path)
    n_epochs = config.ppc_epochs
    rows = []
    for e in range(n_epochs):
        mean_mse = float(np.mean([curves[s][e] for s in encoders]))
        rows.append((e, fmt_float(mean_mse)))
    write_report(config, "metrics_ppc.csv", ("epoch", "mean_reconstruction_mse"), rows)
    return encoders


def load_encoders(config):
    """The EncoderBank of the model directory's ppc_*.txt files;
    DataError, naming the file, for an encoder the config would not have
    trained."""
    pattern = ppc_model_pattern(config)
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise DataError(f"no encoder models found (expected {pattern})")
    encoders = {}
    for p in paths:
        name = re.fullmatch(r"ppc_(.+)_([0-9]+)\.txt", os.path.basename(p))
        if name is None:
            raise DataError(f"{p}: encoder file name is not ppc_<phone>_<state>.txt")
        net = load_model(p)
        feature_dim, code_dim = net.spec.sizes[:2]
        check_config(p, config, [("code width", code_dim, "ppc_dim"),
                                 ("feature width", feature_dim, "feature_dim")])
        spec = ppc_mod.encoder_spec(feature_dim, code_dim)  # the config's widths, as checked
        if net.spec != spec:
            raise DataError(f"{p}: layers {net.spec.sizes} {','.join(net.spec.activations)} != "
                            f"encoder layers {spec.sizes} {','.join(spec.activations)}")
        encoders[SoundId(name[1], int(name[2]))] = net
    return ppc_mod.EncoderBank(encoders)


def svcnet_path(config):
    return os.path.join(config.resolved_model_dir, "svcnet.txt")


def run_train_svc(config):
    _, train, _ = load_split(config)
    encoders = load_encoders(config)
    layout = svc_mod.SoundLayout.from_sounds(encoders.keys(), config.ppc_dim)
    svcnet, metrics = svc_mod.train_svcnet(train, encoders, layout, config)
    svc_mod.save_svcnet(svcnet, svcnet_path(config))
    rows = [(e, fmt_float(l)) for e, l in enumerate(metrics["epoch_loss"])]
    write_report(config, "metrics_svc.csv", ("epoch", "mean_masked_loss"), rows)
    return svcnet, metrics


def load_svcnet_artifact(config):
    path = svcnet_path(config)
    if not os.path.exists(path):
        raise DataError(f"missing pattern-completion model ({path})")
    svcnet = svc_mod.load_svcnet(path)
    flank = svcnet.net.spec.sizes[1] if svcnet.bottleneck_index == 2 else 0
    check_config(path, config, [("code width", svcnet.code_dim, "svc_dim"),
                                ("flank width", flank, "svc_flank")])
    return svcnet


def speaker_svcs(config, svcnet, encoders, frame_sets):
    """Final speaker code of each frame set: run its stream, average the
    whole trajectory. All streams run together (svc.extract_svcs)."""
    streams = svc_mod.speaker_streams(frame_sets, encoders)
    trajs = svc_mod.extract_svcs(svcnet, streams, mode=config.accumulation_mode)
    return [svc_mod.final_svc(traj) for traj in trajs]


def speaker_svc(config, svcnet, encoders, frames):
    """Final speaker code from one frame set."""
    return speaker_svcs(config, svcnet, encoders, [frames])[0]


def all_speaker_svcs(config, svcnet, encoders, corpus):
    frame_sets = [corpus.frames_of_speaker(s) for s in corpus.speakers]
    return dict(zip(corpus.speakers, speaker_svcs(config, svcnet, encoders, frame_sets)))


def recognizer_path(config):
    return os.path.join(config.resolved_model_dir, "recognizer.txt")


def run_train_rec(config):
    _, train, _ = load_split(config)
    encoders = load_encoders(config)
    svcnet = load_svcnet_artifact(config)
    svcs = all_speaker_svcs(config, svcnet, encoders, train)
    net, metrics = rec_mod.train_recognizer(train, svcs, config)
    rec_mod.save_recognizer(net, recognizer_path(config))
    rows = [(e, fmt_float(l)) for e, l in enumerate(metrics["epoch_loss"])]
    write_report(config, "metrics_rec.csv", ("epoch", "mean_frame_loss"), rows)
    return net, metrics


def load_recognizer_artifact(config):
    path = recognizer_path(config)
    if not os.path.exists(path):
        raise DataError(f"missing recognizer model ({path})")
    net = rec_mod.load_recognizer(path)
    fields = net.fields()
    check_config(path, config, [(field, fields[field], key) for field, key in (
        ("window", "rec_window"), ("acoustic_units", "rec_acoustic_units"),
        ("state_units", "rec_state_units"), ("svc_dim", "svc_dim"),
        ("feature_dim", "feature_dim"))])
    return net


# ------------------------------------------------------------ evaluation


def split_speaker_words(frames):
    """(first-half words, last ceil(half) words) of one speaker's rows, as
    word ids in word-name order."""
    present = np.flatnonzero(np.bincount(frames.word, minlength=len(frames.words)))
    words = sorted(present.tolist(), key=frames.words.__getitem__)
    n_last = math.ceil(len(words) / 2)
    return words[: len(words) - n_last], words[len(words) - n_last :]


@dataclass(frozen=True, eq=False)
class HeldOut:
    """The codes every evaluation reads, from one coding pass: the train
    speakers' final codes and their average, and for each test speaker
    (all dicts in speaker order) the Stream of its codable frames, its
    trajectory, its final code and its (first-half words, last-half
    words) codes; `in_last` marks the test rows of their speaker's
    last-half words."""

    train_svcs: dict
    average: np.ndarray
    streams: dict
    trajectories: dict
    svcs: dict
    halves: dict
    in_last: np.ndarray


def code_held_out(config, svcnet, encoders, train, test):
    """The HeldOut of a (train, test) split. The test frames are coded once
    (svc.speaker_streams; one warning for all skipped frames); each word
    half is cut from its speaker's Stream by utterance. The whole streams
    run in one extract_svcs call and the halves in another, so that no
    half is padded to a whole stream's length. DataError for a test
    speaker with fewer than 2 words, whose first half would be empty."""
    train_svcs = all_speaker_svcs(config, svcnet, encoders, train)
    frames = [test.frames_of_speaker(s) for s in test.speakers]
    last = np.zeros((len(test.speakers), len(test.words)), dtype=bool)  # (speaker, word)
    for k, speaker_frames in enumerate(frames):
        first_words, last_words = split_speaker_words(speaker_frames)
        if not first_words:
            raise DataError(f"test speaker {test.speakers[k]} has {len(last_words)} word(s); "
                            "the word-subset protocol needs >= 2")
        last[k, last_words] = True
    in_last = last[test.speaker, test.word]
    last_utterance = np.zeros(len(test.utterances), dtype=bool)
    last_utterance[test.utterance] = in_last
    streams = svc_mod.speaker_streams(frames, encoders)
    trajs = svc_mod.extract_svcs(svcnet, streams, mode=config.accumulation_mode)
    halves = []
    for stream in streams:
        in_last_half = last_utterance[stream.utterance]
        halves += [stream.rows(~in_last_half), stream.rows(in_last_half)]
    codes = [svc_mod.final_svc(t) for t in
             svc_mod.extract_svcs(svcnet, halves, mode=config.accumulation_mode)]
    return HeldOut(
        train_svcs, rec_mod.compute_average_svc(list(train_svcs.values())),
        dict(zip(test.speakers, streams)), dict(zip(test.speakers, trajs)),
        {s: svc_mod.final_svc(traj) for s, traj in zip(test.speakers, trajs)},
        {s: (codes[2 * k], codes[2 * k + 1]) for k, s in enumerate(test.speakers)}, in_last,
    )


def run_eval(config):
    _, train, test = load_split(config)
    encoders = load_encoders(config)
    svcnet = load_svcnet_artifact(config)
    net = load_recognizer_artifact(config)
    held = code_held_out(config, svcnet, encoders, train, test)

    # availability-flag ablation over the full test set
    ablation_rows, ablation_log = rec_mod.ablation_eval(net, test, held.svcs, held.average)
    rows = [
        (int(f.acoustic), int(f.state), int(f.word), fmt_float(rate))
        for f, rate in ablation_rows
    ]
    write_report(config, "ablation.csv", ("acoustic", "state", "word", "error_rate"), rows)

    write_report_lines(config, "predictions.txt", [
        f"{utt} true={truth} predicted={label} "
        f"flags={int(flags.acoustic)}{int(flags.state)}{int(flags.word)}"
        for utt, truth, label, flags in ablation_log
    ])

    # same-vs-different-words protocol: recognize each speaker's last
    # ceil(half) words with a code from {none, the other words, the same
    # words}, every speaker's utterances in one pass per code source.
    # "none" runs every level from the average code, as the ablation's
    # first, all-off setting does: its log starts with every test
    # utterance under that setting, in row order
    last_utterances = held.in_last[test.utterance_bounds()[:-1]]
    off_log = ablation_log[: len(last_utterances)]
    per_source_errors = {"none": [
        label != truth for (_, truth, label, _), last in zip(off_log, last_utterances) if last
    ]}
    on, frames = rec_mod.AvailabilityFlags.all_on(), test.rows(held.in_last)
    for source, half in (("disjoint", 0), ("same", 1)):
        codes = {speaker: held.halves[speaker][half] for speaker in test.speakers}
        _, wrong = rec_mod.word_errors(net, frames, codes, [on], held.average)
        per_source_errors[source] = wrong[0]
    table2_rows = [
        (source, fmt_float(rec_mod.error_rate(per_source_errors[source])))
        for source in ("none", "disjoint", "same")
    ]
    write_report(config, "table2.csv", ("svc_source", "error_rate"), table2_rows)

    # per-word code displacement on the test speakers
    stab_rows = []
    for speaker, stream in held.streams.items():
        disps = svc_mod.svc_stability(held.trajectories[speaker], stream.word_ends())
        for k, d in enumerate(disps):
            stab_rows.append((speaker, k + 1, fmt_float(d)))
    write_report(
        config, "stability.csv", ("speaker", "word_transition", "displacement"), stab_rows
    )
    return {
        "ablation": ablation_rows,
        "table2": {s: rec_mod.error_rate(v) for s, v in per_source_errors.items()},
        "n_table2_utterances": len(per_source_errors["none"]),
    }


# ----------------------------------------------------------- plot export


def principal_rotation(points):
    """Orthogonal rotation onto principal axes, about the mean; pairwise
    distances are preserved. Deterministic sign convention."""
    pts = np.asarray(points, dtype=float)
    centered = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    for i in range(vt.shape[0]):
        j = int(np.argmax(np.abs(vt[i])))
        if vt[i, j] < 0:
            vt[i] = -vt[i]
    if np.linalg.det(vt) < 0:
        vt[-1] = -vt[-1]
    return centered @ vt.T


def run_plot(config, kind, sound=None):
    corpus, train, test = load_split(config)
    encoders = load_encoders(config)
    if kind == "ppc_scatter":
        sounds = sorted(encoders)
        target = sounds[0] if sound is None else SoundId.parse(sound)
        if target not in encoders:
            raise DataError(f"no encoder for sound {target}")
        if target not in corpus.sounds:
            raise DataError(f"no frames of sound {target} in the corpus")
        frames = corpus.rows(corpus.sound == corpus.sounds.index(target))
        codes = ppc_mod.encode_frames(encoders, frames.sounds, frames.sound, frames.frames)
        rows = [
            (corpus.speakers[speaker], index) + tuple(fmt_float(v) for v in rot)
            for speaker, index, rot in zip(
                frames.speaker.tolist(), frames.index.tolist(), principal_rotation(codes)
            )
        ]
        cols = ("speaker", "frame") + tuple(f"code_{i}" for i in range(config.ppc_dim))
        return [write_report(config, f"ppc_scatter_{target.phone}_{target.state}.csv", cols, rows)]
    if kind not in ("svc_trajectory", "svc_halves"):
        raise DataError(
            f"unknown plot kind {kind!r}; valid kinds: ppc_scatter, svc_trajectory, svc_halves"
        )
    held = code_held_out(config, load_svcnet_artifact(config), encoders, train, test)
    if kind == "svc_trajectory":
        cols = ("step", "word_index") + tuple(f"svc_{i}" for i in range(config.svc_dim))
        paths = []
        for speaker, stream in held.streams.items():
            traj = held.trajectories[speaker]
            # the word index at a step: the number of word ends before it
            words = np.searchsorted(stream.word_ends(), np.arange(len(traj))).tolist()
            rows = [(step, word) + tuple(fmt_float(v) for v in point)
                    for step, (word, point) in enumerate(zip(words, traj))]
            paths.append(write_report(config, f"svc_trajectory_{speaker}.csv", cols, rows))
        return paths
    rows = [
        (speaker,) + tuple(fmt_float(v) for v in np.concatenate(pair))
        for speaker, pair in held.halves.items()
    ]
    cols = (
        ("speaker",)
        + tuple(f"first_{i}" for i in range(config.svc_dim))
        + tuple(f"second_{i}" for i in range(config.svc_dim))
    )
    return [write_report(config, "svc_halves.csv", cols, rows)]
