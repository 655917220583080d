"""Stage orchestration shared by the CLI and the test suite.

Every stage is deterministic given the run configuration: all randomness
flows from the per-stage seeds, and every report carries a provenance
header with the config hash, seeds, and corpus path.
"""

import glob
import math
import os

import numpy as np

from . import corpus as corpus_mod
from . import ppc as ppc_mod
from . import recognizer as rec_mod
from . import svc as svc_mod
from .corpus import SoundId
from .errors import DataError
from .fileio import atomic_write_text, fmt_float
from .nets import load_model


def provenance_header(config):
    seeds = ",".join(f"{k}:{v}" for k, v in config.seeds().items())
    return [
        f"# config_hash={config.config_hash()}",
        f"# seeds={seeds}",
        f"# corpus={config.resolved_corpus_path}",
    ]


def write_report(config, name, header_cols, rows):
    os.makedirs(config.resolved_report_dir, exist_ok=True)
    path = os.path.join(config.resolved_report_dir, name)
    lines = provenance_header(config)
    lines.append(",".join(header_cols))
    lines.extend(",".join(str(v) for v in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------- stages


def run_gen(config):
    spec = config.corpus_spec()
    corpus, latents = corpus_mod.generate_corpus(spec)
    os.makedirs(os.path.dirname(config.resolved_corpus_path) or ".", exist_ok=True)
    corpus_mod.save_corpus(corpus, config.resolved_corpus_path)
    corpus_mod.save_latents(latents, config.resolved_latents_path)
    return corpus, latents


def load_split(config):
    corpus = corpus_mod.load_corpus(config.resolved_corpus_path)
    train, test = corpus_mod.split_corpus(
        corpus, config.train_fraction, config.split_seed
    )
    return corpus, train, test


def ppc_model_path(config, sound):
    return os.path.join(
        config.resolved_model_dir, f"ppc_{sound.phone}_{sound.state}.txt"
    )


def run_train_ppc(config):
    _, train, _ = load_split(config)
    encoders, curves = ppc_mod.train_all_encoders(
        train, config.ppc_dim, config.ppc_train_config(), config.min_sound_frames
    )
    os.makedirs(config.resolved_model_dir, exist_ok=True)
    from .nets import save_model

    for sound, enc in encoders.items():
        save_model(enc.net, ppc_model_path(config, sound))
    n_epochs = config.ppc_epochs
    rows = []
    for e in range(n_epochs):
        mean_mse = float(np.mean([curves[s][e] for s in encoders]))
        rows.append((e, fmt_float(mean_mse)))
    write_report(config, "metrics_ppc.csv", ("epoch", "mean_reconstruction_mse"), rows)
    return encoders


def load_encoders(config):
    pattern = os.path.join(config.resolved_model_dir, "ppc_*.txt")
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise DataError(f"no encoder models found (expected {pattern})")
    encoders = {}
    for p in paths:
        stem = os.path.basename(p)[len("ppc_") : -len(".txt")]
        phone, _, state = stem.rpartition("_")
        sound = SoundId(phone, int(state))
        encoders[sound] = ppc_mod.PPCEncoder(sound, load_model(p))
    return encoders


def svcnet_paths(config):
    d = config.resolved_model_dir
    return os.path.join(d, "svcnet.txt"), os.path.join(d, "svcnet.layout")


def run_train_svc(config):
    _, train, _ = load_split(config)
    encoders = load_encoders(config)
    layout = svc_mod.SoundLayout.from_sounds(encoders.keys(), config.ppc_dim)
    svcnet, metrics = svc_mod.train_svcnet(
        train,
        encoders,
        layout,
        config.svc_dim,
        config.svc_train_config(),
        mode=config.accumulation_mode,
        flank_width=config.svc_flank,
    )
    model_path, layout_path = svcnet_paths(config)
    svc_mod.save_svcnet(svcnet, model_path, layout_path)
    rows = [(e, fmt_float(l)) for e, l in enumerate(metrics["epoch_loss"])]
    write_report(config, "metrics_svc.csv", ("epoch", "mean_masked_loss"), rows)
    return svcnet, metrics


def load_svcnet_artifact(config):
    model_path, layout_path = svcnet_paths(config)
    if not (os.path.exists(model_path) and os.path.exists(layout_path)):
        raise DataError(
            f"missing pattern-completion model ({model_path}, {layout_path})"
        )
    return svc_mod.load_svcnet(model_path, layout_path)


def speaker_svc(config, svcnet, encoders, frames):
    """Final speaker code from a frame set: run the stream, average the
    whole trajectory."""
    stream, _ = svc_mod.speaker_stream(frames, encoders)
    traj = svc_mod.extract_svc(svcnet, stream, mode=config.accumulation_mode)
    return svc_mod.final_svc(traj)


def all_speaker_svcs(config, svcnet, encoders, corpus):
    return {
        s: speaker_svc(config, svcnet, encoders, corpus.frames_of_speaker(s))
        for s in corpus.speakers
    }


def recognizer_path(config):
    return os.path.join(config.resolved_model_dir, "recognizer.txt")


def run_train_rec(config):
    _, train, _ = load_split(config)
    encoders = load_encoders(config)
    svcnet = load_svcnet_artifact(config)
    svcs = all_speaker_svcs(config, svcnet, encoders, train)
    net, metrics = rec_mod.train_recognizer(
        train, svcs, config.recognizer_config(), svc_dim=config.svc_dim
    )
    rec_mod.save_recognizer(net, recognizer_path(config))
    rows = [(e, fmt_float(l)) for e, l in enumerate(metrics["epoch_loss"])]
    write_report(config, "metrics_rec.csv", ("epoch", "mean_frame_loss"), rows)
    return net, metrics


def load_recognizer_artifact(config):
    path = recognizer_path(config)
    if not os.path.exists(path):
        raise DataError(f"missing recognizer model ({path})")
    return rec_mod.load_recognizer(path)


# ------------------------------------------------------------ evaluation


def split_speaker_words(frames):
    """(first-half words, last ceil(half) words) of one speaker's frames."""
    words = sorted({f.word for f in frames})
    n_last = math.ceil(len(words) / 2)
    return words[: len(words) - n_last], words[len(words) - n_last :]


def frames_for_words(frames, words):
    keep = set(words)
    return [f for f in frames if f.word in keep]


def run_eval(config):
    _, train, test = load_split(config)
    encoders = load_encoders(config)
    svcnet = load_svcnet_artifact(config)
    net = load_recognizer_artifact(config)

    train_svcs = all_speaker_svcs(config, svcnet, encoders, train)
    avg = rec_mod.compute_average_svc(list(train_svcs.values()))
    # each test speaker's frames are fetched once and their whole-speech
    # trajectory run once: it gives both the speaker code and the stability rows
    test_frames = {s: test.frames_of_speaker(s) for s in test.speakers}
    test_streams = {s: svc_mod.speaker_stream(test_frames[s], encoders) for s in test.speakers}
    test_trajs = {
        s: svc_mod.extract_svc(svcnet, stream, mode=config.accumulation_mode)
        for s, (stream, _) in test_streams.items()
    }
    test_svcs = {s: svc_mod.final_svc(traj) for s, traj in test_trajs.items()}

    # availability-flag ablation over the full test set
    ablation_rows, ablation_log = rec_mod.ablation_eval(net, test, test_svcs, avg)
    rows = [
        (int(f.acoustic), int(f.state), int(f.word), fmt_float(rate))
        for f, rate in ablation_rows
    ]
    write_report(config, "ablation.csv", ("acoustic", "state", "word", "error_rate"), rows)

    pred_lines = provenance_header(config)
    for utt, truth, label, flags in ablation_log:
        pred_lines.append(
            f"{utt} true={truth} predicted={label} "
            f"flags={int(flags.acoustic)}{int(flags.state)}{int(flags.word)}"
        )
    os.makedirs(config.resolved_report_dir, exist_ok=True)
    atomic_write_text(
        os.path.join(config.resolved_report_dir, "predictions.txt"),
        "\n".join(pred_lines) + "\n",
    )

    # same-vs-different-words protocol: recognize each speaker's last
    # ceil(half) words with a code from {none, the other words, the same words}
    on = rec_mod.AvailabilityFlags.all_on()
    off = rec_mod.AvailabilityFlags.all_off()
    per_source_errors = {"none": [], "disjoint": [], "same": []}
    for speaker in test.speakers:
        first_words, last_words = split_speaker_words(test_frames[speaker])
        eval_frames = frames_for_words(test_frames[speaker], last_words)
        utts = {}
        for f in eval_frames:
            utts.setdefault(f.utterance, []).append(f)
        for fr in utts.values():
            fr.sort(key=lambda f: f.index)
        svc_disjoint = speaker_svc(
            config, svcnet, encoders, frames_for_words(test_frames[speaker], first_words)
        )
        svc_same = speaker_svc(config, svcnet, encoders, eval_frames)
        for source, code, flags in (
            ("none", avg, off),
            ("disjoint", svc_disjoint, on),
            ("same", svc_same, on),
        ):
            for utt_id in sorted(utts):
                frames = utts[utt_id]
                label, _ = rec_mod.recognize(
                    net, [f.features for f in frames], code, flags, avg
                )
                per_source_errors[source].append(label != frames[0].word)
    table2_rows = [
        (source, fmt_float(float(np.mean(per_source_errors[source]))))
        for source in ("none", "disjoint", "same")
    ]
    write_report(config, "table2.csv", ("svc_source", "error_rate"), table2_rows)

    # per-word code displacement on the test speakers
    stab_rows = []
    for speaker in test.speakers:
        disps = svc_mod.svc_stability(test_trajs[speaker], test_streams[speaker][1])
        for k, d in enumerate(disps):
            stab_rows.append((speaker, k + 1, fmt_float(d)))
    write_report(
        config, "stability.csv", ("speaker", "word_transition", "displacement"), stab_rows
    )
    return {
        "ablation": ablation_rows,
        "table2": {s: float(np.mean(v)) for s, v in per_source_errors.items()},
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
        target = SoundId.parse(sound) if sound else sounds[0]
        if target not in encoders:
            raise DataError(f"no encoder for sound {target}")
        rows_raw = []
        for f in corpus.frames:
            if f.sound == target:
                rows_raw.append((f.speaker, f.index, ppc_mod.encode_frame(encoders[target], f.features)))
        rotated = principal_rotation([c for _, _, c in rows_raw])
        rows = [
            (spk, idx) + tuple(fmt_float(v) for v in rot)
            for (spk, idx, _), rot in zip(rows_raw, rotated)
        ]
        cols = ("speaker", "frame") + tuple(f"code_{i}" for i in range(config.ppc_dim))
        return [write_report(config, f"ppc_scatter_{target.phone}_{target.state}.csv", cols, rows)]
    svcnet = load_svcnet_artifact(config)
    if kind == "svc_trajectory":
        paths = []
        for speaker in test.speakers:
            stream, boundaries = svc_mod.speaker_stream(
                test.frames_of_speaker(speaker), encoders
            )
            traj = svc_mod.extract_svc(svcnet, stream, mode=config.accumulation_mode)
            bset = sorted(boundaries)
            rows = []
            word = 0
            for step, point in enumerate(traj):
                rows.append((step, word) + tuple(fmt_float(v) for v in point))
                if bset and step == bset[0]:
                    word += 1
                    bset.pop(0)
            cols = ("step", "word_index") + tuple(
                f"svc_{i}" for i in range(config.svc_dim)
            )
            paths.append(
                write_report(config, f"svc_trajectory_{speaker}.csv", cols, rows)
            )
        return paths
    if kind == "svc_halves":
        rows = []
        for speaker in test.speakers:
            frames = test.frames_of_speaker(speaker)
            first_words, last_words = split_speaker_words(frames)
            a = speaker_svc(config, svcnet, encoders, frames_for_words(frames, first_words))
            b = speaker_svc(config, svcnet, encoders, frames_for_words(frames, last_words))
            rows.append(
                (speaker,)
                + tuple(fmt_float(v) for v in a)
                + tuple(fmt_float(v) for v in b)
            )
        cols = (
            ("speaker",)
            + tuple(f"first_{i}" for i in range(config.svc_dim))
            + tuple(f"second_{i}" for i in range(config.svc_dim))
        )
        return [write_report(config, "svc_halves.csv", cols, rows)]
    raise DataError(
        f"unknown plot kind {kind!r}; valid kinds: ppc_scatter, svc_trajectory, svc_halves"
    )
