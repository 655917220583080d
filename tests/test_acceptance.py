"""End-to-end acceptance suite on the default configuration.

Runs the full pipeline once (module-scoped), reruns it into the same
directory for the determinism check, and verifies every numbered
criterion, printing one pass/fail line each (visible with pytest -s/-v).
"""

import dataclasses
import os
import time

import numpy as np
import pytest

import svcnet.svc as svc_mod
from svcnet import pipeline
from svcnet.config import RunConfig
from svcnet.corpus import load_latents
from svcnet.nets import TrainConfig, gradient_check_battery, init_network
from svcnet.ppc import encoder_spec, reconstruction_mse, sound_inventory
from svcnet.svc import Accumulator, SoundLayout, train_svcnet


def report(num, desc, ok, detail=""):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}" +
          (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {desc} {detail}"


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Full default pipeline; artifacts, summary, and stage timings."""
    out = str(tmp_path_factory.mktemp("acceptance") / "run")
    config = RunConfig(out_dir=out)
    timings = {}
    t0 = time.monotonic()
    corpus, latents = pipeline.run_gen(config)
    timings["gen"] = time.monotonic() - t0

    t = time.monotonic()
    encoders = pipeline.run_train_ppc(config)
    timings["ppc"] = time.monotonic() - t

    t = time.monotonic()
    svcnet, svc_metrics = pipeline.run_train_svc(config)
    timings["svc"] = time.monotonic() - t

    t = time.monotonic()
    recnet, rec_metrics = pipeline.run_train_rec(config)
    timings["rec"] = time.monotonic() - t

    t = time.monotonic()
    summary = pipeline.run_eval(config)
    timings["eval"] = time.monotonic() - t
    timings["total"] = time.monotonic() - t0

    _, train, test = pipeline.load_split(config)
    return {
        "config": config,
        "corpus": corpus,
        "train": train,
        "test": test,
        "latents": latents,
        "encoders": encoders,
        "svcnet": svcnet,
        "recnet": recnet,
        "summary": summary,
        "timings": timings,
    }


def test_criterion_01_gradient_oracle():
    t0 = time.monotonic()
    worst = gradient_check_battery(n_networks=100, seed=0)
    elapsed = time.monotonic() - t0
    report(
        1,
        "analytic gradients match central differences on 100 random masked nets",
        worst < 1e-4 and elapsed < 30.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_masked_target_independence(run, monkeypatch):
    """Values stored at masked target slots must never influence training."""
    train = run["train"]
    encoders = run["encoders"]
    config = run["config"]
    layout = SoundLayout.from_sounds(encoders.keys(), config.ppc_dim)
    dropped = layout.sounds[0]
    gapped = dataclasses.replace(
        train, frames=[f for f in train.frames if f.sound != dropped]
    )
    cfg = TrainConfig(config.svc_learning_rate, 3, config.svc_seed)

    net_a, _ = train_svcnet(
        gapped, encoders, layout, config.svc_dim, cfg,
        mode=config.accumulation_mode, flank_width=config.svc_flank,
    )
    original = svc_mod.make_target

    def corrupted(profile, lay):
        target, mask = original(profile, lay)
        target = target.copy()
        target[~mask] = 777.0
        return target, mask

    monkeypatch.setattr(svc_mod, "make_target", corrupted)
    net_b, _ = train_svcnet(
        gapped, encoders, layout, config.svc_dim, cfg,
        mode=config.accumulation_mode, flank_width=config.svc_flank,
    )
    identical = all(
        np.array_equal(a, b)
        for a, b in zip(
            net_a.net.weights + net_a.net.biases,
            net_b.net.weights + net_b.net.biases,
        )
    )
    report(2, "masked-slot target values leave trained parameters byte-identical",
           identical)


def test_criterion_03_ppc_quality(run):
    train = run["train"]
    encoders = run["encoders"]
    config = run["config"]
    sounds = sound_inventory(train, config.min_sound_frames)
    frames_by_sound = {s: [] for s in sounds}
    for f in train.frames:
        if f.sound in frames_by_sound:
            frames_by_sound[f.sound].append(f.features)
    worst_ratio = 0.0
    for i, sound in enumerate(sounds):
        init = init_network(
            encoder_spec(config.feature_dim, config.ppc_dim), config.ppc_seed + i
        )
        mse_init = reconstruction_mse(init, frames_by_sound[sound])
        mse_final = reconstruction_mse(encoders[sound].net, frames_by_sound[sound])
        worst_ratio = max(worst_ratio, mse_final / mse_init)
    in_budget = run["timings"]["ppc"] < 120.0
    report(
        3,
        "every encoder reaches <= 0.2x its initial reconstruction MSE",
        worst_ratio <= 0.2 and in_budget,
        f"worst ratio {worst_ratio:.3f}, {run['timings']['ppc']:.0f}s",
    )


def _test_trajectories(run):
    test, encoders, svcnet = run["test"], run["encoders"], run["svcnet"]
    mode = run["config"].accumulation_mode
    out = {}
    for speaker in test.speakers:
        stream, boundaries = svc_mod.speaker_stream(
            test.frames_of_speaker(speaker), encoders
        )
        traj = svc_mod.extract_svc(svcnet, stream, mode=mode)
        out[speaker] = (traj, boundaries)
    return out


def test_criterion_04_code_stability(run):
    good = 0
    details = []
    trajs = _test_trajectories(run)
    for speaker, (traj, boundaries) in trajs.items():
        disps = svc_mod.svc_stability(traj, boundaries)
        early = disps[0]
        late = float(np.mean(disps[3:]))
        ok = late <= 0.25 * early
        good += ok
        details.append(f"{speaker}:{late / max(early, 1e-12):.2f}")
    frac = good / len(trajs)
    report(
        4,
        "code movement per word settles to <= 25% of the first transition "
        "after ~4 words for >= 70% of test speakers",
        frac >= 0.7,
        f"{good}/{len(trajs)} " + " ".join(details),
    )


def _half_codes(run):
    config, test, encoders, svcnet = (
        run["config"], run["test"], run["encoders"], run["svcnet"],
    )
    halves = {}
    for speaker in test.speakers:
        frames = test.frames_of_speaker(speaker)
        first_words, last_words = pipeline.split_speaker_words(frames)
        a = pipeline.speaker_svc(
            config, svcnet, encoders, pipeline.frames_for_words(frames, first_words)
        )
        b = pipeline.speaker_svc(
            config, svcnet, encoders, pipeline.frames_for_words(frames, last_words)
        )
        halves[speaker] = (a, b)
    return halves


def test_criterion_05_utterance_independence(run):
    halves = _half_codes(run)
    config, test, encoders, svcnet = (
        run["config"], run["test"], run["encoders"], run["svcnet"],
    )
    # each speaker's canonical code comes from their full test stream
    full = pipeline.all_speaker_svcs(config, svcnet, encoders, test)
    good = 0
    for speaker, (a, b) in halves.items():
        d_same = np.linalg.norm(a - b)
        d_other = min(
            np.linalg.norm(a - full[other]) for other in full if other != speaker
        )
        good += d_same < d_other
    frac = good / len(halves)
    report(
        5,
        "first-half and second-half codes of one speaker lie closer together "
        "than to any other speaker for >= 70% of test speakers",
        frac >= 0.7,
        f"{good}/{len(halves)}",
    )


def test_criterion_06_latent_recovery(run):
    config, train, test, encoders, svcnet = (
        run["config"], run["train"], run["test"], run["encoders"], run["svcnet"],
    )
    latents = load_latents(config.resolved_latents_path)
    train_svcs = pipeline.all_speaker_svcs(config, svcnet, encoders, train)
    test_svcs = pipeline.all_speaker_svcs(config, svcnet, encoders, test)

    def design(svcs, speakers):
        x = np.array([svcs[s] for s in speakers])
        return np.hstack([x, np.ones((len(speakers), 1))])

    y_train = np.array([latents[s] for s in train.speakers])
    coef, *_ = np.linalg.lstsq(design(train_svcs, train.speakers), y_train, rcond=None)
    y_test = np.array([latents[s] for s in test.speakers])
    pred = design(test_svcs, test.speakers) @ coef
    ss_res = float(np.sum((pred - y_test) ** 2))
    ss_tot = float(np.sum((y_test - y_test.mean(axis=0)) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    report(6, "affine map from code to ground-truth speaker latents reaches R^2 >= 0.6",
           r2 >= 0.6, f"R^2 {r2:.3f}")


def test_criterion_07_injection_helps(run):
    rows = run["summary"]["ablation"]
    err_none = rows[0][1]
    err_all = rows[-1][1]
    report(
        7,
        "error with the true code at every level <= error with the average code",
        err_all <= err_none,
        f"{err_all:.3f} vs {err_none:.3f}",
    )


def test_criterion_08_word_subset_protocol(run):
    t2 = run["summary"]["table2"]
    quantum = 1.0 / run["summary"]["n_table2_utterances"]
    ok = (
        t2["disjoint"] <= t2["none"]
        and abs(t2["disjoint"] - t2["same"]) <= 0.5 * t2["same"] + quantum
    )
    report(
        8,
        "a code from unrelated words helps, and nearly matches a same-words code",
        ok,
        f"none {t2['none']:.3f} disjoint {t2['disjoint']:.3f} same {t2['same']:.3f}",
    )


def test_criterion_09_running_average_oracle():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        n_sounds = int(rng.integers(2, 6))
        code_dim = int(rng.integers(1, 4))
        layout = SoundLayout.from_sounds(
            [svc_mod.SoundId(f"p{i:02d}", 0) for i in range(n_sounds)], code_dim
        )
        mode = svc_mod.MODES[int(rng.integers(2))]
        acc = Accumulator(layout, mode)
        seen = {}
        for _ in range(int(rng.integers(1, 40))):
            sound = layout.sounds[int(rng.integers(n_sounds))]
            code = rng.random(code_dim)
            acc.observe(sound, code)
            if rng.random() < 0.5:
                acc.commit_output(rng.random(layout.width))
            seen.setdefault(sound, []).append(code)
            for s, codes in seen.items():
                brute = np.mean(codes, axis=0)
                worst = max(worst, float(np.abs(acc.mean(s) - brute).max()))
    report(9, "accumulator means equal brute-force means within 1e-12",
           worst <= 1e-12, f"worst {worst:.1e}")


def test_criterion_10_determinism_and_budget(run):
    config = run["config"]
    tracked = []
    for d in (config.resolved_model_dir, config.resolved_report_dir):
        for name in sorted(os.listdir(d)):
            tracked.append(os.path.join(d, name))
    before = {p: open(p, "rb").read() for p in tracked}

    pipeline.run_gen(config)
    pipeline.run_train_ppc(config)
    pipeline.run_train_svc(config)
    pipeline.run_train_rec(config)
    pipeline.run_eval(config)

    stale = [p for p in tracked if open(p, "rb").read() != before[p]]
    total = run["timings"]["total"]
    report(
        10,
        "identical rerun reproduces every model and report byte-for-byte in budget",
        not stale and total < 600.0,
        f"{len(tracked)} files, first run {total:.0f}s",
    )
