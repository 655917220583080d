"""Quality criteria 4-8 of the acceptance suite, computed from a trained
run: code stability, utterance independence, latent recovery, the
injection ablation and the word-subset protocol, plus a code-swap error.

The acceptance tests assert `ok` on the default seeds; `scripts/quality.py`
counts passes over many seeds. Each function returns a Result: `ok` at
the criterion's threshold, the `value` the threshold applies to, and a
one-line `detail`.
"""

from dataclasses import dataclass

import numpy as np

from . import pipeline
from . import recognizer as rec_mod
from . import svc as svc_mod


@dataclass(frozen=True)
class Result:
    ok: bool
    value: float
    detail: str


def code_stability(svcnet, encoders, test, mode):
    """Criterion 4: per test speaker, the mean code displacement from the
    fourth word transition on is <= 25% of the first transition, for
    >= 70% of the speakers."""
    streams = svc_mod.speaker_streams([test.frames_of_speaker(s) for s in test.speakers], encoders)
    trajs = svc_mod.extract_svcs(svcnet, streams, mode=mode)
    good, details = 0, []
    for speaker, stream, traj in zip(test.speakers, streams, trajs):
        disps = svc_mod.svc_stability(traj, stream.word_ends())
        early = disps[0]
        late = float(np.mean(disps[3:]))
        good += late <= 0.25 * early
        details.append(f"{speaker}:{late / max(early, 1e-12):.2f}")
    frac = good / len(test.speakers)
    return Result(frac >= 0.7, frac, f"{good}/{len(test.speakers)} " + " ".join(details))


def utterance_independence(config, svcnet, encoders, test):
    """Criterion 5: a speaker's first-half and second-half word codes lie
    closer together than the first-half code lies to any other speaker's
    full code, for >= 70% of test speakers."""
    # each speaker's canonical code comes from their full test stream
    full = pipeline.all_speaker_svcs(config, svcnet, encoders, test)
    coded, halves = pipeline.held_out_frames(test, encoders)
    halves = pipeline.half_svcs(config, svcnet, encoders, halves, coded)
    good = 0
    for speaker, (a, b) in halves.items():
        d_same = np.linalg.norm(a - b)
        d_other = min(np.linalg.norm(a - full[o]) for o in full if o != speaker)
        good += d_same < d_other
    frac = good / len(test.speakers)
    return Result(frac >= 0.7, frac, f"{good}/{len(test.speakers)}")


def latent_recovery(config, svcnet, encoders, train, test, latents):
    """Criterion 6: an affine map fitted from train speakers' codes to
    their ground-truth latents reaches R^2 >= 0.6 on the test speakers."""
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
    return Result(r2 >= 0.6, r2, f"R^2 {r2:.3f}")


def injection_helps(summary):
    """Criterion 7: the error with the true code at every level is no
    higher than with the average code at every level."""
    rows = summary["ablation"]
    err_none, err_all = rows[0][1], rows[-1][1]
    return Result(err_all <= err_none, err_all, f"{err_all:.3f} vs {err_none:.3f}")


def word_subset_protocol(summary):
    """Criterion 8: a code from other words helps, and comes within half
    the same-words error (plus one utterance) of a same-words code."""
    t2 = summary["table2"]
    quantum = 1.0 / summary["n_table2_utterances"]
    ok = (
        t2["disjoint"] <= t2["none"]
        and abs(t2["disjoint"] - t2["same"]) <= 0.5 * t2["same"] + quantum
    )
    detail = f"none {t2['none']:.3f} disjoint {t2['disjoint']:.3f} same {t2['same']:.3f}"
    return Result(ok, t2["disjoint"], detail)


def code_swap_error(config, svcnet, encoders, net, train, test):
    """Error with the true code at every level, where each test speaker is
    recognized with the next test speaker's code (cyclically). Equal to
    the own-code error, it shows the recognizer does not use the code."""
    avg = rec_mod.compute_average_svc(
        list(pipeline.all_speaker_svcs(config, svcnet, encoders, train).values())
    )
    svcs = pipeline.all_speaker_svcs(config, svcnet, encoders, test)
    speakers = list(test.speakers)
    swapped = {s: svcs[speakers[(i + 1) % len(speakers)]] for i, s in enumerate(speakers)}
    rows, _ = rec_mod.ablation_eval(net, test, swapped, avg)
    return rows[-1][1]  # every level on
