"""Quality criteria 4-8 of the acceptance suite, computed from a trained
run: code stability, utterance independence, latent recovery, the
injection ablation and the word-subset protocol, plus a code-swap error.

Criteria 4-6 and the code-swap error read the codes of one
pipeline.HeldOut. The acceptance tests assert `ok` on the default seeds;
`scripts/quality.py` counts passes over many seeds. Each function
returns a Result: `ok` at the criterion's threshold, the `value` the
threshold applies to, and a one-line `detail`.
"""

from dataclasses import dataclass

import numpy as np

from . import recognizer as rec_mod
from . import svc as svc_mod
from .errors import DataError


@dataclass(frozen=True)
class Result:
    ok: bool
    value: float
    detail: str


def code_stability(held):
    """Criterion 4: per test speaker, the mean code displacement from the
    fourth word transition on is <= 25% of the first transition, for
    >= 70% of the speakers; DataError for a speaker with fewer than 5
    words, who has no fourth transition."""
    good, details = 0, []
    for speaker, stream in held.streams.items():
        disps = svc_mod.svc_stability(held.trajectories[speaker], stream.word_ends())
        if len(disps) < 4:
            raise DataError(f"code stability needs 5 words per test speaker: speaker {speaker} "
                            f"has {len(disps) + 1}")
        early = disps[0]
        late = float(np.mean(disps[3:]))
        good += late <= 0.25 * early
        details.append(f"{speaker}:{late / max(early, 1e-12):.2f}")
    frac = good / len(held.streams)
    return Result(frac >= 0.7, frac, f"{good}/{len(held.streams)} " + " ".join(details))


def utterance_independence(held):
    """Criterion 5: a speaker's first-half and second-half word codes lie
    closer together than the first-half code lies to any other speaker's
    full code, for >= 70% of test speakers."""
    full = held.svcs  # each speaker's canonical code comes from their full test stream
    good = 0
    for speaker, (a, b) in held.halves.items():
        d_same = np.linalg.norm(a - b)
        d_other = min(np.linalg.norm(a - full[o]) for o in full if o != speaker)
        good += d_same < d_other
    frac = good / len(full)
    return Result(frac >= 0.7, frac, f"{good}/{len(full)}")


def latent_recovery(held, latents):
    """Criterion 6: an affine map fitted from train speakers' codes to
    their ground-truth latents reaches R^2 >= 0.6 on the test speakers."""

    def design(svcs):
        return np.hstack([np.array(list(svcs.values())), np.ones((len(svcs), 1))])

    y_train = np.array([latents[s] for s in held.train_svcs])
    coef, *_ = np.linalg.lstsq(design(held.train_svcs), y_train, rcond=None)
    y_test = np.array([latents[s] for s in held.svcs])
    pred = design(held.svcs) @ coef
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


def code_swap_error(held, net, test):
    """Error with the true code at every level, where each test speaker is
    recognized with the next test speaker's code (cyclically): one
    all-on recognition pass over the test utterances. Equal to the
    own-code error, it shows the recognizer does not use the code."""
    speakers = list(held.svcs)
    swapped = {s: held.svcs[speakers[(i + 1) % len(speakers)]] for i, s in enumerate(speakers)}
    on = rec_mod.AvailabilityFlags.all_on()
    _, wrong = rec_mod.word_errors(net, test, swapped, [on], held.average)
    return rec_mod.error_rate(wrong[0])
