"""The benchmark's tracer wraps program functions by name
(perfbench/tracing.py, TARGETS); a rename or deletion of one of them
breaks `perfbench/run.py --trace 1`. This test reads that list without
changing it and checks that every name still resolves in svcnet. It also
runs the benchmark's output checks (perfbench/checks.py) on a tiny run,
so that a program call they make cannot vanish unnoticed."""

import importlib
import importlib.util
import inspect
import os

import numpy as np
import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


def load_perfbench(name):
    """perfbench/<name>.py as a module, loaded from its file."""
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_perfbench("tracing").TARGETS


def test_targets_listed():
    assert TARGETS


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
def test_target_resolves(target):
    owner = importlib.import_module(f"svcnet.{target.module}")
    cls_name, _, attr = target.qualname.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name)
        assert inspect.isclass(owner)
        assert attr in owner.__dict__  # the tracer replaces the class's own attribute
    assert callable(getattr(owner, attr))


def test_corpus_calls_of_the_benchmark():
    """The corpus calls perfbench/run.py and tracing.py make, on a tiny
    split: row and utterance counts, a speaker's rows as enrollment input,
    sound counts keyed by SoundId, and the frames_of_speaker hook."""
    from svcnet import pipeline
    from svcnet.config import RunConfig
    from svcnet.corpus import SoundId, generate_corpus, split_corpus
    from svcnet.ppc import train_all_encoders
    from svcnet.svc import SoundLayout, build_svcnet

    config = RunConfig(n_speakers=5, n_words=3, phones_per_word=2, states_per_phone=2,
                       frames_per_state=2, corpus_seed=3, feature_dim=5, ppc_dim=2,
                       ppc_learning_rate=0.05, ppc_epochs=1, ppc_seed=0)
    corpus, _ = generate_corpus(config)
    train, test = split_corpus(corpus, 0.6, seed=1)
    per_speaker = config.n_words * config.phones_per_word * config.states_per_phone * 2
    assert len(test.frames) == len(test.speakers) * per_speaker
    assert len(test.by_utterance()) == len(test.speakers) * config.n_words

    counts = train.sound_counts()
    assert all(isinstance(sound, SoundId) for sound in counts)
    assert sum(counts.values()) == len(train.frames)
    encoders, _ = train_all_encoders(train, config)
    assert sum(counts[s] for s in encoders) == len(train.frames)

    svcnet = build_svcnet(SoundLayout.from_sounds(encoders, 2), 1, 0, seed=2)
    hook = load_perfbench("tracing")._HOOKS["corpus.Corpus.frames_of_speaker"]
    extra = {"frames_returned": 0, "frames_scanned": 0}
    for speaker in test.speakers:
        frames = test.frames_of_speaker(speaker)
        assert len(frames) == per_speaker
        hook(extra, (test, speaker), frames)
        code = pipeline.speaker_svc(RunConfig(), svcnet, encoders, frames)
        assert code.shape == (1,) and np.all(np.isfinite(code))
    assert extra["frames_returned"] == len(test.frames)
    assert extra["frames_scanned"] == len(test.speakers) * len(test.frames)


def test_eval_summary_of_the_benchmark(tmp_path):
    """What perfbench/run.py reads from run_eval's summary, on a tiny run:
    the error rate with every level on, ablation[-1][1], and
    n_table2_utterances, which counts the test speakers' utterances of
    their last ceil(half) words in name order. The run's models and
    reports pass perfbench/checks.py's checks."""
    from svcnet import pipeline
    from svcnet.config import RunConfig
    from svcnet.recognizer import AvailabilityFlags

    config = RunConfig(out_dir=str(tmp_path), n_speakers=5, n_words=5, states_per_phone=2,
                       frames_per_state=1, feature_dim=5, train_fraction=0.6, svc_flank=4,
                       ppc_epochs=2, svc_epochs=2, rec_acoustic_units=6, rec_state_units=4,
                       rec_epochs=2)
    pipeline.run_gen(config)
    pipeline.run_train_ppc(config)
    pipeline.run_train_svc(config)
    pipeline.run_train_rec(config)
    summary = pipeline.run_eval(config)

    flags, rate = summary["ablation"][-1]
    assert flags == AvailabilityFlags.all_on() and 0.0 <= rate <= 1.0
    _, _, test = pipeline.load_split(config)
    n_last = 0
    for speaker in test.speakers:
        utterances = test.frames_of_speaker(speaker).by_utterance().values()
        words = [rows.words[rows.word[0]] for rows in utterances]
        last = sorted(set(words))[len(set(words)) // 2:]
        n_last += sum(word in last for word in words)
    assert n_last > 0 and summary["n_table2_utterances"] == n_last

    checks = load_perfbench("checks")
    checks.check_models(config, len(pipeline.load_encoders(config)))
    checks.check_reports(config, {})
