import contextlib
import dataclasses
import functools
import importlib.util
import io
import json
import os
import random
import re
import runpy
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcnet import pipeline, quality
from svcnet import recognizer as rec_mod
from svcnet import svc as svc_mod
from svcnet.cli import main
from svcnet.config import RunConfig
from svcnet.corpus import SoundId
from svcnet.errors import DataError
from svcnet.fileio import fmt_float
from svcnet.pipeline import load_split, principal_rotation
from svcnet.ppc import codable_frames

TINY = dict(
    n_speakers=6,
    n_words=4,
    phones_per_word=2,
    states_per_phone=2,
    frames_per_state=2,
    noise_std=0.05,
    feature_dim=6,
    latent_dim=2,
    corpus_seed=11,
    train_fraction=0.7,
    split_seed=12,
    ppc_dim=2,
    ppc_learning_rate=0.05,
    ppc_epochs=4,
    ppc_seed=13,
    svc_dim=2,
    svc_flank=4,
    svc_learning_rate=0.05,
    svc_epochs=4,
    svc_seed=14,
    rec_acoustic_units=8,
    rec_state_units=6,
    rec_learning_rate=0.2,
    rec_epochs=3,
    rec_seed=15,
)


@pytest.fixture
def tiny_config_path(tmp_path):
    cfg = dict(TINY)
    cfg["out_dir"] = str(tmp_path / "run")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli() == 1

    def test_unknown_command(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_train_requires_stage(self, capsys):
        assert run_cli("train") == 1

    def test_bad_stage(self, capsys):
        assert run_cli("train", "--stage", "bogus") == 1

    def test_unknown_plot_kind_lists_valid(self, capsys):
        code = run_cli("plot", "--kind", "bogus")
        assert code == 1
        err = capsys.readouterr().err
        for kind in ("ppc_scatter", "svc_trajectory", "svc_halves"):
            assert kind in err


class TestGradcheck:
    def test_passes(self, capsys):
        assert run_cli("gradcheck") == 0
        assert "PASS" in capsys.readouterr().out


class TestGen:
    def test_writes_corpus_and_latents(self, tiny_config_path, capsys):
        assert run_cli("gen", "--config", tiny_config_path) == 0
        cfg = RunConfig.from_file(tiny_config_path)
        assert os.path.exists(cfg.resolved_corpus_path)
        assert os.path.exists(cfg.resolved_latents_path)

    def test_bad_out_path_leaves_no_partial_file(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        code = run_cli("gen", "--out", str(blocker / "run"))
        assert code == 2
        assert blocker.read_text() == "not a directory"
        assert not (tmp_path / "blocked" / "run").exists()

    @pytest.mark.parametrize("key, value", [
        pytest.param("noise_std", 1e308, id="noise_std"),
        pytest.param("speaker_effect_scale", 1e308, id="speaker_effect_scale"),
        pytest.param("speaker_effect_scale", 1e300, id="speaker_effect_scale-rounding"),
    ])
    def test_overflowing_features_leave_no_corpus(self, tmp_path, capsys, recwarn, key, value):
        """A finite scale whose features overflow to infinity, in the draw
        or (at 1e300) in rounding them to 12 decimals, is refused before
        anything is written, with exit 2, one line naming both scales and
        no numpy warning."""
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"out_dir": str(tmp_path / "run"), key: value}))
        assert run_cli("gen", "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert re.search("features are not finite: noise_std .* speaker_effect_scale .* too large",
                         err)
        assert not recwarn.list
        assert not (tmp_path / "run").exists()

    def test_bad_config_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert run_cli("gen", "--config", str(path)) == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"out_dir": str(tmp_path), "no_such_key": 1}))
        assert run_cli("gen", "--config", str(path)) == 2


    @pytest.mark.parametrize(
        "key, value",
        [("n_speakers", "x"), ("n_speakers", 2.5), ("ppc_learning_rate", "0.1"),
         ("svc_epochs", True), ("accumulation_mode", 1), ("out_dir", None)],
    )
    def test_config_value_of_wrong_type(self, tmp_path, capsys, key, value):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({"out_dir": str(tmp_path / "run"), key: value}))
        assert run_cli("gen", "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(path) in err and repr(key) in err
        assert not (tmp_path / "run").exists()

    def test_config_integer_for_float_field(self, tmp_path, capsys):
        path = tmp_path / "int.json"
        path.write_text(json.dumps({"noise_std": 0, "svc_learning_rate": 1}))
        config = RunConfig.from_file(str(path))
        assert config.noise_std == 0 and config.svc_learning_rate == 1


class TestMissingPrerequisites:
    def test_train_ppc_without_corpus(self, tiny_config_path, capsys):
        assert run_cli("train", "--stage", "ppc", "--config", tiny_config_path) == 2

    def test_train_svc_without_encoders_names_pattern(self, tiny_config_path, capsys):
        assert run_cli("gen", "--config", tiny_config_path) == 0
        code = run_cli("train", "--stage", "svc", "--config", tiny_config_path)
        assert code == 2
        assert "ppc_" in capsys.readouterr().err

    def test_train_rec_without_svcnet(self, tiny_config_path, capsys):
        assert run_cli("gen", "--config", tiny_config_path) == 0
        assert run_cli("train", "--stage", "ppc", "--config", tiny_config_path) == 0
        code = run_cli("train", "--stage", "rec", "--config", tiny_config_path)
        assert code == 2
        assert "svcnet" in capsys.readouterr().err

    def test_eval_without_recognizer(self, tiny_config_path, capsys):
        assert run_cli("gen", "--config", tiny_config_path) == 0
        assert run_cli("train", "--stage", "ppc", "--config", tiny_config_path) == 0
        assert run_cli("train", "--stage", "svc", "--config", tiny_config_path) == 0
        assert run_cli("eval", "--config", tiny_config_path) == 2


class TestTrainRec:
    def trained_svc(self, path, capsys):
        for verb in ("gen", "ppc", "svc"):
            argv = (verb,) if verb == "gen" else ("train", "--stage", verb)
            assert run_cli(*argv, "--config", path) == 0
        capsys.readouterr()

    def test_prints_presentations_batches_and_final_loss(self, tiny_config_path, capsys):
        self.trained_svc(tiny_config_path, capsys)
        assert run_cli("train", "--stage", "rec", "--config", tiny_config_path) == 0
        config = RunConfig.from_file(tiny_config_path)
        n = len(load_split(config)[1].frames)
        epochs = TINY["rec_epochs"]
        last = read_report(config, "metrics_rec.csv")[2][-1][1]
        assert capsys.readouterr().out == (
            f"train rec: {epochs * n} presentations in {epochs * -(-n // 16)} batches, "
            f"final frame loss {float(last):.5f}\n"
        )

    @pytest.mark.parametrize("code", [[0.5, 0.5, 0.5], [0.5, float("nan")]])
    def test_bad_speaker_code_exits_2(self, tiny_config_path, capsys, monkeypatch, code):
        """A code that is not a finite vector of svc_dim values is refused
        before the first step, naming the speaker."""
        self.trained_svc(tiny_config_path, capsys)
        real = pipeline.all_speaker_svcs

        def one_bad_code(*args):
            svcs = real(*args)
            svcs[next(iter(svcs))] = np.array(code)
            return svcs

        monkeypatch.setattr(pipeline, "all_speaker_svcs", one_bad_code)
        assert run_cli("train", "--stage", "rec", "--config", tiny_config_path) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert re.match(r"error: speaker \S+: speaker code is not a finite vector of length 2$",
                        err.strip())


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One end-to-end tiny pipeline shared by the report-shape tests."""
    base = tmp_path_factory.mktemp("full")
    cfg = dict(TINY)
    cfg["out_dir"] = str(base / "run")
    path = base / "config.json"
    path.write_text(json.dumps(cfg))
    cpath = str(path)
    for argv in (
        ("gen", "--config", cpath),
        ("train", "--stage", "ppc", "--config", cpath),
        ("train", "--stage", "svc", "--config", cpath),
        ("train", "--stage", "rec", "--config", cpath),
        ("eval", "--config", cpath),
    ):
        assert main(list(argv)) == 0
    return RunConfig.from_file(cpath), cpath


def read_report(config, name):
    path = os.path.join(config.resolved_report_dir, name)
    lines = [l for l in open(path).read().splitlines() if l]
    header_comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    return header_comments, body[0].split(","), [l.split(",") for l in body[1:]]


class TestReports:
    def test_metrics_epochs_monotone(self, full_run):
        config, _ = full_run
        for name, epochs in (
            ("metrics_ppc.csv", TINY["ppc_epochs"]),
            ("metrics_svc.csv", TINY["svc_epochs"]),
            ("metrics_rec.csv", TINY["rec_epochs"]),
        ):
            comments, cols, rows = read_report(config, name)
            assert cols[0] == "epoch"
            assert [int(r[0]) for r in rows] == list(range(epochs))
            assert all(np.isfinite(float(r[1])) for r in rows)

    def test_provenance_headers(self, full_run):
        """The provenance names no directory the run was written to: the
        config hash leaves the four paths out, and the corpus path is
        relative to the report directory."""
        config, _ = full_run
        comments, _, _ = read_report(config, "ablation.csv")
        assert comments == [f"# config_hash={config.config_hash()}",
                            "# seeds=corpus:11,split:12,ppc:13,svc:14,rec:15",
                            "# corpus=../corpus.csv"]
        moved = dataclasses.replace(config, out_dir="elsewhere", corpus_path="c.csv",
                                    model_dir="m", report_dir="r")
        assert moved.config_hash() == config.config_hash()
        assert dataclasses.replace(config, svc_epochs=5).config_hash() != config.config_hash()

    def test_ablation_shape(self, full_run):
        config, _ = full_run
        _, cols, rows = read_report(config, "ablation.csv")
        assert cols == ["acoustic", "state", "word", "error_rate"]
        assert len(rows) == 8
        assert [r[:3] for r in rows] == [
            [str((i >> 2) & 1), str((i >> 1) & 1), str(i & 1)] for i in range(8)
        ]
        assert all(0.0 <= float(r[3]) <= 1.0 for r in rows)

    def test_table2_shape(self, full_run):
        config, _ = full_run
        _, cols, rows = read_report(config, "table2.csv")
        assert cols == ["svc_source", "error_rate"]
        assert [r[0] for r in rows] == ["none", "disjoint", "same"]

    def test_stability_shape(self, full_run):
        config, _ = full_run
        _, cols, rows = read_report(config, "stability.csv")
        assert cols == ["speaker", "word_transition", "displacement"]
        assert rows
        assert all(float(r[2]) >= 0.0 for r in rows)

    def test_predictions_lines(self, full_run):
        config, _ = full_run
        path = os.path.join(config.resolved_report_dir, "predictions.txt")
        body = [
            l for l in open(path).read().splitlines() if l and not l.startswith("#")
        ]
        assert body
        for line in body:
            assert " true=" in line and " predicted=" in line and " flags=" in line

    def test_eval_rerun_byte_identical(self, full_run):
        config, cpath = full_run
        names = ("ablation.csv", "table2.csv", "stability.csv", "predictions.txt")
        before = {
            n: open(os.path.join(config.resolved_report_dir, n), "rb").read()
            for n in names
        }
        assert main(["eval", "--config", cpath]) == 0
        for n in names:
            after = open(os.path.join(config.resolved_report_dir, n), "rb").read()
            assert after == before[n]

    def test_model_files_exist(self, full_run):
        config, _ = full_run
        models = sorted(os.listdir(config.resolved_model_dir))
        assert any(m.startswith("ppc_") for m in models)
        assert [m for m in models if not m.startswith("ppc_")] == [
            "recognizer.txt",
            "svcnet.txt",
        ]


@pytest.fixture(scope="module", params=[("feedback", 0), ("zero_fill", 0), ("feedback", 2)],
                ids=["feedback", "zero_fill", "rec_window_2"])
def mode_run(request, tmp_path_factory):
    """A tiny pipeline in each accumulation mode, and one whose recognizer
    windows are clipped at utterance edges: config, encoders, svcnet,
    recognizer and the eval summary."""
    mode, window = request.param
    out = tmp_path_factory.mktemp(mode) / "run"
    config = RunConfig(**TINY, accumulation_mode=mode, rec_window=window, out_dir=str(out))
    pipeline.run_gen(config)
    encoders = pipeline.run_train_ppc(config)
    svcnet, _ = pipeline.run_train_svc(config)
    net, _ = pipeline.run_train_rec(config)
    return config, encoders, svcnet, net, pipeline.run_eval(config)


class TestTable2:
    def test_equals_per_speaker_loop(self, mode_run, monkeypatch):
        """Table 2 equals the per-speaker protocol: each speaker's
        last-half utterances recognized frame by frame (`recognize`) under
        each code source, with the half codes coded one speaker half at a
        time; its "none" column equals the ablation's all-off predictions
        on those utterances. Tiny recognizers predict alike under every
        code, so the scores of run_eval's passes are compared too, bit for
        bit."""
        config, encoders, svcnet, net, summary = mode_run
        recognize = rec_mod.recognize_corpus
        blocks = []  # (flags, scores) of each call run_eval makes

        def spy(*args):
            blocks.append((args[3], recognize(*args)))
            return blocks[-1][1]

        monkeypatch.setattr(rec_mod, "recognize_corpus", spy)
        assert pipeline.run_eval(config) == summary

        _, train, test = load_split(config)
        avg = rec_mod.compute_average_svc(
            list(pipeline.all_speaker_svcs(config, svcnet, encoders, train).values()))
        frame_sets = [test.frames_of_speaker(s) for s in test.speakers]
        on, off = rec_mod.AvailabilityFlags.all_on(), rec_mod.AvailabilityFlags.all_off()
        scores = {"none": [], "disjoint": [], "same": []}
        errors = {"none": [], "disjoint": [], "same": []}
        in_last, none_labels = [], {}
        for frames, codable in zip(frame_sets, codable_frames(frame_sets, encoders)):
            first, last = pipeline.split_speaker_words(frames)
            disjoint, same = (
                pipeline.speaker_svc(config, svcnet, encoders,
                                     codable.rows(np.isin(codable.word, words)))
                for words in (first, last))
            in_last += [w in last for w in frames.word[frames.utterance_bounds()[:-1]]]
            frames = frames.rows(np.isin(frames.word, last))
            bounds = frames.utterance_bounds()
            feats = [frames.frames[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
            words = [frames.words[w] for w in frames.word[bounds[:-1]]]
            for source, code, flags in (("none", avg, off), ("disjoint", disjoint, on),
                                        ("same", same, on)):
                scores[source].append(np.array(
                    [rec_mod.recognize(net, f, code, flags, avg)[1] for f in feats]))
                labels = [net.words[k] for k in scores[source][-1].argmax(axis=-1)]
                errors[source] += [label != word for label, word in zip(labels, words)]
                if source == "none":
                    utterances = frames.utterance[bounds[:-1]]
                    none_labels.update(zip((frames.utterances[u] for u in utterances), labels))
        rates = {source: rec_mod.error_rate(wrong) for source, wrong in errors.items()}
        assert summary["table2"] == rates
        assert summary["n_table2_utterances"] == len(errors["none"])
        _, _, rows = read_report(config, "table2.csv")
        assert rows == [[source, fmt_float(rate)] for source, rate in rates.items()]

        table2 = [block[0] for flags, block in blocks if flags == [on]]
        assert len(table2) == 2
        for source, block in zip(("disjoint", "same"), table2):
            assert np.array_equal(block, np.concatenate(scores[source]))
        all_off = np.concatenate([block[0] for flags, block in blocks if len(flags) == 8])
        assert np.array_equal(all_off[in_last], np.concatenate(scores["none"]))
        path = os.path.join(config.resolved_report_dir, "predictions.txt")
        predicted = {}
        for line in open(path).read().splitlines():
            if line.endswith(" flags=000"):
                utterance, _, label, _ = line.split()
                predicted[utterance] = label.removeprefix("predicted=")
        assert {u: predicted[u] for u in none_labels} == none_labels


class TestHeldOut:
    def test_codes_equal_coding_each_frame_set_alone(self, mode_run):
        """code_held_out's single coding pass gives, bit for bit, the train
        codes of all_speaker_svcs, each test speaker's speaker_svc of its
        frames and each half's speaker_svc of its codable rows."""
        config, encoders, svcnet, _, _ = mode_run
        _, train, test = load_split(config)
        held = pipeline.code_held_out(config, svcnet, encoders, train, test)
        train_svcs = pipeline.all_speaker_svcs(config, svcnet, encoders, train)
        assert list(held.train_svcs) == list(train_svcs)
        for speaker, code in train_svcs.items():
            assert np.array_equal(held.train_svcs[speaker], code)
        assert np.array_equal(held.average,
                              rec_mod.compute_average_svc(list(train_svcs.values())))
        frame_sets = [test.frames_of_speaker(s) for s in test.speakers]
        assert list(held.streams) == list(held.svcs) == list(held.halves) == list(test.speakers)
        in_last = []
        for speaker, frames, codable in zip(test.speakers, frame_sets,
                                            codable_frames(frame_sets, encoders)):
            assert np.array_equal(held.svcs[speaker],
                                  pipeline.speaker_svc(config, svcnet, encoders, frames))
            assert np.array_equal(held.svcs[speaker], held.trajectories[speaker].mean(axis=0))
            assert len(held.streams[speaker]) == len(held.trajectories[speaker])
            first, last = pipeline.split_speaker_words(frames)
            for words, code in zip((first, last), held.halves[speaker]):
                rows = codable.rows(np.isin(codable.word, words))
                assert np.array_equal(code, pipeline.speaker_svc(config, svcnet, encoders, rows))
            in_last.append(np.isin(frames.word, last))
        assert np.array_equal(held.in_last, np.concatenate(in_last))

    def test_eval_codes_each_test_frame_once(self, mode_run, monkeypatch):
        """run_eval encodes the train and the test frames once each: one
        speaker_streams call per split, one extract_svcs call for the train
        speakers and two for the test speakers (whole streams, halves)."""
        config, _, _, _, summary = mode_run
        _, train, test = load_split(config)
        streams_of, extracted, encoded = [], [], []
        speaker_streams, extract_svcs = svc_mod.speaker_streams, svc_mod.extract_svcs
        encode_frames = svc_mod.encode_frames

        def streams_spy(frame_sets, encoders):
            streams_of.append([f.speakers[f.speaker[0]] for f in frame_sets])
            return speaker_streams(frame_sets, encoders)

        def extract_spy(svcnet, streams, mode):
            extracted.append(len(streams))
            return extract_svcs(svcnet, streams, mode=mode)

        def encode_spy(bank, sounds, ids, frames):
            encoded.append(len(ids))
            return encode_frames(bank, sounds, ids, frames)

        monkeypatch.setattr(svc_mod, "speaker_streams", streams_spy)
        monkeypatch.setattr(svc_mod, "extract_svcs", extract_spy)
        monkeypatch.setattr(svc_mod, "encode_frames", encode_spy)
        assert pipeline.run_eval(config) == summary
        assert streams_of == [list(train.speakers), list(test.speakers)]
        assert extracted == [len(train.speakers), len(test.speakers), 2 * len(test.speakers)]
        assert encoded == [len(train), len(test)]

    def test_stability_ratios_are_the_reports(self, tmp_path):
        """code_stability reads the displacements that stability.csv holds:
        its per-speaker ratios equal those recomputed from the report (6
        words, so that every speaker has a fourth word transition)."""
        config = RunConfig(**dict(TINY, n_words=6), out_dir=str(tmp_path / "run"))
        pipeline.run_gen(config)
        encoders = pipeline.run_train_ppc(config)
        svcnet, _ = pipeline.run_train_svc(config)
        pipeline.run_train_rec(config)
        pipeline.run_eval(config)
        _, train, test = load_split(config)
        held = pipeline.code_held_out(config, svcnet, encoders, train, test)
        displacements = {}
        for speaker, _, d in read_report(config, "stability.csv")[2]:
            displacements.setdefault(speaker, []).append(float(d))
        ratios = [f"{s}:{float(np.mean(d[3:])) / max(d[0], 1e-12):.2f}"
                  for s, d in displacements.items()]
        assert list(displacements) == list(test.speakers)
        assert quality.code_stability(held).detail.split()[1:] == ratios

    def test_code_swap_error_is_the_ablations_all_on_row(self, mode_run, monkeypatch):
        """code_swap_error's one all-on pass scores every test utterance
        bit for bit as ablation_eval's all-on setting does with each test
        speaker's code swapped for the next one's, so its error is that
        setting's row."""
        config, encoders, svcnet, net, _ = mode_run
        _, train, test = load_split(config)
        held = pipeline.code_held_out(config, svcnet, encoders, train, test)
        speakers = list(test.speakers)
        swapped = {s: held.svcs[speakers[(i + 1) % len(speakers)]] for i, s in enumerate(speakers)}
        assert not any(np.array_equal(swapped[s], held.svcs[s]) for s in speakers)
        recognize = rec_mod.recognize_corpus
        calls = []  # (flags, scores) of each recognition pass

        def spy(*args):
            calls.append((list(args[3]), recognize(*args)))
            return calls[-1][1]

        monkeypatch.setattr(rec_mod, "recognize_corpus", spy)
        rows, _ = rec_mod.ablation_eval(net, test, swapped, held.average)
        blocks = len(calls)
        error = quality.code_swap_error(held, net, test)
        on = rec_mod.AvailabilityFlags.all_on()
        [(flags, scores)] = calls[blocks:]
        assert flags == [on]
        all_on = np.concatenate([s[f.index(on)] for f, s in calls[:blocks]])
        assert np.array_equal(scores[0], all_on)
        assert rows[-1][0] == on and error == rows[-1][1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stability_refuses_speakers_of_few_words(self, full_run):
        """TINY has 4 words, so no fourth word transition: criterion 4
        refuses in one line that names the first test speaker."""
        config, _ = full_run
        _, train, test = load_split(config)
        held = pipeline.code_held_out(config, pipeline.load_svcnet_artifact(config),
                                      pipeline.load_encoders(config), train, test)
        with pytest.raises(DataError) as refused:
            quality.code_stability(held)
        assert str(refused.value) == (f"code stability needs 5 words per test speaker: "
                                      f"speaker {test.speakers[0]} has 4")


class TestMalformedArtifacts:
    """Corrupted copies of the full run's outputs end in exit 2 with a
    one-line message."""

    @pytest.fixture
    def out(self, full_run, tmp_path):
        config, _ = full_run
        out = tmp_path / "run"
        shutil.copytree(config.out_dir, out)
        return out

    def eval_error(self, full_run, out, capsys):
        _, cpath = full_run
        assert main(["eval", "--config", cpath, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        return err

    def test_truncated_svcnet_model(self, full_run, out, capsys):
        path = out / "models" / "svcnet.txt"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[: len(lines) // 2]))
        assert "svcnet.txt" in self.eval_error(full_run, out, capsys)

    def test_bottleneck_outside_hidden_layers(self, full_run, out, capsys):
        path = out / "models" / "svcnet.txt"
        path.write_text(re.sub(r"bottleneck=\d+", "bottleneck=9", path.read_text()))
        assert "bottleneck 9" in self.eval_error(full_run, out, capsys)

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda text: re.sub(r"sounds=\S*", "sounds=", text, count=1),
            lambda text: "",
            lambda text: text.replace("code_dim=", "cdim=", 1),
            lambda text: text.replace("sounds=p00:0", "sounds=p00:x", 1),
        ],
        ids=["empty", "empty_file", "renamed_field", "non_integer_state"],
    )
    def test_malformed_layout(self, full_run, out, capsys, rewrite):
        path = out / "models" / "svcnet.txt"
        text = path.read_text()
        assert rewrite(text) != text
        path.write_text(rewrite(text))
        assert "svcnet.txt" in self.eval_error(full_run, out, capsys)

    @pytest.mark.parametrize("name", ["svcnet.txt", "ppc_p00_0.txt", "recognizer.txt"])
    def test_non_numeric_parameter(self, full_run, out, capsys, name):
        path = out / "models" / name
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = re.sub(r"\d", "x", lines[2], count=1)
        path.write_text("".join(lines))
        assert name in self.eval_error(full_run, out, capsys)

    @pytest.mark.parametrize("mutation", ["deleted_row", "non_numeric_value"])
    def test_encoder_row_value_not_a_float(self, full_run, out, capsys, mutation):
        """A row value that float() refuses is named with its line and its
        array. With a row of w1 deleted, the b1 header is read as w1's
        last row (TINY's w1 is 2 wide, as many fields as the header)."""
        _, cpath = full_run
        path = out / "models" / "ppc_p00_0.txt"
        lines = path.read_text().splitlines(keepends=True)
        w1 = [line.split()[0] for line in lines].index("w1")
        if mutation == "deleted_row":
            del lines[w1 + 1]
            number, value = [line.split()[0] for line in lines].index("b1") + 1, "b1"
        else:
            lines[w1 + 1] = "x " + lines[w1 + 1].split(" ", 1)[1]
            number, value = w1 + 2, "x"
        path.write_text("".join(lines))
        assert main(["train", "--stage", "svc", "--config", cpath, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line {number}: w1: could not convert string to float: {value!r}\n")

    @pytest.mark.parametrize(
        "name, pattern, value",
        [
            ("recognizer.txt", r"window=0 ", "window=0_0 "),
            ("recognizer.txt", r"svc_dim=2 ", "svc_dim=+2 "),
            ("recognizer.txt", r"svc_dim=2 ", "svc_dim=\u0662 "),
            ("svcnet.txt", r"bottleneck=2 ", "bottleneck=0_2 "),
            ("svcnet.txt", r"p00:0,", "p00:\u0660,"),
            ("ppc_p00_0.txt", r"sizes=6,2,6 ", "sizes=6,+2,6 "),
            ("ppc_p00_0.txt", r"\nw0 2 6\n", "\nw0 \u0662 6\n"),
            ("ppc_p00_0.txt", r"\nw0 2 6\n\S+", "\nw0 2 6\n1_0"),
            ("ppc_p00_0.txt", r"\nw0 2 6\n\S+", "\nw0 2 6\n\u0662"),
        ],
        ids=["window_0_0", "svc_dim_plus", "svc_dim_arabic", "bottleneck_0_2", "sound_arabic",
             "sizes_plus", "array_dim_arabic", "row_value_1_0", "row_value_arabic"],
    )
    def test_number_in_a_form_never_written(self, full_run, out, capsys, name, pattern, value):
        """int() and float() read each of these as the number the file
        held; the model format writes ASCII digits without '_'."""
        path = out / "models" / name
        text = path.read_text()
        assert re.search(pattern, text)
        path.write_text(re.sub(pattern, value, text, count=1), encoding="utf-8")
        assert name in self.eval_error(full_run, out, capsys)

    @pytest.mark.parametrize(
        "name",
        ["models/svcnet.txt", "models/ppc_p00_0.txt", "models/recognizer.txt", "corpus.csv"],
    )
    def test_undecodable_byte(self, full_run, out, capsys, name):
        path = out / name
        data = bytearray(path.read_bytes())
        data[len(data) // 2] = 0xFF
        path.write_bytes(bytes(data))
        assert os.path.basename(name) in self.eval_error(full_run, out, capsys)

    def test_stray_encoder_file_name(self, full_run, out, capsys):
        shutil.copy(out / "models" / "ppc_p00_0.txt", out / "models" / "ppc_foo.txt")
        assert "ppc_foo.txt" in self.eval_error(full_run, out, capsys)

    @pytest.mark.parametrize("verb", [("train", "--stage", "svc"), ("eval",)], ids=["svc", "eval"])
    def test_encoder_code_width_differs_from_ppc_dim(self, out, tmp_path, capsys, verb):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(dict(TINY, ppc_dim=3)))
        assert main([*verb, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "ppc_p00_0.txt" in err and "code width 2 != ppc_dim 3" in err

    @pytest.mark.parametrize(
        "verb", [("train", "--stage", "svc"), ("eval",), ("plot", "--kind", "ppc_scatter")],
        ids=["svc", "eval", "plot"],
    )
    @pytest.mark.parametrize("which", ["one", "all"])
    def test_encoder_activations_differ_from_encoder_spec(self, full_run, out, capsys, verb,
                                                          which):
        """Encoders of layers the ppc stage never builds, one of them or
        all, are refused when loaded, naming the first such file."""
        paths = sorted((out / "models").glob("ppc_*.txt"))
        changed = paths[-1:] if which == "one" else paths
        for path in changed:
            text = path.read_text()
            path.write_text(text.replace("activations=sigmoid,linear", "activations=tanh,linear"))
            assert path.read_text() != text
        _, cpath = full_run
        assert main([*verb, "--config", cpath, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert changed[0].name in err and "tanh,linear" in err

    @pytest.mark.parametrize(
        "verb", [("train", "--stage", "rec"), ("eval",), ("plot", "--kind", "svc_halves")],
        ids=["rec", "eval", "plot"],
    )
    def test_svcnet_activations_not_sigmoid(self, full_run, out, capsys, verb):
        path = out / "models" / "svcnet.txt"
        text = path.read_text()
        path.write_text(text.replace("activations=sigmoid,sigmoid,sigmoid,sigmoid",
                                     "activations=tanh,tanh,linear,tanh"))
        assert path.read_text() != text
        _, cpath = full_run
        assert main([*verb, "--config", cpath, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "svcnet.txt" in err and "tanh,tanh,linear,tanh" in err

    @pytest.mark.parametrize(
        "verb", [("train", "--stage", "svc"), ("eval",), ("plot", "--kind", "ppc_scatter")],
        ids=["svc", "eval", "plot"],
    )
    def test_encoder_feature_width_differs_from_feature_dim(self, out, tmp_path, capsys, verb):
        """Encoders trained on frames of another width than the config's
        corpus are refused when loaded, naming the encoder and both widths."""
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(dict(TINY, feature_dim=5)))
        assert main(["gen", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main([*verb, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "ppc_p00_0.txt" in err and "feature width 6 != feature_dim 5" in err

    def test_svcnet_code_width_differs_from_svc_dim(self, out, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(dict(TINY, svc_dim=3)))
        assert main(["eval", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "svcnet.txt" in err and "code width 2 != svc_dim 3" in err

    @pytest.mark.parametrize(
        "override, name, message",
        [
            ({"svc_flank": 0}, "svcnet.txt", "flank width 4 != svc_flank 0"),
            ({"rec_window": 2}, "recognizer.txt", "window 0 != rec_window 2"),
            ({"rec_state_units": 5}, "recognizer.txt", "state_units 6 != rec_state_units 5"),
        ],
        ids=["svc_flank", "rec_window", "rec_state_units"],
    )
    def test_model_differs_from_config(self, out, tmp_path, capsys, override, name, message):
        path = tmp_path / "changed.json"
        path.write_text(json.dumps({**TINY, **override}))
        assert main(["eval", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert name in err and message in err

    @pytest.mark.parametrize(
        "verb", [("train", "--stage", "ppc"), ("train", "--stage", "svc"),
                 ("train", "--stage", "rec"), ("eval",)],
        ids=["ppc", "svc", "rec", "eval"],
    )
    def test_corpus_feature_width_differs_from_config(self, out, tmp_path, capsys, verb):
        """A corpus of another feature width is refused before any stage
        reads it, naming the corpus and both widths."""
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(dict(TINY, feature_dim=7)))
        assert main([*verb, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"{out / 'corpus.csv'}: feature_dim 6 != feature_dim 7" in err

    def test_truncated_recognizer(self, full_run, out, capsys):
        path = out / "models" / "recognizer.txt"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:9]))  # stops inside w_acoustic's rows
        assert "recognizer.txt" in self.eval_error(full_run, out, capsys)

    def test_non_finite_corpus_feature(self, full_run, out, capsys):
        path = out / "corpus.csv"
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[6] = "nan"
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        assert f"{path}: line 3: non-finite" in self.eval_error(full_run, out, capsys)


    @pytest.mark.parametrize(
        "column, value, message",
        [
            (0, "zz", "speaker 'zz' is not in the header"),
            (0, "s01", "speaker differs from line 2 of its utterance"),
            (2, "w99", "word 'w99' is not in the header"),
            (2, "w01", "word differs from line 2 of its utterance"),
            (3, "p99", "phone 'p99' is not in the header"),
            (4, "7", "state '7' is not in [0, 2)"),
            (5, "0", "frame index 0 repeats in its utterance"),
            (1, "s00 w00", "utterance 's00 w00' is not a non-empty string free of commas"),
        ],
        ids=["unknown_speaker", "other_speaker", "unknown_word", "other_word",
             "unknown_phone", "state", "repeated_index", "utterance_with_space"],
    )
    def test_bad_corpus_row(self, full_run, out, capsys, column, value, message):
        path = out / "corpus.csv"
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        assert lines[1].split(",")[:3] == fields[:3] and fields[5] == "1"
        fields[column] = value
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        assert f"{path}: line 3: {message}" in self.eval_error(full_run, out, capsys)


    @pytest.mark.parametrize("value", ["0_1", "+1", "\u0661", " 1"])
    @pytest.mark.parametrize("column, what", [(4, "state"), (5, "frame index")])
    def test_integer_field_of_other_than_ascii_digits(self, full_run, out, capsys, column,
                                                      what, value):
        """int() reads each of these as 1; the corpus format writes digits."""
        _, cpath = full_run
        path = out / "corpus.csv"
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[column] = value
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["train", "--stage", "ppc", "--config", cpath, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"{path}: line 3: {what} {value!r} is not in [0, " in err


class TestShuffledCorpus:
    def test_shuffled_rows_train_and_evaluate_identically(self, full_run, tmp_path):
        """A corpus file whose rows are shuffled loads to the canonical
        order: every stage writes the same models and report rows."""
        config, cpath = full_run
        out = tmp_path / "run"
        shutil.copytree(config.out_dir, out)
        path = out / "corpus.csv"
        lines = path.read_text().splitlines()
        body = lines[1:]
        random.Random(7).shuffle(body)
        path.write_text("\n".join([lines[0]] + body) + "\n")
        shutil.rmtree(out / "models")
        shutil.rmtree(out / "reports")
        for verb in (("train", "--stage", "ppc"), ("train", "--stage", "svc"),
                     ("train", "--stage", "rec"), ("eval",)):
            assert main([*verb, "--config", cpath, "--out", str(out)]) == 0
        for name in os.listdir(config.resolved_model_dir):
            original = os.path.join(config.resolved_model_dir, name)
            assert (out / "models" / name).read_bytes() == open(original, "rb").read(), name
        for name in ("metrics_ppc.csv", "metrics_svc.csv", "metrics_rec.csv", "ablation.csv",
                     "table2.csv", "stability.csv", "predictions.txt"):
            original = os.path.join(config.resolved_report_dir, name)
            assert (out / "reports" / name).read_bytes() == open(original, "rb").read(), name


class TestRunPipeline:
    """scripts/run_pipeline.py runs the CLI verbs in order."""

    def run_script(self, *argv):
        script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "run_pipeline.py")
        return runpy.run_path(script)["main"](list(argv))

    def test_runs_every_stage(self, tiny_config_path, capsys):
        assert self.run_script("--config", tiny_config_path) == 0
        out = capsys.readouterr().out
        for name in ("gen", "train ppc", "train svc", "train rec", "eval",
                     "plot ppc_scatter", "plot svc_trajectory", "plot svc_halves"):
            assert f"\n{name}: done in " in "\n" + out
        config = RunConfig.from_file(tiny_config_path)
        models, reports = (os.path.join(config.out_dir, d) for d in ("models", "reports"))
        quality = runpy.run_path(os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                                              "quality.py"))
        assert out.splitlines()[-1] == (f"models {quality['digest'](models)} "
                                        f"reports {quality['digest'](reports)}")

    def test_two_output_directories_write_identical_files(self, tiny_config_path, tmp_path,
                                                         monkeypatch, capsys):
        """Models and reports depend on the config and the code alone: the
        config run into a relative and a deeper absolute directory writes
        the same bytes, provenance lines and plot exports included, and
        prints the same digests."""
        monkeypatch.chdir(tmp_path)
        outs = [tmp_path / "a" / "run", tmp_path / "b" / "deeper" / "run"]
        digests = []
        for out in ("a/run", str(outs[1])):
            assert self.run_script("--config", tiny_config_path, "--out", out) == 0
            digests.append(capsys.readouterr().out.splitlines()[-1])
        assert digests[0] == digests[1]
        assert "svc_halves.csv" in os.listdir(outs[0] / "reports")
        for sub in ("models", "reports"):
            names = sorted(os.listdir(outs[0] / sub))
            assert names == sorted(os.listdir(outs[1] / sub))
            for name in names:
                a, b = (out / sub / name for out in outs)
                assert a.read_bytes() == b.read_bytes(), name

    def test_reads_the_config_once(self, tiny_config_path, monkeypatch, capsys):
        """Every verb runs on the one config read at the start, so a config
        that can be read only once, such as a pipe, serves the pipeline."""
        paths, original = [], RunConfig.from_file.__func__

        def counting(cls, path):
            paths.append(path)
            return original(cls, path)

        monkeypatch.setattr(RunConfig, "from_file", classmethod(counting))
        assert self.run_script("--config", tiny_config_path) == 0
        assert paths == [tiny_config_path]
        assert "pipeline complete" in capsys.readouterr().out

    def test_stops_at_first_failure(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_speakers": 0, "out_dir": str(tmp_path / "run")}))
        assert self.run_script("--config", str(path)) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert "done in" not in captured.out


class TestQualityScript:
    """scripts/quality.py, loaded as a module, on one seed of a tiny
    config with 5 words, so that criterion 4 has a fourth word transition."""

    def test_one_seed(self, monkeypatch, capsys):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "quality.py")
        spec = importlib.util.spec_from_file_location("quality_script", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        small = functools.partial(RunConfig, **dict(TINY, n_words=5))
        monkeypatch.setattr(script, "RunConfig", small)
        assert script.main(["1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4 and lines[0] == script.row(script.COLUMNS)
        record = json.loads(lines[-1])
        cells = record["rows"]["1"]
        assert list(cells) == list(script.KEYS)
        assert lines[1] == script.row([1, *cells.values()])
        assert lines[2] == script.row(["pass", *record["pass"].values()])
        assert list(record["pass"]) == list(script.KEYS[:5])
        assert all(re.fullmatch(r"[01]/1", count) for count in record["pass"].values())
        assert re.fullmatch(r"[0-9]+/[0-9]+\*?", cells["c4"])
        assert all(re.fullmatch(r"[0-9a-f]{12}", cells[k]) for k in ("enc_svc", "rec", "reports"))


class TestDivergence:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_ppc_training_exits_2_and_saves_nothing(self, tmp_path, capsys):
        """The overflow on the way to a non-finite loss raises no numpy
        warning: the stage ends in its one-line error alone."""
        cfg = dict(TINY, out_dir=str(tmp_path / "run"), ppc_learning_rate=1e3)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("gen", "--config", str(path)) == 0
        assert run_cli("train", "--stage", "ppc", "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "ppc training diverged at epoch" in err
        assert not os.path.exists(tmp_path / "run" / "models")


class TestPlot:
    def test_all_kinds(self, full_run, capsys):
        config, cpath = full_run
        for kind in ("ppc_scatter", "svc_trajectory", "svc_halves"):
            assert main(["plot", "--kind", kind, "--config", cpath]) == 0
        reports = os.listdir(config.resolved_report_dir)
        assert any(r.startswith("ppc_scatter_") for r in reports)
        assert any(r.startswith("svc_trajectory_") for r in reports)
        assert "svc_halves.csv" in reports

    def test_scatter_sound_selection(self, full_run, capsys):
        config, cpath = full_run
        assert main(
            ["plot", "--kind", "ppc_scatter", "--sound", "p01:1", "--config", cpath]
        ) == 0
        assert os.path.exists(
            os.path.join(config.resolved_report_dir, "ppc_scatter_p01_1.csv")
        )

    def test_scatter_unknown_sound(self, full_run, capsys):
        _, cpath = full_run
        code = main(
            ["plot", "--kind", "ppc_scatter", "--sound", "zz:9", "--config", cpath]
        )
        assert code == 2

    @pytest.mark.parametrize("sound", ["p00", "p00:x", ""])
    def test_scatter_malformed_sound(self, full_run, capsys, sound):
        _, cpath = full_run
        capsys.readouterr()
        code = main(["plot", "--kind", "ppc_scatter", "--sound", sound, "--config", cpath])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and repr(sound) in err


class TestSeedRebase:
    def test_seed_flag_changes_corpus(self, tmp_path):
        cfg = dict(TINY)
        out_a, out_b, out_c = (str(tmp_path / d) for d in ("a", "b", "c"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        cpath = str(path)
        assert main(["gen", "--config", cpath, "--out", out_a, "--seed", "7"]) == 0
        assert main(["gen", "--config", cpath, "--out", out_b, "--seed", "7"]) == 0
        assert main(["gen", "--config", cpath, "--out", out_c, "--seed", "8"]) == 0
        a = open(os.path.join(out_a, "corpus.csv")).read()
        b = open(os.path.join(out_b, "corpus.csv")).read()
        c = open(os.path.join(out_c, "corpus.csv")).read()
        # headers embed the corpus seed, so compare whole files
        assert a == b
        assert a != c


class TestPrincipalRotation:
    def test_preserves_pairwise_distances(self):
        rng = np.random.default_rng(5)
        pts = rng.random((12, 2))
        rot = principal_rotation(pts)
        for i in range(len(pts)):
            for j in range(i):
                d0 = np.linalg.norm(pts[i] - pts[j])
                d1 = np.linalg.norm(rot[i] - rot[j])
                assert d1 == pytest.approx(d0, abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        pts = rng.random((8, 2))
        assert np.array_equal(principal_rotation(pts), principal_rotation(pts.copy()))


class TestConfigRanges:
    """Out-of-range config values and seeds are refused before any work,
    with exit 2 and one line that names the key."""

    @pytest.mark.parametrize(
        "key, value",
        [("corpus_seed", -1), ("rec_seed", -3), ("rec_window", -1), ("svc_flank", -1),
         ("ppc_dim", 0), ("svc_dim", 0), ("rec_acoustic_units", 0), ("rec_state_units", -2),
         ("n_speakers", 0), ("frames_per_state", 0), ("ppc_epochs", -1), ("rec_epochs", -5),
         ("svc_learning_rate", 0), ("ppc_learning_rate", -0.1),
         ("rec_learning_rate", float("nan")), ("noise_std", -0.5)],
    )
    def test_out_of_range_value(self, tmp_path, capsys, key, value):
        path = tmp_path / "range.json"
        path.write_text(json.dumps({"out_dir": str(tmp_path / "run"), key: value}))
        assert run_cli("gen", "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(path) in err and repr(key) in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "key, value, verb",
        [("train_fraction", float("nan"), "train --stage ppc"),
         ("train_fraction", 0.0, "train --stage ppc"),
         ("train_fraction", 1.0, "train --stage ppc"),
         ("train_fraction", 1e308, "gen"),
         ("speaker_effect_scale", -1.0, "gen"),
         ("speaker_effect_scale", float("inf"), "gen"),
         ("noise_std", float("inf"), "gen"),
         ("noise_std", 10**400, "gen"),
         ("svc_learning_rate", float("inf"), "train --stage svc")],
    )
    def test_float_out_of_range_or_non_finite(self, tmp_path, capsys, key, value, verb):
        """JSON's NaN and Infinity literals and integers beyond any float
        parse; every float key refuses them, the fraction must lie in
        (0, 1) and the effect scale is range-checked."""
        path = tmp_path / "float.json"
        path.write_text(json.dumps({"out_dir": str(tmp_path / "run"), key: value}))
        assert run_cli(*verb.split(), "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(path) in err and repr(key) in err
        assert not (tmp_path / "run").exists()

    def test_negative_window_refused_before_training(self, tiny_config_path, capsys):
        cfg = json.loads(open(tiny_config_path).read())
        assert run_cli("gen", "--config", tiny_config_path) == 0
        capsys.readouterr()
        cfg["rec_window"] = -1
        with open(tiny_config_path, "w") as f:
            json.dump(cfg, f)
        assert run_cli("train", "--stage", "rec", "--config", tiny_config_path) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "'rec_window' must be >= 0" in err

    def test_negative_seed_flag(self, tmp_path, capsys):
        assert run_cli("gen", "--out", str(tmp_path / "run"), "--seed", "-5") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "seed must be >= 0" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "edits, named",
        [(dict(svc_flank=100000, rec_acoustic_units=10**6, n_speakers=10**7),
          "n_speakers=10000000"),
         (dict(svc_flank=100000), "svc_flank=100000"),
         (dict(rec_acoustic_units=10**6), "rec_acoustic_units=1000000"),
         (dict(ppc_dim=10**6), "ppc_dim=1000000"),
         (dict(latent_dim=10**7), "latent_dim=10000000"),
         (dict(rec_window=10**5), "rec_window=100000")],
    )
    def test_oversized_model_or_corpus_refused(self, tmp_path, capsys, edits, named):
        """A config whose corpus arrays or largest stage net exceed the
        budgets is refused before any work, in one line naming its keys."""
        with pytest.raises(DataError, match=f"{named}.* over the budget of"):
            RunConfig(**edits)
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"out_dir": str(tmp_path / "run"), **edits}))
        assert run_cli("gen", "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and named in err and str(path) in err
        assert not (tmp_path / "run").exists()

    def test_budget_far_above_the_benchmark_configs(self):
        """The default and the benchmark workloads, with ten times their
        speakers, frames and hidden widths, are accepted."""
        bench = runpy.run_path(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                                            "run.py"))
        for config in [RunConfig()] + [RunConfig(**w.overrides)
                                       for w in bench["WORKLOADS"].values()]:
            keys = ("n_speakers", "frames_per_state", "svc_flank", "rec_acoustic_units",
                    "rec_state_units")
            dataclasses.replace(config, **{k: 10 * getattr(config, k) for k in keys})

    def test_bounds_themselves_accepted(self):
        config = RunConfig(svc_flank=0, rec_window=0, ppc_epochs=0, noise_std=0.0,
                           corpus_seed=0, n_speakers=1, ppc_dim=1)
        config.rebase_seeds(0)
        assert config.seeds()["corpus"] == 0


def test_default_config_file_is_run_config_defaults():
    """scripts/default_config.json documents RunConfig's defaults."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "default_config.json")
    with open(path) as f:
        assert json.load(f) == dataclasses.asdict(RunConfig())


def drop_training_frames_of(config, phone, state, keep):
    """Rewrite the corpus so the training speakers keep only `keep` of
    their frames of one sound; the test speakers keep all of theirs."""
    _, train, _ = load_split(config)
    lines = open(config.resolved_corpus_path).read().splitlines()
    out, kept = [lines[0]], 0
    for line in lines[1:]:
        speaker, _, _, p, s = line.split(",")[:5]
        if speaker in train.speakers and (p, s) == (phone, str(state)):
            if kept == keep:
                continue
            kept += 1
        out.append(line)
    assert len(out) < len(lines)
    with open(config.resolved_corpus_path, "w") as f:
        f.write("\n".join(out) + "\n")


class TestSoundWithoutEncoder:
    """A sound with no encoder, because the training split lacks it or has
    too few frames of it, has no slot in the code layout: its frames are
    skipped with one warning per stage and every verb still runs."""

    @pytest.mark.parametrize("keep", [0, 1], ids=["missing", "scarce"])
    def test_pipeline_runs(self, tiny_config_path, capsys, caplog, keep):
        config = RunConfig.from_file(tiny_config_path)
        assert run_cli("gen", "--config", tiny_config_path) == 0
        drop_training_frames_of(config, "p00", 0, keep)
        with caplog.at_level("WARNING"):
            assert run_cli("train", "--stage", "ppc", "--config", tiny_config_path) == 0
        assert not os.path.exists(os.path.join(config.resolved_model_dir, "ppc_p00_0.txt"))
        assert ("dropping sound p00:0" in caplog.text) == (keep == 1)
        for verb in (("train", "--stage", "svc"), ("train", "--stage", "rec"), ("eval",),
                     ("plot", "--kind", "svc_trajectory"), ("plot", "--kind", "svc_halves")):
            caplog.clear()
            with caplog.at_level("WARNING"):
                assert run_cli(*verb, "--config", tiny_config_path) == 0, verb
            skips = [r.getMessage() for r in caplog.records if "skipping" in r.getMessage()]
            if verb[0] == "train":
                assert len(skips) == keep  # the one frame left in training
            else:
                assert skips and all("no encoder for sound(s) p00:0" in m for m in skips)
        _, header, rows = read_report(config, "table2.csv")
        assert header == ["svc_source", "error_rate"] and len(rows) == 3

    def test_eval_counts_skipped_test_frames(self, tiny_config_path, caplog):
        config = RunConfig.from_file(tiny_config_path)
        assert run_cli("gen", "--config", tiny_config_path) == 0
        drop_training_frames_of(config, "p00", 0, 0)
        for verb in (("ppc",), ("svc",), ("rec",)):
            assert run_cli("train", "--stage", *verb, "--config", tiny_config_path) == 0
        _, _, test = load_split(config)
        n_test = int(np.sum(test.sound == test.sounds.index(SoundId("p00", 0))))
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert run_cli("eval", "--config", tiny_config_path) == 0
        speakers = " ".join(sorted(test.speakers))
        assert f"skipping {n_test} frame(s) of speaker(s) {speakers}" in caplog.text


class TestScarceSounds:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_sound_dropped_exits_2_and_saves_nothing(self, tmp_path, capsys):
        """A split in which no sound keeps min_sound_frames frames is
        refused in one line naming the key and the largest count, before
        any sound's drop is logged or any file is written."""
        cfg = dict(TINY, out_dir=str(tmp_path / "run"), min_sound_frames=100000)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("gen", "--config", str(path)) == 0
        _, train, _ = load_split(RunConfig.from_file(str(path)))
        capsys.readouterr()
        assert run_cli("train", "--stage", "ppc", "--config", str(path)) == 2
        err = capsys.readouterr().err
        most = max(train.sound_counts().values())
        assert err.splitlines() == [
            f"error: no sound has min_sound_frames 100000 training frames: the most any "
            f"sound has is {most}"
        ]
        assert not os.path.exists(tmp_path / "run" / "models")
        assert not os.path.exists(tmp_path / "run" / "reports")


class TestStaleEncoders:
    def test_train_ppc_leaves_only_its_encoders(self, tmp_path, capsys):
        """train --stage ppc on a 6-word corpus, over a 10-word run in the
        same --out, deletes the encoders of the 4 phones the new corpus
        lacks: the 18 it trained are all that is left."""
        out = str(tmp_path / "run")
        for n_words in (10, 6):
            path = tmp_path / f"words{n_words}.json"
            path.write_text(json.dumps(dict(TINY, n_words=n_words, states_per_phone=3)))
            for verb in (("gen",), ("train", "--stage", "ppc")):
                assert run_cli(*verb, "--config", str(path), "--out", out) == 0
            config = RunConfig.from_file(str(path))
            config.out_dir = out
            models = sorted(os.listdir(config.resolved_model_dir))
            assert models == sorted(os.path.basename(pipeline.ppc_model_path(config, s))
                                    for s in pipeline.load_encoders(config))
        assert len(models) == 18
        assert "ppc_p09_0.txt" not in models


class TestWordSubsetProtocol:
    def test_single_word_speakers_named(self, tmp_path, capsys):
        cfg = dict(TINY, n_words=1, out_dir=str(tmp_path / "run"))
        path = tmp_path / "one_word.json"
        path.write_text(json.dumps(cfg))
        cpath = str(path)
        for verb in (("gen",), ("train", "--stage", "ppc"), ("train", "--stage", "svc"),
                     ("train", "--stage", "rec")):
            assert run_cli(*verb, "--config", cpath) == 0
        capsys.readouterr()
        assert run_cli("eval", "--config", cpath) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        first = load_split(RunConfig.from_file(cpath))[2].speakers[0]
        assert f"test speaker {first} has 1 word(s)" in err
        assert "word-subset protocol needs >= 2" in err


PPC, SVC, REC, EVAL = (("train", "--stage", "ppc"), ("train", "--stage", "svc"),
                       ("train", "--stage", "rec"), ("eval",))


class TestFuzz:
    """Mutated copies of the tiny run's input files, and edited configs,
    end in exit status 0, or 2 with one stderr line: never a traceback, a
    Python warning or a non-finite computed value written under models/
    or reports/. Each example mutates one file of a fresh copy of the run,
    then runs the verbs that read that file, in pipeline order."""

    READERS = {
        "corpus.csv": (PPC, SVC, REC, EVAL),
        "models/ppc_p00_0.txt": (SVC, EVAL, ("plot", "--kind", "ppc_scatter")),
        "models/ppc_p03_1.txt": (SVC, REC, EVAL),
        "models/svcnet.txt": (REC, EVAL, ("plot", "--kind", "svc_trajectory")),
        "models/recognizer.txt": (EVAL,),
        "config.json": (PPC, SVC, REC, EVAL),
    }
    CHARS = ["0", "9", "-", ".", ",", " ", "e", "x", "_", "+", "=", "\t", "\n", "\x00", "é"]
    FIELDS = ["1e400", "nan", "inf", "-1", "99999999999999999999", "", "0_1", "+1", "\u0662"]
    NAMES = ["s00", "w01", "p02", "p00:0", "s01-w00", "sigmoid", "linear", "sizes", "w0", "b1"]
    RENAMED = ["s99", "p00", "tanh", "linear", "p00:9", "x,y", "", "w 0", "٣"]
    TRAILING = ["x", "\n", ",", " 0.5", "\n1 2 3", "\nw9 1 1\n0.1", "\ns00,s00-w00"]
    # config values: wrong types, out of range, non-finite; all small, so no
    # stage can run long or allocate much; a minimum that drops every sound
    VALUES = ["x", None, True, -1, 0, 1, 2.5, float("inf"), float("nan"), "zero_fill",
              "bogus"]
    KEYS = sorted(TINY) + ["accumulation_mode", "min_sound_frames", "rec_window",
                           "speaker_effect_scale", "corpus_path", "no_such_key"]
    # width and size keys, and values that order a net or corpus past the budgets
    SIZES = ["n_speakers", "n_words", "phones_per_word", "states_per_phone", "frames_per_state",
             "feature_dim", "latent_dim", "ppc_dim", "svc_dim", "svc_flank",
             "rec_acoustic_units", "rec_state_units", "rec_window"]
    LARGE = [10**5, 10**12]

    def mutate_text(self, data, text):
        lines = text.split("\n")
        line = lambda: data.draw(st.integers(0, len(lines) - 1))  # noqa: E731
        kind = data.draw(st.sampled_from(["truncate", "char", "delete", "duplicate", "swap",
                                          "field", "field", "rename", "trailing"]))
        if kind == "truncate":
            return text[:data.draw(st.integers(0, len(text) - 1))]
        if kind == "char":
            at = data.draw(st.integers(0, len(text) - 1))
            return text[:at] + data.draw(st.sampled_from(self.CHARS)) + text[at + 1:]
        if kind in ("delete", "duplicate", "swap"):
            i, k = line(), line()
            if kind == "swap":
                lines[i], lines[k] = lines[k], lines[i]
            else:
                lines[i:i + 1] = [lines[i]] * (2 if kind == "duplicate" else 0)
        elif kind == "field":
            i = line()
            sep = "," if "," in lines[i] else " "
            fields = lines[i].split(sep)
            fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(
                st.sampled_from(self.FIELDS))
            lines[i] = sep.join(fields)
        elif kind == "rename":
            name = data.draw(st.sampled_from(self.NAMES))
            count = data.draw(st.sampled_from([1, -1]))  # the first occurrence, or all
            return text.replace(name, data.draw(st.sampled_from(self.RENAMED)), count)
        else:
            return text + data.draw(st.sampled_from(self.TRAILING))
        return "\n".join(lines)

    def mutate_config(self, data, config):
        key = data.draw(st.sampled_from(self.KEYS))
        edit = data.draw(st.sampled_from(["delete", "set", "set", "drop_all", "grow"]))
        if edit == "drop_all":
            config["min_sound_frames"] = 100000
        elif edit == "grow":
            config[data.draw(st.sampled_from(self.SIZES))] = data.draw(st.sampled_from(self.LARGE))
        elif edit == "delete":
            config.pop(key, None)
        else:
            config[key] = data.draw(st.sampled_from(self.VALUES))
        return json.dumps(config)

    NAME_COLUMNS = ("speaker", "svc_source")  # report columns that hold names, not values

    @staticmethod
    def written(run):
        """{(sub, path): bytes} of every file under models/ and reports/."""
        found = {}
        for sub in ("models", "reports"):
            for root, _, names in os.walk(os.path.join(run, sub)):
                for name in names:
                    path = os.path.join(root, name)
                    with open(path, "rb") as f:
                        found[sub, path] = f.read()
        return found

    @classmethod
    def computed_values(cls, sub, path, content):
        """The fields of a written file that hold computed values: every
        array row of a model file, and in a CSV report every field of a
        data row outside the name columns. Names are copied from the
        input, which may hold one such as 1e400; headers, `#` lines and
        predictions.txt's labels hold no value."""
        lines = content.decode("utf-8", "replace").splitlines()
        if sub == "models":
            values, at = [], 1  # past the header line, one array at a time
            while at < len(lines):
                dims = lines[at].split()[1:]
                n_rows = int(dims[0]) if len(dims) == 2 else 1
                values += " ".join(lines[at + 1:at + 1 + n_rows]).split()
                at += 1 + n_rows
            return values
        if not path.endswith(".csv"):
            return []
        header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
        keep = [k for k, column in enumerate(header) if column not in cls.NAME_COLUMNS]
        return [row[k] for row in rows for k in keep]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_input_ends_in_one_line(self, full_run, tmp_path_factory, data):
        base, _ = full_run
        run = str(tmp_path_factory.mktemp("fuzz") / "run")
        shutil.copytree(base.out_dir, run)
        target = data.draw(st.sampled_from(sorted(self.READERS)))
        config = dict(TINY, out_dir=run)
        cpath = os.path.join(run, "config.json")
        if target == "config.json":
            text = self.mutate_config(data, config)
        else:
            with open(os.path.join(run, target), encoding="utf-8") as f:
                mutated = self.mutate_text(data, f.read())
            with open(os.path.join(run, target), "w", encoding="utf-8") as f:
                f.write(mutated)
            text = json.dumps(config)
        with open(cpath, "w", encoding="utf-8") as f:
            f.write(text)
        for verb in self.READERS[target]:
            before = self.written(run)
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                status = main([*verb, "--config", cpath])
            assert caught == [], (verb, [str(w.message) for w in caught])
            assert status in (0, 2), (verb, err.getvalue())
            if status == 2:
                assert len(err.getvalue().splitlines()) == 1, (verb, err.getvalue())
            for (sub, path), content in self.written(run).items():
                if before.get((sub, path)) != content:
                    values = self.computed_values(sub, path, content)
                    assert all(np.isfinite(float(v)) for v in values), (verb, path)
