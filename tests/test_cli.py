import json
import os
import re
import shutil

import numpy as np
import pytest

from svcnet.cli import main
from svcnet.config import RunConfig
from svcnet.errors import DataError
from svcnet.pipeline import principal_rotation

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

    def test_bad_config_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert run_cli("gen", "--config", str(path)) == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"out_dir": str(tmp_path), "no_such_key": 1}))
        assert run_cli("gen", "--config", str(path)) == 2


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
        config, _ = full_run
        comments, _, _ = read_report(config, "ablation.csv")
        joined = "\n".join(comments)
        assert config.config_hash() in joined
        assert "seeds=" in joined
        assert config.resolved_corpus_path in joined

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
        assert "svcnet.txt" in models and "svcnet.layout" in models
        assert "recognizer.txt" in models


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
        path = out / "models" / "svcnet.layout"
        path.write_text(re.sub(r"bottleneck=\d+", "bottleneck=9", path.read_text()))
        assert "bottleneck 9" in self.eval_error(full_run, out, capsys)

    @pytest.mark.parametrize(
        "rewrite",
        [lambda text: "", lambda text: text.replace("code_dim=", "cdim=")],
        ids=["empty", "renamed_field"],
    )
    def test_malformed_layout(self, full_run, out, capsys, rewrite):
        path = out / "models" / "svcnet.layout"
        path.write_text(rewrite(path.read_text()))
        assert "svcnet.layout" in self.eval_error(full_run, out, capsys)

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
        assert "line 3" in self.eval_error(full_run, out, capsys)


class TestDivergence:
    def test_diverging_ppc_training_exits_2_and_saves_nothing(self, tmp_path, capsys):
        cfg = dict(TINY, out_dir=str(tmp_path / "run"), ppc_learning_rate=1e3)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("gen", "--config", str(path)) == 0
        with np.errstate(all="ignore"):
            assert run_cli("train", "--stage", "ppc", "--config", str(path)) == 2
        assert "ppc training diverged at epoch" in capsys.readouterr().err
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
