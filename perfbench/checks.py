"""Output checks for one benchmark round. Each check raises CheckFailed
with a one-line reason; the caller counts it as a failed operation."""

import hashlib
import math
import os

import numpy as np

from svcnet import pipeline

REPORTS = ("metrics_ppc.csv", "metrics_svc.csv", "metrics_rec.csv",
           "ablation.csv", "table2.csv", "stability.csv")


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_models(config, n_sounds):
    """Every model file exists and loads with finite parameters."""
    encoders = pipeline.load_encoders(config)
    require(len(encoders) == n_sounds,
            f"{len(encoders)} encoder models, expected {n_sounds}")
    svcnet = pipeline.load_svcnet_artifact(config)
    require(svcnet.code_dim == config.svc_dim,
            f"svcnet code dim {svcnet.code_dim} != {config.svc_dim}")
    net = pipeline.load_recognizer_artifact(config)
    for arr in net.param_arrays():
        require(np.all(np.isfinite(arr)), "non-finite recognizer parameter")


def _data_rows(path):
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln and not ln.startswith("#")]
    require(len(lines) >= 1, f"{path}: no column header")
    return [ln.split(",") for ln in lines[1:]]


def _finite_fields(path, rows):
    for row in rows:
        for field in row:
            try:
                value = float(field)
            except ValueError:
                continue  # a label such as a speaker id
            require(math.isfinite(value), f"{path}: non-finite value {field!r}")


def check_reports(config, expected_rows):
    """Every report exists, parses, has the expected row count and holds
    only finite numbers."""
    for name in REPORTS:
        path = os.path.join(config.resolved_report_dir, name)
        rows = _data_rows(path)
        if name in expected_rows:
            require(len(rows) == expected_rows[name],
                    f"{name}: {len(rows)} rows, expected {expected_rows[name]}")
        _finite_fields(path, rows)


def check_predictions(config, words, n_predictions):
    """predictions.txt has one line per recognized ablation utterance and
    every predicted label is a corpus word."""
    path = os.path.join(config.resolved_report_dir, "predictions.txt")
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln and not ln.startswith("#")]
    require(len(lines) == n_predictions,
            f"predictions.txt: {len(lines)} lines, expected {n_predictions}")
    known = set(words)
    for line in lines:
        fields = dict(p.split("=", 1) for p in line.split()[1:])
        require(fields.get("predicted") in known,
                f"predictions.txt: unknown label in {line!r}")


def check_code(speaker, code, svc_dim):
    """An enrolled speaker code is finite and inside the sigmoid range."""
    code = np.asarray(code)
    require(code.shape == (svc_dim,), f"{speaker}: code shape {code.shape}")
    require(bool(np.all(np.isfinite(code))), f"{speaker}: non-finite code")
    require(bool(np.all((code > 0.0) & (code < 1.0))),
            f"{speaker}: code {code.tolist()} outside (0, 1)")


def artifact_digest(config):
    """SHA-256 over the relative paths and bytes of models/ and reports/."""
    h = hashlib.sha256()
    for label, d in (("models", config.resolved_model_dir),
                     ("reports", config.resolved_report_dir)):
        for name in sorted(os.listdir(d)):
            h.update(f"{label}/{name}\n".encode())
            with open(os.path.join(d, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()
