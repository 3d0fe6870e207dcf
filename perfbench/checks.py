"""Output checks: each returns a list of problems, empty when the output is right.

The checks recompute what they compare against from the benchmark's own
planted truth and its own arithmetic, never by calling the package.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np


def check_dataset(path, corpus) -> list[str]:
    """Every built record's (study_id, category, u, cue) equals the planted
    truth, and the stats sidecar counts the generator's records and malformed
    lines."""
    problems = []
    got = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            rec = json.loads(line)
            key = (rec["study_id"], rec["category"])
            if key in got:
                problems.append(f"line {lineno}: duplicate record {key}")
            got[key] = (rec["u"], rec["cue"])
    for key, want in corpus.truth.items():
        if key not in got:
            problems.append(f"missing record {key}")
        elif got[key] != want:
            problems.append(f"record {key}: got (u, cue) {got[key]}, planted {want}")
    problems += [f"unexpected record {key}" for key in got.keys() - corpus.truth.keys()]
    with open(f"{path}.stats.json", encoding="utf-8") as fh:
        stats = json.load(fh)
    if stats["record_count"] != len(corpus.truth):
        problems.append(f"stats record_count {stats['record_count']} != {len(corpus.truth)}")
    if stats["malformed_record_count"] != corpus.malformed:
        problems.append(
            f"stats malformed_record_count {stats['malformed_record_count']} != {corpus.malformed}"
        )
    return problems[:20]


def check_validate(stdout: str, expected_records: int) -> list[str]:
    found = re.match(r"ok: (\d+) records", stdout)
    if not found:
        return [f"validate printed {stdout[:80]!r}"]
    if int(found.group(1)) != expected_records:
        return [f"validate counted {found.group(1)} records, expected {expected_records}"]
    return []


def midrank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability that a positive outscores a negative, ties counted half."""
    order = np.argsort(scores, kind="mergesort")
    boundaries = np.flatnonzero(np.diff(scores[order])) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [len(scores)]))
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((starts + stops + 1) / 2.0, stops - starts)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    return (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def load_weights(model_path) -> tuple[str, dict[str, np.ndarray]]:
    with open(model_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    weights = {k: np.asarray(v, dtype=np.float64) for k, v in payload["weights"].items()}
    return payload["architecture"], weights


def model_auc(model_path, examples) -> float:
    """AUC of a saved model on ``examples`` from the model JSON alone.

    The forward pass is the benchmark's own: tanh hidden layer (or none),
    two logits, softmax, class-1 probability; labels are flip-resolved.
    """
    architecture, weights = load_weights(model_path)
    X = examples.features
    if architecture == "linear":
        logits = X @ weights["W"] + weights["b"]
    else:
        logits = np.tanh(X @ weights["W1"] + weights["b1"]) @ weights["W2"] + weights["b2"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p1 = e[:, 1] / e.sum(axis=1)
    labels = np.where(examples.u >= 0, examples.y, 1 - examples.y)
    return midrank_auc(p1, labels)


def check_eval(stdout: str, model_path, examples) -> list[str]:
    """The AUC ``eval`` printed equals the recomputed AUC at the printed
    precision (six decimals), with 1e-9 of slack."""
    found = re.match(r"auc (\S+)", stdout)
    if not found:
        return [f"eval printed {stdout[:80]!r}"]
    expected = model_auc(model_path, examples)
    printed = float(found.group(1))
    if not abs(printed - expected) <= 0.5e-6 + 1e-9:
        return [f"eval printed auc {printed}, recomputed {expected:.9f}"]
    return []


def read_epochs(metrics_path) -> list[dict]:
    with open(metrics_path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    return [row for row in rows if "epoch" in row]


def check_train(model_path, metrics_path, epochs: int) -> list[str]:
    """The saved weights are finite and the metrics file has every epoch."""
    _, weights = load_weights(model_path)
    problems = [f"weight {k} is not finite" for k, w in weights.items() if not np.all(np.isfinite(w))]
    rows = read_epochs(metrics_path)
    if [row["epoch"] for row in rows] != list(range(1, epochs + 1)):
        problems.append(f"metrics file has epochs {[row['epoch'] for row in rows]}")
    return problems


def check_sweep(tsv_path, k_tokens: list[str], warmups: list[int]) -> list[str]:
    """One row per grid cell, in grid order, each AUC finite and in [0, 1]."""
    with open(tsv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[:1] != ["k\twarmup\tauc"]:
        return [f"sweep header {lines[:1]}"]
    rows = [line.split("\t") for line in lines[1:]]
    want = [(k, str(w)) for k in k_tokens for w in warmups]
    if [(row[0], row[1]) for row in rows] != want:
        return [f"sweep rows {[(r[0], r[1]) for r in rows]} != grid {want}"]
    problems = []
    for k, w, value in rows:
        auc = float(value)
        if not (math.isfinite(auc) and 0.0 <= auc <= 1.0):
            problems.append(f"cell k={k} warmup={w}: auc {value}")
    return problems


def check_examples_file(path, n: int, d: int) -> list[str]:
    """``gen-synthetic`` output: n lines of d features, y in {0,1}, u in -3..3."""
    count = 0
    with open(path, encoding="utf-8") as fh:
        for count, line in enumerate(fh, start=1):
            rec = json.loads(line)
            if len(rec["features"]) != d or rec["y"] not in (0, 1) or rec["u"] not in range(-3, 4):
                return [f"line {count}: bad example {line[:80]!r}"]
    if count != n:
        return [f"gen-synthetic wrote {count} examples, expected {n}"]
    return []
