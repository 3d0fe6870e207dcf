"""Release acceptance suite.

One test per acceptance criterion, each with its stated tolerance and runtime
budget pinned.  Every criterion prints a single ``ACCEPTANCE <name>: PASS``
(or FAIL) line; run ``pytest tests/test_acceptance.py -s`` to see them live.
"""

import functools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from corpus_util import make_reports
from glsmooth.cli import main as cli_main
from glsmooth.dataset import ReportRecord, build_dataset, validate_dataset, write_dataset
from glsmooth.reports import default_lexicon, extract_findings
from glsmooth.smoothing import (
    effective_label,
    gls_loss,
    gls_loss_gradient,
    gls_target,
    gls_target_exact,
    smoothing_rate_exact,
    softmax_pair,
)
from glsmooth.taxonomy import default_taxonomy
from glsmooth.training import (
    TrainConfig,
    auc,
    predict_proba,
    sweep,
    synthetic_noisy_generator,
    train,
)

DATA_DIR = Path(__file__).parent / "data"


def criterion(name: str, budget_seconds: float):
    """Print one pass/fail line per criterion and enforce its runtime budget."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            elapsed = time.monotonic() - start
            assert elapsed < budget_seconds, (
                f"{name} exceeded its runtime budget: {elapsed:.1f}s >= {budget_seconds}s"
            )
            print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")

        return wrapper

    return decorate


# 1 ------------------------------------------------------------------------

TABLE_ROWS = {
    3: (-0.250, (-0.1250, 1.1250)),
    2: (0.167, (0.0833, 0.9167)),
    1: (0.583, (0.2917, 0.7083)),
    0: (1.000, (0.5000, 0.5000)),
    -1: (0.583, (0.7083, 0.2917)),
    -2: (0.167, (0.9167, 0.0833)),
    -3: (-0.250, (1.1250, -0.1250)),
}


@criterion("01-score-table-reproduction", 1.0)
def test_score_table_reproduction(capsys):
    assert cli_main(["table1"]) == 0
    out = capsys.readouterr().out
    rows = {}
    for line in out.splitlines()[1:]:
        fields = line.split()
        u, r = int(fields[0]), float(fields[1])
        neg = float(fields[2].strip("[,"))
        pos = float(fields[3].strip("],"))
        rows[u] = (r, (neg, pos))
    assert set(rows) == set(TABLE_ROWS)
    for u, (r, target) in TABLE_ROWS.items():
        got_r, got_target = rows[u]
        assert got_r == pytest.approx(r, abs=5e-4), f"rate mismatch at u={u}"
        assert got_target[0] == pytest.approx(target[0], abs=5e-5), f"u={u}"
        assert got_target[1] == pytest.approx(target[1], abs=5e-5), f"u={u}"
    # extreme-confidence rows hold exactly as printed
    assert rows[3] == (-0.250, (-0.1250, 1.1250))
    assert rows[-3] == (-0.250, (1.1250, -0.1250))
    assert rows[0] == (1.000, (0.5000, 0.5000))


# 2 ------------------------------------------------------------------------


@criterion("02-loss-target-equivalence", 1.0)
def test_loss_equals_cross_entropy_against_target():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        p1 = rng.uniform(1e-6, 1.0 - 1e-6)
        p = np.array([1.0 - p1, p1])
        y_eff = int(rng.integers(0, 2))
        r = rng.uniform(-0.25, 1.0)
        loss = gls_loss(p, y_eff, r)
        ce_vs_target = -float(np.dot(gls_target(y_eff, r), np.log(p)))
        assert loss == pytest.approx(ce_vs_target, rel=1e-12, abs=1e-15)


# 3 ------------------------------------------------------------------------


@criterion("03-analytic-gradient", 5.0)
def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(31337)
    h = 1e-5
    for _ in range(500):
        logits = rng.uniform(-4.0, 4.0, size=2)
        y_eff = int(rng.integers(0, 2))
        r = rng.uniform(-0.25, 1.0)
        grad = gls_loss_gradient(logits, y_eff, r)
        fd = np.zeros(2)
        for i in range(2):
            hi, lo = logits.copy(), logits.copy()
            hi[i] += h
            lo[i] -= h
            fd[i] = (
                gls_loss(softmax_pair(hi), y_eff, r)
                - gls_loss(softmax_pair(lo), y_eff, r)
            ) / (2.0 * h)
        rel = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12)
        assert rel < 1e-6
        assert abs(grad.sum()) < 1e-10


# 4 ------------------------------------------------------------------------


@criterion("04-flip-symmetry", 1.0)
def test_flip_symmetry_exact():
    for y in (0, 1):
        for s in (1, 2, 3):
            r = smoothing_rate_exact(s)
            assert smoothing_rate_exact(-s) == r
            positive = gls_target_exact(effective_label(y, s), r)
            negative = gls_target_exact(effective_label(y, -s), r)
            assert negative == (positive[1], positive[0])  # exact Fractions


# 5 ------------------------------------------------------------------------


@criterion("05-parser-golden-corpus", 1.0)
def test_parser_golden_corpus():
    lexicon = default_lexicon()
    vocabulary = default_taxonomy().vocabulary()
    snippets = [
        json.loads(line)
        for line in (DATA_DIR / "golden_corpus.jsonl").read_text().splitlines()
    ]
    assert len(snippets) >= 30
    failures = []
    for snippet in snippets:
        got = [
            [f.raw_phrase, f.u, f.cue]
            for f in extract_findings(snippet["text"], lexicon, vocabulary)
        ]
        if got != snippet["expected"]:
            failures.append((snippet["text"], snippet["expected"], got))
    assert not failures, f"{len(failures)} corpus snippets mis-parsed: {failures[:3]}"


# 6 ------------------------------------------------------------------------

EXPECTED_TAXONOMY = {
    "atelectasis": "Atelectasis",
    "cardiomegaly": "Cardiomegaly",
    "enlargement of the cardiac silhouette": "Cardiomegaly",
    "hypertensive heart disease": "Cardiomegaly",
    "lung opacity": "Consolidation",
    "consolidation": "Consolidation",
    "contusion": "Consolidation",
    "hematoma": "Consolidation",
    "edema": "Edema",
    "vascular congestion": "Edema",
    "heart failure": "Edema",
    "hilar congestion": "Edema",
    "hypoxemia": "Edema",
    "pleural effusion": "Effusion",
    "blunting of the costophrenic angle": "Effusion",
    "emphysema": "Emphysema",
    "fracture": "Fracture",
    "hernia": "Hernia",
    "gastric distention": "Hernia",
    "tortuosity of the descending aorta": "Mass",
    "thymoma": "Mass",
    "tortuosity of the thoracic aorta": "Mass",
    "calcification": "Nodule",
    "granuloma": "Nodule",
    "pleural thickening": "PleuralThickening",
    "pneumonia": "Pneumonia",
    "pneumothorax": "Pneumothorax",
    "pneumomediastinum": "Pneumothorax",
    "air collection": "Pneumothorax",
    "scoliosis": "Scoliosis",
}

OUT_OF_VOCABULARY = [
    "common cold",
    "pulmonary embolism",
    "sprained ankle",
    "tension headache",
    "aortic dissection",
]


@criterion("06-taxonomy-fidelity", 1.0)
def test_taxonomy_fidelity():
    taxonomy = default_taxonomy()
    for phrase, category_name in EXPECTED_TAXONOMY.items():
        mapped = taxonomy.map_diagnosis(phrase)
        assert mapped is not None and mapped.value == category_name, phrase
    assert len(taxonomy.vocabulary()) == len(EXPECTED_TAXONOMY) == 30
    for phrase in OUT_OF_VOCABULARY:
        assert taxonomy.map_diagnosis(phrase) is None, phrase


# 7 ------------------------------------------------------------------------


@criterion("07-dataset-determinism", 10.0)
def test_dataset_determinism(tmp_path):
    lexicon = default_lexicon()
    taxonomy = default_taxonomy()
    reports = [ReportRecord(**r) for r in make_reports(1000, seed=77)]
    permuted = list(reports)
    np.random.default_rng(5).shuffle(permuted)

    paths = []
    for name, batch in (("a", reports), ("b", reports), ("c", permuted)):
        labeled, stats = build_dataset(batch, lexicon, taxonomy)
        out = tmp_path / f"{name}.jsonl"
        write_dataset(labeled, stats, out)
        paths.append(out)

    blob = paths[0].read_bytes()
    assert blob == paths[1].read_bytes() == paths[2].read_bytes()
    stats_blob = (tmp_path / "a.jsonl.stats.json").read_bytes()
    assert stats_blob == (tmp_path / "c.jsonl.stats.json").read_bytes()
    stats = validate_dataset(paths[0])
    assert stats.record_count > 0


# 8 ------------------------------------------------------------------------


def brute_force_auc(scores, labels) -> float:
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            total += 1.0 if sp > sn else (0.5 if sp == sn else 0.0)
    return total / (len(pos) * len(neg))


@criterion("08-auc-oracle-equivalence", 5.0)
def test_auc_rank_equals_pair_count():
    assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0
    assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
    rng = np.random.default_rng(808)
    for _ in range(200):
        n = int(rng.integers(2, 101))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 2)  # coarse grid forces ties
        assert auc(scores, labels) == pytest.approx(
            brute_force_auc(scores, labels), abs=1e-12
        )


# 9 ------------------------------------------------------------------------


def sign_test_p(wins: int, losses: int) -> float:
    """One-sided exact binomial tail: P(X >= wins) under fair-coin null."""
    m = wins + losses
    return sum(math.comb(m, i) for i in range(wins, m + 1)) / 2.0**m


@criterion("09-gls-beats-ce", 300.0)
def test_gls_beats_plain_ce_on_noisy_labels():
    profile = {3: 0.0, 2: 0.1, 1: 0.25, 0: 0.5}
    gls_aucs, ce_aucs = [], []
    for s in range(20):
        data = synthetic_noisy_generator(4000, 10, profile, seed=1000 + s)
        train_split = data.examples[:3000]
        eval_split = data.examples[3000:]
        true_eval = data.true_labels[3000:]
        X_eval = eval_split.X
        common = dict(
            epochs=40,
            warmup_epochs=5,
            learning_rate=0.05,
            batch_size=64,
            seed=s,
            architecture="mlp_1hidden",
            hidden_width=32,
        )
        model_gls, _ = train(train_split, TrainConfig(loss="gls", **common), epoch_metrics=False)
        model_ce, _ = train(train_split, TrainConfig(loss="ce", **common), epoch_metrics=False)
        gls_aucs.append(auc(predict_proba(model_gls, X_eval)[:, 1], true_eval))
        ce_aucs.append(auc(predict_proba(model_ce, X_eval)[:, 1], true_eval))

    deltas = np.array(gls_aucs) - np.array(ce_aucs)
    assert np.median(gls_aucs) > np.median(ce_aucs)
    assert deltas.mean() > 0
    wins = int((deltas > 0).sum())
    losses = int((deltas < 0).sum())
    assert sign_test_p(wins, losses) < 0.05, f"wins={wins}, losses={losses}"


# 10 -----------------------------------------------------------------------


@criterion("10-warmup-schedule", 60.0)
def test_warmup_schedule_and_reproducibility():
    data = synthetic_noisy_generator(600, 6, {3: 0.0, 1: 0.2, 0: 0.5}, seed=42)
    extreme_count = int(np.sum(np.abs(data.examples.u) == 3))
    assert 0 < extreme_count < len(data.examples)

    config = TrainConfig(epochs=8, warmup_epochs=5, learning_rate=0.05, seed=7)
    model_a, history_a = train(data.examples, config)
    for metrics in history_a[:5]:
        assert metrics.samples_used == extreme_count
    for metrics in history_a[5:]:
        assert metrics.samples_used == len(data.examples)

    model_b, history_b = train(data.examples, config)
    for key in model_a.weights:
        assert np.array_equal(model_a.weights[key], model_b.weights[key])
    assert history_a == history_b


# 11 -----------------------------------------------------------------------


@criterion("11-sweep-grid", 900.0)
def test_sweep_grid_shape():
    data = synthetic_noisy_generator(1200, 6, {3: 0.0, 2: 0.1, 1: 0.25, 0: 0.5}, seed=12)
    base = TrainConfig(epochs=8, learning_rate=0.05, batch_size=64, seed=42)
    k_values = [Fraction("0.375"), Fraction(5, 12), Fraction("0.458")]
    cells = sweep(data.examples, base, k_values, [3, 5, 7])
    assert len(cells) == 9
    assert {(c.k, c.warmup_epochs) for c in cells} == {
        (k, w) for k in k_values for w in (3, 5, 7)
    }
    assert all(np.isfinite(c.auc) for c in cells)
