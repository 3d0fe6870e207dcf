"""Tests for training, evaluation, and the synthetic noise generator."""

import builtins
import json
import math
import os
import sys
import threading
import tracemalloc
import warnings
from collections import namedtuple
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from glsmooth import training
from glsmooth.cli import main
from glsmooth.errors import ConfigError, DataError, NumericError
from glsmooth.smoothing import (
    SCORE_LEVELS,
    SmoothingParams,
    batch_targets,
    effective_labels,
    smoothing_rate,
    softmax,
)
from glsmooth.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ARCHITECTURES,
    LOSS_MODES,
    PROB_FLOOR,
    EpochMetrics,
    ExampleSet,
    Model,
    TrainConfig,
    auc,
    batch_loss,
    _backward,
    _forward,
    _losses_bounded,
    _lr_at,
    _scores_bounded,
    _views,
    cell_seed,
    evaluate,
    init_model,
    load_model,
    predict_proba,
    read_examples,
    save_model,
    sweep,
    sweep_configs,
    synthetic_noisy_generator,
    train,
    write_examples,
)
from test_fileio import oracle_jsonl_records

DATA_DIR = Path(__file__).parent / "data"
MAX_FLOAT = 1.7976931348623157e308

# One example as the row-wise reference implementations below read and build it.
Row = namedtuple("Row", "features y u")


def rows_of(examples: ExampleSet) -> list[Row]:
    return list(map(Row, examples.X, examples.y.tolist(), examples.u.tolist()))


def example_set(rows) -> ExampleSet:
    return ExampleSet(*oracle_as_arrays(rows))


def brute_force_auc(scores, labels) -> float:
    """O(n^2) pair-count oracle: wins + half-ties over all pos/neg pairs."""
    scores = list(map(float, scores))
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def unique_auc(scores, labels) -> float:
    """Midranks from np.unique: the reference the one-sort ranking must match bit for bit."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    first_rank = np.cumsum(counts) - counts + 1
    midranks = first_rank + (counts - 1) / 2.0
    rank_sum_pos = float(midranks[inverse][labels == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def toy_separable(n=200, seed=0):
    """Linearly separable two-feature set, all extreme-confidence."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        y = int(rng.integers(0, 2))
        x = rng.normal(loc=(3.0 if y else -3.0), scale=0.5, size=2)
        rows.append(Row(features=x, y=y, u=3))
    return example_set(rows)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_inverted_ranking(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_all_ties(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 101))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of ties
            scores = np.round(rng.random(n), 2)
            assert auc(scores, labels) == pytest.approx(
                brute_force_auc(scores, labels), abs=1e-12
            )

    # Few distinct values force ties; 0.0 and -0.0 tie.
    TIE_POOL = [-1.5, -0.0, 0.0, 1e-300, 0.25, 0.5, 1.0, math.inf, -math.inf]

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 3000),
        distinct=st.integers(1, len(TIE_POOL)),
        seed=st.integers(0, 2**32 - 1),
    )
    # One giant tie group: 140k equal scores (seed 0 keeps them equal) hold
    # about 70k positives, past a 16-bit count of a group's positives.
    @example(n=140_000, distinct=1, seed=0)
    @example(n=100_000, distinct=2, seed=1)
    @example(n=70_000, distinct=3, seed=2)  # -0.0 and 0.0 make one group of ~47k
    def test_equals_unique_midrank_oracle(self, n, distinct, seed):
        rng = np.random.default_rng(seed)
        scores = rng.choice(self.TIE_POOL[:distinct], size=n)
        if distinct == 1:  # all scores equal, or all random
            scores = scores if rng.integers(2) else rng.random(n)
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        assert auc(scores, labels).hex() == unique_auc(scores, labels).hex()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.floats(allow_nan=False, width=16), st.integers(0, 1)),
                    min_size=2, max_size=40))
    def test_equals_oracle_on_drawn_floats(self, pairs):
        scores, labels = map(list, zip(*pairs))
        labels[:2] = [0, 1]
        assert auc(scores, labels).hex() == unique_auc(scores, labels).hex()

    def test_signed_zeros_tie(self):
        assert auc([0.0, -0.0, 0.0, -0.0], [1, 0, 0, 1]) == 0.5

    @pytest.mark.parametrize(
        "scores, labels",
        [([math.nan, 0.1], [1, 0]), ([0.1, math.nan], [1, 0]), ([math.nan] * 3, [0, 1, 1])],
    )
    def test_nan_score_raises(self, scores, labels):
        with pytest.raises(ValueError, match="NaN"):
            auc(scores, labels)

    def test_single_class_undefined(self):
        with pytest.raises(NumericError):
            auc([0.1, 0.9], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.9], [1, 0, 1])


class TestPredict:
    def test_zero_weight_model_is_uniform(self):
        model = Model("linear", {"W": np.zeros((3, 2)), "b": np.zeros(2)})
        np.testing.assert_array_equal(predict_proba(model, [[1.0, -2.0, 0.5]])[0], [0.5, 0.5])

    def test_single_equals_batched(self):
        """Prediction is per-row pure; BLAS batching only moves the last ulp."""
        rng = np.random.default_rng(2)
        model = Model("linear", {"W": rng.normal(size=(4, 2)), "b": rng.normal(size=2)})
        X = rng.normal(size=(10, 4))
        batched = predict_proba(model, X)
        singles = np.stack([predict_proba(model, x[None])[0] for x in X])
        np.testing.assert_allclose(batched, singles, rtol=0, atol=1e-12)

    def test_linear_monotonicity(self):
        model = Model(
            "linear", {"W": np.array([[0.0, 1.0], [0.0, 0.0]]), "b": np.zeros(2)}
        )
        low = predict_proba(model, [[0.0, 0.0]])[0, 1]
        high = predict_proba(model, [[2.0, 0.0]])[0, 1]
        assert high > low

    def test_dimension_mismatch(self):
        model = Model("linear", {"W": np.zeros((3, 2)), "b": np.zeros(2)})
        with pytest.raises(ValueError):
            predict_proba(model, [[1.0, 2.0]])

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_blocks_equal_one_forward(self, monkeypatch, architecture, block):
        rng = np.random.default_rng(block)
        model = init_model(3, TrainConfig(architecture=architecture, hidden_width=5), rng)
        for weight in model.weights.values():
            weight += rng.normal(size=weight.shape)
        monkeypatch.setattr(training, "PREDICT_BLOCK_ROWS", block)
        for n in sorted({max(1, block * m + delta) for m in (1, 2, 3) for delta in (-1, 0, 1)}):
            X = rng.normal(size=(n, 3))
            P = predict_proba(model, X)
            assert P.shape == (n, 2)
            np.testing.assert_allclose(P, softmax(_forward(model, X)[0]), rtol=0, atol=1e-12)

    def test_block_holds_no_full_hidden_layer(self):
        n, width = 50_000, 64
        rng = np.random.default_rng(3)
        model = init_model(10, TrainConfig(architecture="mlp_1hidden", hidden_width=width), rng)
        X = rng.normal(size=(n, 10))
        tracemalloc.start()
        try:
            P = predict_proba(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The output plus a few blocks of hidden activations; one unblocked
        # forward would hold n x width floats (25.6 MB).
        assert peak < P.nbytes + 4 * training.PREDICT_BLOCK_ROWS * width * 8

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_overflow_in_last_block_is_numeric_error(self, monkeypatch, block):
        # 10 * 1e308 is inf, and inf - inf is NaN; only the last row overflows.
        model = Model("linear", {"W": np.array([[1e308, -1e308], [1e308, -1e308]]),
                                 "b": np.zeros(2)})
        n = 3 * block + 1
        X = np.full((n, 2), 1e-3)
        X[-1] = 10.0
        monkeypatch.setattr(training, "PREDICT_BLOCK_ROWS", block)
        examples = ExampleSet(X, np.arange(n) % 2, np.full(n, 3))
        with pytest.raises(NumericError, match="non-finite scores: the model overflows"):
            evaluate(model, examples)
        assert evaluate(model, examples[:-1]) == 0.5

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_training_overflow_in_last_block_is_numeric_error(self, monkeypatch, block):
        # One warm-up epoch trains on the |u| = 3 rows alone, so the epoch's
        # scoring pass is the first to score the last row, whose features
        # overflow a logit.  It runs, and checks, without the AUC too.
        config = TrainConfig(epochs=1, warmup_epochs=1, learning_rate=1e-12, seed=4)
        n, d = 3 * block + 1, 10
        W = init_model(d, config, np.random.default_rng(config.seed)).weights["W"]
        assert np.abs(W[:, 0]).sum() > 1.0  # so the last row's class-0 logit is +inf
        rng = np.random.default_rng(block)
        X = rng.normal(size=(n, d))
        X[-1] = np.sign(W[:, 0]) * MAX_FLOAT
        u = np.full(n, 3)
        u[-1] = 0
        monkeypatch.setattr(training, "PREDICT_BLOCK_ROWS", block)
        examples = ExampleSet(X, np.arange(n) % 2, u)
        for epoch_metrics in (True, False):
            with pytest.raises(NumericError, match="non-finite scores after epoch 1"):
                train(examples, config, epoch_metrics=epoch_metrics)
            train(examples[:-1], config, epoch_metrics=epoch_metrics)

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_inputs_left_unmodified(self, architecture):
        rng = np.random.default_rng(5)
        config = TrainConfig(architecture=architecture, hidden_width=3)
        model = init_model(4, config, rng)
        X = rng.normal(size=(6, 4))
        before = X.tobytes(), [w.tobytes() for w in model.weights.values()]
        predict_proba(model, X)
        assert (X.tobytes(), [w.tobytes() for w in model.weights.values()]) == before


def scaled_arrays(shape):
    """Arrays of one power of ten up to 1e308 times entries in [-1, 1], exact zeros among them."""
    mantissas = hnp.arrays(np.float64, shape, elements=st.one_of(st.just(0.0), st.floats(-1, 1)))
    return st.builds(lambda m, e: m * 10.0**e, mantissas, st.integers(-30, 308))


@st.composite
def models_and_rows(draw):
    """A model of either architecture with weights up to about 1e308, and finite rows to score."""
    architecture = draw(st.sampled_from(ARCHITECTURES))
    n, d, width = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if architecture == "linear":
        shapes = {"W": (d, 2), "b": (2,)}
    else:
        shapes = {"W1": (d, width), "b1": (width,), "W2": (width, 2), "b2": (2,)}
    weights = {key: draw(scaled_arrays(shape)) for key, shape in shapes.items()}
    X = draw(st.one_of(
        scaled_arrays((n, d)),
        hnp.arrays(np.float64, (n, d), elements=st.floats(-MAX_FLOAT, MAX_FLOAT)),
    ))
    return Model(architecture, weights), X


def linear(W, b):
    return Model("linear", {"W": np.array(W, dtype=float), "b": np.array(b, dtype=float)})


def mlp(W1, W2):
    """A one-hidden-layer model with zero biases."""
    W1, W2 = np.array(W1, dtype=float), np.array(W2, dtype=float)
    return Model("mlp_1hidden", {"W1": W1, "b1": np.zeros(len(W2)), "W2": W2, "b2": np.zeros(2)})


def row_l1(X):
    """The largest L1 norm of a row of X, inf if it overflows; train's bound is at least this."""
    with np.errstate(over="ignore"):
        return np.abs(X).sum(axis=1).max()


class TestScoreBound:
    """Where _scores_bounded holds, no score can be non-finite, so train skips scoring."""

    @settings(max_examples=200, deadline=None)
    @given(model_and_rows=models_and_rows())
    # Logits of both signs just below a quarter of the float maximum (bounded)...
    @example(model_and_rows=(linear([[1e154, -1e154]] * 2, [0, 0]), [[2e153, 2e153]]))
    @example(model_and_rows=(
        mlp([[1e3, -1e3] * 2], [[1.1e307, -1.1e307], [-1.1e307, 1.1e307]] * 2), [[1.0]]))
    # ...and past it, where the difference of two logits overflows: the
    # quarter, the bias and the hidden width each belong in the bound.
    @example(model_and_rows=(linear([[1e154, -1e154]] * 2, [0, 0]), [[5e153, 5e153]]))
    @example(model_and_rows=(linear([[0, 0]], [1e308, -1e308]), [[1.0]]))
    @example(model_and_rows=(
        mlp([[1e3, -1e3] * 2], [[4e307, -4e307], [-4e307, 4e307]] * 2), [[1.0]]))
    def test_bounded_scores_are_finite_without_a_warning(self, model_and_rows):
        model, X = model_and_rows
        X = np.asarray(X, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # as in train
            bounded = _scores_bounded(model, row_l1(X))
        if bounded:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                P = predict_proba(model, X)
            assert np.isfinite(P).all()

    def test_finite_scores_past_the_bound_are_scored(self):
        # A row's L1 norm overflows, so the bound fails, though every score is
        # finite: each epoch scores the training split, as with the AUC, and
        # the model is the same.
        config = TrainConfig(epochs=2, learning_rate=1e-3, seed=3)
        X = np.random.default_rng(3).normal(size=(6, 2))
        X[0] = 1e308
        examples = ExampleSet(X, np.arange(6) % 2, np.full(6, 3))
        with mock.patch.object(training, "predict_proba", wraps=predict_proba) as scored:
            model, _ = train(examples, config, epoch_metrics=False)
        expected, _ = train(examples, config)
        assert scored.call_count == config.epochs
        assert [w.tobytes() for w in model.weights.values()] == [
            w.tobytes() for w in expected.weights.values()
        ]
        with np.errstate(invalid="ignore"):
            assert not _scores_bounded(model, row_l1(X))


class TestLossBound:
    """Where _losses_bounded holds, no clamped probabilities' loss, nor their sum, is non-finite."""

    @settings(max_examples=200, deadline=None)
    @given(
        r=hnp.arrays(np.float64, st.integers(1, 4), elements=st.one_of(
            st.floats(-MAX_FLOAT, 1.0), st.builds(lambda m, e: m * 10.0**e,
                                                  st.floats(-1.0, 1.0), st.integers(0, 308)))),
        p=st.floats(0.0, 1.0),
    )
    # A rate just inside the bound, with each row's own class at the floor.
    @example(r=np.array([-8.1e305, 1.0]), p=0.0)
    # Rates just inside the bound on two rows' total.
    @example(r=np.array([-4.0e305, 1.0]), p=0.0)
    def test_bounded_losses_are_finite_without_a_warning(self, r, p):
        r = r.clip(max=1.0)  # a rate is -k|u| + r0 with k > 0 and r0 <= 1
        y = np.arange(len(r)) % 2
        P = np.stack([np.full(len(r), p), np.full(len(r), 1 - p)], axis=1)
        P[y == 1] = P[y == 1, ::-1]  # each row's own class has probability p
        P = P.clip(PROB_FLOOR, 1 - PROB_FLOOR)  # as in train
        with np.errstate(over="ignore"):  # as in train
            bounded = _losses_bounded(r)
        if bounded:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                losses = batch_loss(P, y, r)
            assert np.isfinite(losses).all()
            assert math.isfinite(float(losses.sum()))


class TestTrain:
    def test_separable_data_reaches_perfect_auc(self):
        examples = toy_separable()
        config = TrainConfig(epochs=30, learning_rate=0.05, seed=0)
        _, history = train(examples, config)
        assert history[-1].auc == 1.0

    def test_warmup_sample_counts(self):
        data = toy_separable(n=60, seed=1)
        # downgrade 20 examples to moderate confidence
        u = data.u.copy()
        u[:20] = 1
        mixed = ExampleSet(data.X, data.y, u)
        config = TrainConfig(epochs=8, warmup_epochs=5, seed=3)
        _, history = train(mixed, config)
        for metrics in history[:5]:
            assert metrics.samples_used == 40
        for metrics in history[5:]:
            assert metrics.samples_used == 60

    def test_bitwise_determinism(self):
        examples = toy_separable(n=80, seed=5)
        config = TrainConfig(epochs=6, warmup_epochs=2, seed=11)
        model_a, history_a = train(examples, config)
        model_b, history_b = train(examples, config)
        for key in model_a.weights:
            np.testing.assert_array_equal(model_a.weights[key], model_b.weights[key])
        assert history_a == history_b

    def test_warmup_without_extremes_rejected(self):
        examples = ExampleSet([[0.1, 0.2], [0.3, -0.2]], [1, 0], [1, 2])
        with pytest.raises(ConfigError, match="extreme"):
            train(examples, TrainConfig(epochs=3, warmup_epochs=1))

    def test_empty_dataset_rejected(self, tmp_path):
        empty = ExampleSet(np.zeros((0, 2)), [], [])
        examples = toy_separable(n=8, seed=0)
        model, _ = train(examples, TrainConfig(epochs=1))
        path = tmp_path / "empty.jsonl"
        for call in (
            lambda: train(empty, TrainConfig()),
            lambda: evaluate(model, empty),
            lambda: sweep(empty, TrainConfig(), [1], [0]),
            lambda: sweep(examples, TrainConfig(), [1], [0], eval_dataset=empty),
            lambda: write_examples(path, empty),
        ):
            with pytest.raises(ConfigError, match="dataset is empty"):
                call()
        assert not path.exists()

    def test_single_step_reduces_loss(self):
        """One small optimizer step on one example lowers that example's loss."""
        rng = np.random.default_rng(31)
        for _ in range(100):
            x = rng.normal(size=3)
            y = int(rng.integers(0, 2))
            u = int(rng.integers(-3, 4))
            example = ExampleSet(x[None, :], [y], [u])
            config = TrainConfig(
                epochs=1,
                learning_rate=1e-4,
                lr_warmup_epochs=1,
                batch_size=1,
                weight_decay=0.0,
                seed=int(rng.integers(0, 2**31)),
            )
            # loss of the freshly initialized model on this example
            init_rng = np.random.default_rng(config.seed)
            from glsmooth.training import init_model  # same init path as train()

            before_model = init_model(3, config, init_rng)
            from glsmooth.smoothing import effective_label, smoothing_rate

            r = smoothing_rate(u)
            y_eff = effective_label(y, u)
            before = batch_loss(predict_proba(before_model, x[None, :]), [y_eff], [r])[0]
            model, _ = train(example, config)
            after = batch_loss(predict_proba(model, x[None, :]), [y_eff], [r])[0]
            assert after < before

    def test_mlp_trains(self):
        examples = toy_separable(n=120, seed=7)
        config = TrainConfig(
            epochs=12, learning_rate=0.02, seed=2, architecture="mlp_1hidden", hidden_width=8
        )
        _, history = train(examples, config)
        assert history[-1].auc > 0.95

    def test_ce_mode_ignores_scores(self):
        """Forcing r=0 must equal GLS on an all-extreme-positive dataset with r(3)=0."""
        examples = toy_separable(n=50, seed=9)
        from fractions import Fraction

        from glsmooth.smoothing import SmoothingParams

        zero_at_three = SmoothingParams(k=Fraction(1, 3))  # r(3) = 0
        gls_cfg = TrainConfig(epochs=4, seed=13, smoothing_params=zero_at_three)
        ce_cfg = TrainConfig(epochs=4, seed=13, loss="ce")
        model_g, hist_g = train(examples, gls_cfg)
        model_c, hist_c = train(examples, ce_cfg)
        for key in model_g.weights:
            np.testing.assert_allclose(model_g.weights[key], model_c.weights[key], atol=1e-12)


class TestSyntheticGenerator:
    PROFILE = {3: 0.0, 2: 0.1, 1: 0.25, 0: 0.5}

    def test_flip_rates_match_profile(self):
        data = synthetic_noisy_generator(4000, 10, self.PROFILE, seed=123)
        y_obs, u = data.examples.y, data.examples.u
        flips = y_obs != data.true_labels
        for level, p in self.PROFILE.items():
            mask = u == level
            assert mask.sum() > 0
            assert abs(flips[mask].mean() - p) <= 0.03

    def test_no_noise_limit(self):
        data = synthetic_noisy_generator(500, 4, {3: 0.0, 1: 0.0}, seed=7)
        y_obs = data.examples.y
        np.testing.assert_array_equal(y_obs, data.true_labels)

    def test_seeding(self):
        a = synthetic_noisy_generator(100, 3, self.PROFILE, seed=1)
        b = synthetic_noisy_generator(100, 3, self.PROFILE, seed=1)
        c = synthetic_noisy_generator(100, 3, self.PROFILE, seed=2)
        np.testing.assert_array_equal(a.examples.X[0], b.examples.X[0])
        assert not np.array_equal(a.examples.X[0], c.examples.X[0])
        assert len(c.examples) == 100

    def test_invalid_flip_probability(self):
        with pytest.raises(ConfigError):
            synthetic_noisy_generator(10, 2, {3: 0.7}, seed=0)

    def test_invalid_level(self):
        with pytest.raises(ConfigError):
            synthetic_noisy_generator(10, 2, {5: 0.1}, seed=0)


class TestSweep:
    def test_grid_shape_and_finiteness(self):
        data = synthetic_noisy_generator(400, 4, {3: 0.0, 0: 0.5}, seed=5)
        base = TrainConfig(epochs=4, learning_rate=0.05, seed=21)
        from fractions import Fraction

        cells = sweep(
            data.examples, base, [Fraction(3, 8), Fraction(5, 12)], [1, 2]
        )
        assert len(cells) == 4
        assert len({(c.k, c.warmup_epochs) for c in cells}) == 4
        assert all(np.isfinite(c.auc) for c in cells)

    def test_five_twelfths_slope_reproduces_reference_rates(self):
        """The 5/12 sweep column runs on exactly the default rate table."""
        from fractions import Fraction

        from glsmooth.smoothing import DEFAULT_PARAMS, SmoothingParams, score_rate_table

        assert score_rate_table(SmoothingParams(k=Fraction(5, 12))) == score_rate_table(
            DEFAULT_PARAMS
        )

    @pytest.mark.parametrize("k_values, warmups, message", [
        ([Fraction(5, 12), 0], [0, 1], "slope k must be positive"),
        ([Fraction(5, 12)], [0, 9], "warmup_epochs"),
        ([], [0], "at least one k"),
        ([Fraction(5, 12)], [], "at least one k"),
    ])
    def test_bad_cell_raises_before_any_cell_trains(self, k_values, warmups, message):
        data = synthetic_noisy_generator(40, 3, {3: 0.0, 0: 0.5}, seed=5)
        with mock.patch.object(training, "train", wraps=training.train) as counted:
            with pytest.raises(ConfigError, match=message):
                sweep(data.examples, TrainConfig(epochs=3), k_values, warmups)
        assert counted.call_count == 0

    def test_cells_compute_no_per_epoch_auc(self):
        # One AUC per cell, on the eval split; the per-epoch AUC would add one per epoch.
        data = synthetic_noisy_generator(200, 3, {3: 0.0, 0: 0.4}, seed=6)
        with mock.patch.object(training, "auc", wraps=training.auc) as aucs:
            with mock.patch.object(training, "train", wraps=training.train) as trains:
                cells = sweep(data.examples, TrainConfig(epochs=3),
                              [Fraction(1, 3), Fraction(5, 12)], [0, 1])
        assert (len(cells), trains.call_count, aucs.call_count) == (4, 4, 4)

    def test_cells_compute_no_loss(self):
        # No step of a cell computes its loss: the history is discarded.  A
        # train() that keeps its history computes one per step.
        data = synthetic_noisy_generator(200, 3, {3: 0.0, 0: 0.4}, seed=6)
        config = TrainConfig(epochs=3, batch_size=16)
        with mock.patch.object(training, "batch_loss", wraps=batch_loss) as losses:
            cells = sweep(data.examples, config, [Fraction(1, 3), Fraction(5, 12)], [0, 1])
            assert (len(cells), losses.call_count) == (4, 0)
            _, history = train(data.examples, config)
        steps = sum(math.ceil(m.samples_used / config.batch_size) for m in history)
        assert losses.call_count == steps == 3 * 13

    def test_cells_score_only_the_eval_split(self):
        # The weight bound proves each epoch's scores finite, so a cell's one
        # predict_proba is its held-out AUC; without the bound every epoch
        # scores the training split again, and the models are the same.
        data = synthetic_noisy_generator(200, 3, {3: 0.0, 0: 0.4}, seed=6)

        def run():
            models = []

            def kept(*args, **kwargs):
                models.append(train(*args, **kwargs)[0])
                return models[-1], []

            with mock.patch.object(training, "train", side_effect=kept):
                with mock.patch.object(training, "predict_proba", wraps=predict_proba) as scored:
                    cells = sweep(data.examples, TrainConfig(epochs=3),
                                  [Fraction(1, 3), Fraction(5, 12)], [0, 1])
            return cells, [[w.tobytes() for w in m.weights.values()] for m in models], scored

        cells, weights, scored = run()
        with mock.patch.object(training, "_scores_bounded", return_value=False):
            cells_scored, weights_scored, scored_again = run()
        assert (len(weights), scored.call_count, scored_again.call_count) == (4, 4, 16)
        assert (cells, weights) == (cells_scored, weights_scored)

    def test_cell_configs_are_k_major_with_grid_seeds(self):
        base = TrainConfig(epochs=3, seed=7)
        configs = sweep_configs(base, [Fraction(3, 8), Fraction(5, 12)], [0, 2])
        assert [(c.smoothing_params.k, c.warmup_epochs, c.seed) for c in configs] == [
            (Fraction(3, 8), 0, cell_seed(7, 0)),
            (Fraction(3, 8), 2, cell_seed(7, 1)),
            (Fraction(5, 12), 0, cell_seed(7, 2)),
            (Fraction(5, 12), 2, cell_seed(7, 3)),
        ]
        assert all(c.epochs == 3 and c.smoothing_params.r0 == 1 for c in configs)

    def test_degenerate_grid_matches_single_train(self):
        from dataclasses import replace
        from fractions import Fraction

        data = synthetic_noisy_generator(300, 4, {3: 0.0, 0: 0.4}, seed=8)
        base = TrainConfig(epochs=3, learning_rate=0.05, seed=33)
        cells = sweep(data.examples, base, [Fraction(5, 12)], [1])

        rng = np.random.default_rng(base.seed)
        perm = rng.permutation(len(data.examples))
        cut = max(1, int(0.75 * len(data.examples)))
        train_split = data.examples[perm[:cut]]
        eval_split = data.examples[perm[cut:]]
        config = replace(base, warmup_epochs=1, seed=cell_seed(base.seed, 0))
        model, _ = train(train_split, config)
        assert cells[0].auc == evaluate(model, eval_split)


class TestFileFormats:
    def test_examples_round_trip(self, tmp_path):
        data = synthetic_noisy_generator(25, 3, {3: 0.0, 1: 0.2}, seed=4)
        path = tmp_path / "train.jsonl"
        write_examples(path, data.examples)
        loaded = read_examples(path)
        assert len(loaded) == 25
        np.testing.assert_array_equal(loaded.X, data.examples.X)
        np.testing.assert_array_equal(loaded.y, data.examples.y)
        np.testing.assert_array_equal(loaded.u, data.examples.u)

    def test_read_rejects_ragged_dims(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"features": [1.0, 2.0], "y": 1, "u": 3}\n'
            '{"features": [1.0], "y": 0, "u": 0}\n'
        )
        from glsmooth.errors import DataError

        with pytest.raises(DataError, match="line 2"):
            read_examples(path)

    def test_model_round_trip(self, tmp_path):
        examples = toy_separable(n=40, seed=3)
        model, _ = train(examples, TrainConfig(epochs=2, seed=6))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.architecture == model.architecture
        for key in model.weights:
            np.testing.assert_array_equal(loaded.weights[key], model.weights[key])

    @pytest.mark.parametrize(
        "architecture, weights, hidden_width",
        [
            ("linear", {"W": [[0.5, -1.0]], "b": [0.0, 0.25]}, None),
            ("mlp_1hidden",
             {"W1": [[0.5, -1.0]], "b1": [0.0, 0.25], "W2": [[1.5, 2.0], [-0.5, 3.0]],
              "b2": [0.125, -0.0]},
             2),
        ],
    )
    def test_model_file_bytes(self, tmp_path, architecture, weights, hidden_width):
        # hidden_width is W1's width (null for linear), whatever a loaded file held.
        expected = json.dumps(
            {"architecture": architecture, "hidden_width": hidden_width, "weights": weights},
            indent=2,
        ) + "\n"
        model = Model(architecture, {k: np.array(w) for k, w in weights.items()})
        path = tmp_path / "model.json"
        save_model(model, path)
        assert path.read_text() == expected
        path.write_text(expected.replace(f'"hidden_width": {json.dumps(hidden_width)}',
                                         '"hidden_width": 99'))
        save_model(load_model(path), path)
        assert path.read_text() == expected


class TestBackward:
    """The trainer's backward pass against central differences of the mean loss."""

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_matches_central_differences(self, architecture):
        rng = np.random.default_rng(8)
        n, d = 7, 3
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n)
        u = np.array([3, -3, 3, -3, 2, 0, -1])
        r = np.array([smoothing_rate(int(level)) for level in u])
        assert (r < 0).sum() == 4  # targets outside [0, 1]
        y_eff = effective_labels(y, u)
        config = TrainConfig(architecture=architecture, hidden_width=4)
        model = init_model(d, config, rng)
        theta = next(iter(model.weights.values())).base

        def mean_loss():
            P = softmax(_forward(model, X)[0])
            assert PROB_FLOOR < P.min() and P.max() < 1 - PROB_FLOOR  # no clipping
            return batch_loss(P, y_eff, r).mean()

        logits, hidden = _forward(model, X)
        G = (softmax(logits) - batch_targets(y_eff, r)) / n
        grad = np.empty_like(theta)
        _backward(model, X, hidden, G, _views(grad, model.weights))

        step = 1e-6
        numeric = np.empty_like(theta)
        for i in range(theta.size):
            saved = theta[i]
            theta[i] = saved + step
            up = mean_loss()
            theta[i] = saved - step
            down = mean_loss()
            theta[i] = saved
            numeric[i] = (up - down) / (2 * step)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)


def scratch_buffer_adam_step(theta, grad, opt_m, opt_v, lr, step, weight_decay):
    """The Adam update as ``train`` once inlined it: 16 in-place operations on two buffers."""
    buf_a = np.empty_like(theta)
    buf_b = np.empty_like(theta)
    eps = 1e-8
    opt_m *= ADAM_BETA1
    np.multiply(1 - ADAM_BETA1, grad, out=buf_a)
    opt_m += buf_a
    opt_v *= ADAM_BETA2
    np.square(grad, out=buf_a)
    buf_a *= 1 - ADAM_BETA2
    opt_v += buf_a
    np.divide(opt_m, 1 - ADAM_BETA1**step, out=buf_a)
    np.divide(opt_v, 1 - ADAM_BETA2**step, out=buf_b)
    np.sqrt(buf_b, out=buf_b)
    buf_b += eps
    buf_a /= buf_b
    np.multiply(weight_decay, theta, out=buf_b)
    buf_a += buf_b
    buf_a *= lr
    theta -= buf_a


# Signed zeros, subnormals, values near the float maximum, infinities and NaN.
EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, MAX_FLOAT, -MAX_FLOAT,
                     1.7976931348623155e308, math.inf, -math.inf, math.nan]),
)


class TestAdamStep:
    @settings(max_examples=300, deadline=None)
    @given(
        vectors=st.integers(1, 12).flatmap(
            lambda size: st.tuples(*[hnp.arrays(np.float64, size, elements=EDGE_FLOATS)] * 4)
        ),
        lr=st.one_of(st.floats(0.0, 1e308), st.sampled_from([1e-2, 0.5, 1e308])),
        step=st.one_of(st.integers(1, 10**6), st.integers(1, 10)),
        weight_decay=st.one_of(st.just(0.0), st.floats(0.0, 1e308, exclude_min=True)),
    )
    def test_same_bits_as_scratch_buffer_update(self, vectors, lr, step, weight_decay):
        theta, grad, m, v = vectors
        want = [a.copy() for a in (theta, m, v)]
        with np.errstate(all="ignore"):
            scratch_buffer_adam_step(want[0], grad, want[1], want[2], lr, step, weight_decay)
            training._adam_step(theta, grad, m, v, lr, step, weight_decay)
        for got, expected in zip((theta, m, v), want):
            assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Reference implementations: the row-wise reader and the per-key Adam loop
# that the columnar reader and the flat-vector update replaced.  The same
# elementwise IEEE operations on the same values must give the same bits.


def oracle_as_arrays(dataset):
    if not dataset:
        raise ConfigError("dataset is empty")
    X = np.stack([np.asarray(ex.features, dtype=np.float64) for ex in dataset])
    if X.ndim != 2:
        raise DataError("examples must have one-dimensional feature vectors")
    if not np.all(np.isfinite(X)):
        raise DataError("features contain non-finite values")
    y = np.array([ex.y for ex in dataset], dtype=np.int64)
    u = np.array([ex.u for ex in dataset], dtype=np.int64)
    if not np.all((y == 0) | (y == 1)):
        raise DataError("labels must be 0 or 1")
    if not np.all((u >= -3) & (u <= 3)):
        raise DataError("uncertainty scores must lie in {-3..3}")
    return X, y, u


def oracle_field_errors(rec):
    """What an example line's single-field rules say of its values, every bad field named."""
    features, y, u = rec["features"], rec["y"], rec["u"]
    numbers = type(features) is list and all(
        type(x) is float or (type(x) is int and abs(x) <= MAX_FLOAT) for x in features
    )
    wrong = []
    if not (numbers and features and np.all(np.isfinite(np.array(features, dtype=np.float64)))):
        wrong.append("features must be a non-empty list of finite numbers")
    if type(y) is not int or y not in (0, 1):
        wrong.append("y must be 0 or 1")
    if type(u) is not int or u not in SCORE_LEVELS:
        wrong.append("u must be an integer in {-3..3}")
    return "; ".join(wrong)


def oracle_read_examples(path):
    examples = []
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            rec = json.loads(line)
            if wrong := oracle_field_errors(rec):
                raise DataError(f"line {lineno}: {wrong}")
            features = np.asarray(rec["features"], dtype=np.float64)
            if dim is None:
                dim = features.shape[0]
            elif features.shape[0] != dim:
                raise DataError(f"line {lineno}: feature dimension {features.shape[0]} != {dim}")
            examples.append(Row(features=features, y=rec["y"], u=rec["u"]))
    return examples


def oracle_line_reader(path):
    """The reader line by line: json.loads and the fields' rules per line, then the
    feature width, then one float64 array; the first problem raises."""
    rows, ys, us = [], [], []
    dim = None
    for lineno, rec in oracle_jsonl_records(path, {"features": None, "y": None, "u": None}):
        if isinstance(rec, DataError):
            raise rec
        if wrong := oracle_field_errors(rec):
            raise DataError(f"line {lineno}: {wrong}")
        features, y, u = rec["features"], rec["y"], rec["u"]
        if dim is None:
            dim = len(features)
        elif len(features) != dim:
            raise DataError(f"line {lineno}: feature dimension {len(features)} != {dim}")
        rows.append(features)
        ys.append(y)
        us.append(u)
    if not rows:
        raise DataError(f"no examples in {path}")
    X = np.array(rows, dtype=np.float64)
    return X, np.array(ys, dtype=np.int64), np.array(us, dtype=np.int64)


def read_outcome(read, path):
    """(X bytes, shape, y bytes, u bytes) of what ``read`` returns, or its DataError's text."""
    try:
        got = read(path)
    except DataError as exc:
        return str(exc)
    X, y, u = (got.X, got.y, got.u) if isinstance(got, ExampleSet) else got
    assert y.dtype == u.dtype == np.int64
    return X.tobytes(), X.shape, y.tobytes(), u.tobytes()


def oracle_train(dataset, config):
    """The trainer with one weight array per layer and Adam as a per-key loop."""
    X, y, u = oracle_as_arrays(dataset)
    n = len(X)
    if config.loss == "gls":
        rate_of = {lvl: smoothing_rate(lvl, config.smoothing_params) for lvl in SCORE_LEVELS}
        r = np.array([rate_of[int(ui)] for ui in u])
    else:
        r = np.zeros(n)
    # Both losses train on the effective labels, which the AUC also reads.
    y_train = y_metric = effective_labels(y, u)
    extreme = np.flatnonzero(np.abs(u) == 3)

    rng = np.random.default_rng(config.seed)
    d = X.shape[1]
    if config.architecture == "linear":
        weights = {
            "W": rng.uniform(-1.0, 1.0, size=(d, 2)) / math.sqrt(d),
            "b": np.zeros(2),
        }
    else:
        h = config.hidden_width
        weights = {
            "W1": rng.uniform(-1.0, 1.0, size=(d, h)) / math.sqrt(d),
            "b1": np.zeros(h),
            "W2": rng.uniform(-1.0, 1.0, size=(h, 2)) / math.sqrt(h),
            "b2": np.zeros(2),
        }

    def forward(Xb):
        if config.architecture == "linear":
            return Xb @ weights["W"] + weights["b"], None
        hidden = np.tanh(Xb @ weights["W1"] + weights["b1"])
        return hidden @ weights["W2"] + weights["b2"], hidden

    opt_m = {k: np.zeros_like(w) for k, w in weights.items()}
    opt_v = {k: np.zeros_like(w) for k, w in weights.items()}
    step = 0
    eps = 1e-8
    history = []
    for epoch in range(1, config.epochs + 1):
        active = extreme if epoch <= config.warmup_epochs else np.arange(n)
        order = active[rng.permutation(len(active))]
        lr = _lr_at(epoch, config)
        total_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            Xb, yb, rb = X[batch], y_train[batch], r[batch]
            logits, hidden = forward(Xb)
            P = softmax(logits)
            losses = batch_loss(np.clip(P, PROB_FLOOR, 1 - PROB_FLOOR), yb, rb)
            total_loss += float(losses.sum())
            G = (P - batch_targets(yb, rb)) / len(batch)
            if config.architecture == "linear":
                grads = {"W": Xb.T @ G, "b": G.sum(axis=0)}
            else:
                dH = (G @ weights["W2"].T) * (1.0 - hidden**2)
                grads = {
                    "W1": Xb.T @ dH,
                    "b1": dH.sum(axis=0),
                    "W2": hidden.T @ G,
                    "b2": G.sum(axis=0),
                }
            step += 1
            for key, g in grads.items():
                opt_m[key] = ADAM_BETA1 * opt_m[key] + (1 - ADAM_BETA1) * g
                opt_v[key] = ADAM_BETA2 * opt_v[key] + (1 - ADAM_BETA2) * g**2
                m_hat = opt_m[key] / (1 - ADAM_BETA1**step)
                v_hat = opt_v[key] / (1 - ADAM_BETA2**step)
                weights[key] -= lr * (
                    m_hat / (np.sqrt(v_hat) + eps) + config.weight_decay * weights[key]
                )
        scores = softmax(forward(X)[0])[:, 1]
        try:
            epoch_auc = auc(scores, y_metric)
        except NumericError:
            epoch_auc = float("nan")
        history.append(EpochMetrics(epoch, total_loss / len(order), epoch_auc, len(order)))
    return weights, history


def random_examples(seed, n, d):
    rng = np.random.default_rng(seed)
    u = rng.integers(-3, 4, size=n)
    u[0] = 3  # a warm-up needs one extreme-confidence example
    y = rng.integers(0, 2, size=n)
    X = rng.standard_normal((n, d)) + np.where(y[:, None] == 1, 0.7, -0.7)
    return [Row(X[i], int(y[i]), int(u[i])) for i in range(n)]


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(2, 70),
        d=st.integers(1, 5),
        architecture=st.sampled_from(ARCHITECTURES),
        hidden_width=st.integers(1, 6),
        weight_decay=st.sampled_from([0.0, 0.01, 0.3]),
        batch_size=st.integers(1, 40),
        epochs=st.integers(1, 4),
        warmup=st.integers(0, 4),
        lr_warmup=st.integers(0, 3),
        loss=st.sampled_from(LOSS_MODES),
        # Gather blocks smaller than, equal to and larger than a batch, and the default.
        gather_rows=st.sampled_from([1, 5, 64, training.GATHER_ROWS]),
    )
    # Several gather blocks of several batches each: the mean loss adds each
    # batch's sum to the running total in turn, as the oracle does.
    @example(seed=3, n=70, d=2, architecture="linear", hidden_width=1, weight_decay=0.0,
             batch_size=1, epochs=2, warmup=0, lr_warmup=1, loss="gls", gather_rows=5)
    @example(seed=3, n=70, d=2, architecture="mlp_1hidden", hidden_width=3, weight_decay=0.0,
             batch_size=1, epochs=2, warmup=0, lr_warmup=1, loss="gls", gather_rows=5)
    def test_flat_adam_matches_per_key_loop(
        self, seed, n, d, architecture, hidden_width, weight_decay, batch_size, epochs,
        warmup, lr_warmup, loss, gather_rows,
    ):
        examples = random_examples(seed, n, d)
        config = TrainConfig(
            epochs=epochs, warmup_epochs=min(warmup, epochs), learning_rate=0.05,
            weight_decay=weight_decay, batch_size=batch_size, seed=seed,
            lr_warmup_epochs=lr_warmup, architecture=architecture,
            hidden_width=hidden_width, loss=loss,
        )
        expected_weights, expected_history = oracle_train(examples, config)
        with mock.patch.object(training, "GATHER_ROWS", gather_rows):
            model, history = train(example_set(examples), config)
            quiet_model, quiet_history = train(
                example_set(examples), config, epoch_metrics=False
            )
        for trained in (model, quiet_model):
            assert list(trained.weights) == list(expected_weights)
            for key, w in expected_weights.items():
                assert trained.weights[key].tobytes() == w.tobytes(), key
        assert repr(history) == repr(expected_history)  # bitwise, NaN AUCs included
        # Without the loss and the AUC, the same weights and sample counts, and NaN metrics.
        assert [(m.epoch, m.samples_used) for m in quiet_history] == [
            (m.epoch, m.samples_used) for m in expected_history
        ]
        assert all(math.isnan(m.mean_loss) and math.isnan(m.auc) for m in quiet_history)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(2, 40),
        d=st.integers(1, 4),
        architecture=st.sampled_from(ARCHITECTURES),
        batch_size=st.integers(1, 16),
        epochs=st.integers(1, 3),
        warmup=st.integers(0, 3),
        k=st.sampled_from([Fraction(5, 12), Fraction(1, 3), Fraction(1, 8)]),
        loss=st.sampled_from(LOSS_MODES),
    )
    def test_polarity_in_u_trains_as_polarity_in_y(
        self, seed, n, d, architecture, batch_size, epochs, warmup, k, loss
    ):
        # build writes y = 1 and the polarity in the sign of u; the generator
        # writes the observed label in y and u >= 0.  Both losses must read
        # the two conventions alike: same weights and metrics, bit for bit.
        signed = example_set(random_examples(seed, n, d))
        unsigned = ExampleSet(signed.X, effective_labels(signed.y, signed.u), np.abs(signed.u))
        config = TrainConfig(
            epochs=epochs, warmup_epochs=min(warmup, epochs), learning_rate=0.05,
            batch_size=batch_size, seed=seed, smoothing_params=SmoothingParams(k=k),
            architecture=architecture, hidden_width=3, loss=loss,
        )
        model_signed, history_signed = train(signed, config)
        model_unsigned, history_unsigned = train(unsigned, config)
        for key, w in model_signed.weights.items():
            assert w.tobytes() == model_unsigned.weights[key].tobytes(), key
        assert repr(history_signed) == repr(history_unsigned)  # bitwise, NaN AUCs included

    number = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-(2**80), 2**80),
        st.sampled_from([0.0, -0.0, 1e-320, 1.7976931348623157e308, 10**300]),
    )
    # Feature tokens as written by hand: -0 is the integer 0, 1e400 is inf,
    # int(MAX_FLOAT) + 1 rounds to the float maximum but is past it, so no number.
    token = st.one_of(
        number.map(json.dumps),
        st.sampled_from([
            "-0", "1E+05", "2.5e-3", "1e400", "-1e400", str(10**309), str(int(MAX_FLOAT)),
            str(int(MAX_FLOAT) + 1), "true", "null", '"1.0"', "[]",
        ]),
    )

    @staticmethod
    @st.composite
    def odd_line(draw, tokens, y, u):
        """An example line in one of the layouts json.dumps does not write, but a reader takes."""
        features = "[" + draw(st.sampled_from([", ", ",", " , "])).join(tokens) + "]"
        items = [f'"features": {features}', f'"y": {y}', f'"u": {u}']
        layout = draw(st.sampled_from(["compact", "reordered", "extra", "canonical"]))
        if layout == "reordered":
            items = draw(st.permutations(items))
        elif layout == "extra":
            extra = draw(st.sampled_from(['"note": "a"', '"r": 0.5']))
            items.insert(draw(st.integers(0, 3)), extra)
        line = "{" + (",".join(items) if layout == "compact" else ", ".join(items)) + "}"
        padding = st.sampled_from(["", "", " ", "\t", "  "])
        return draw(padding) + line + draw(padding)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), d=st.integers(1, 4), block=st.sampled_from([2, 3, 1024]))
    def test_columnar_reader_matches_row_reader(self, tmp_path_factory, data, d, block):
        n = data.draw(st.integers(1, 8))
        path = tmp_path_factory.getbasetemp() / "reader-property.jsonl"
        if data.draw(st.booleans()):
            # Lines as json.dumps writes them, also checked against the json.loads oracle.
            rows = [
                {
                    "features": data.draw(st.lists(self.number, min_size=d, max_size=d)),
                    "y": data.draw(st.sampled_from([0, 1, 1, 0, 2])),
                    "u": data.draw(st.integers(-4, 4)),
                }
                for _ in range(n)
            ]
            if data.draw(st.booleans()):
                rows[-1]["features"] = rows[-1]["features"] + [1.0]
            path.write_text("".join(json.dumps(row) + "\n" for row in rows))
            expected = read_outcome(lambda p: oracle_as_arrays(oracle_read_examples(p)), path)
            assert read_outcome(oracle_line_reader, path) == expected
        else:
            # Hand-written lines: other layouts, blank and padded lines, \r\n
            # endings, a last line without a newline, and odd feature tokens.
            lines = []
            for _ in range(n):
                width = d + data.draw(st.sampled_from([0] * 8 + [1, -1]))
                tokens = data.draw(st.lists(self.token, min_size=width, max_size=width))
                y = data.draw(st.sampled_from(["0", "1", "1", "0", "2", "true"]))
                u = data.draw(st.sampled_from(["-3", "-1", "0", "2", "3", "-0", "4", "1.0"]))
                if data.draw(st.booleans()):
                    line = f'{{"features": [{", ".join(tokens)}], "y": {y}, "u": {u}}}'
                else:
                    line = data.draw(self.odd_line(tokens, y, u))
                if data.draw(st.integers(0, 5)) == 0:
                    lines.append(data.draw(st.sampled_from(["", " ", "\t"])))
                lines.append(line)
            end = data.draw(st.sampled_from(["\n", "\r\n"]))
            text = end.join(lines) + (end if data.draw(st.booleans()) else "")
            path.write_bytes(text.encode("utf-8"))
            expected = read_outcome(oracle_line_reader, path)
        with mock.patch.object(training, "READ_BLOCK_LINES", block):
            assert read_outcome(read_examples, path) == expected


class TestReaderBlocks:
    """read_examples reads and converts a block of lines at a time."""

    BLOCK = 4

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_blocks_match_row_reader(self, tmp_path, monkeypatch, n):
        monkeypatch.setattr("glsmooth.training.READ_BLOCK_LINES", self.BLOCK)
        examples = random_examples(n, n, 3)
        examples[-1] = Row(np.array([-0.0, 1e300, 5e-324]), 1, -2)
        path = tmp_path / "blocks.jsonl"
        write_examples(path, example_set(examples))
        X, y, u = oracle_as_arrays(oracle_read_examples(path))
        got = read_examples(path)
        assert got.X.tobytes() == X.tobytes() and got.X.shape == X.shape
        assert got.y.tobytes() == y.tobytes() and got.u.tobytes() == u.tobytes()

    @pytest.mark.parametrize("good", [BLOCK, 2 * BLOCK])
    @pytest.mark.parametrize(
        "bad",
        [
            {"features": [1.0, 2.0], "y": 0, "u": 1},
            {"features": [1.0, 2.0, 3.0], "y": 2, "u": 1},
            {"features": [1.0, 2.0, 3.0], "y": 0, "u": 4},
        ],
    )
    def test_bad_line_after_a_block_boundary(self, tmp_path, monkeypatch, good, bad):
        monkeypatch.setattr("glsmooth.training.READ_BLOCK_LINES", self.BLOCK)
        path = tmp_path / "bad.jsonl"
        write_examples(path, example_set(random_examples(good, good, 3)))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(bad) + "\n")
        with pytest.raises(DataError) as expected:
            oracle_read_examples(path)
        assert str(expected.value).startswith(f"line {good + 1}: ")
        with pytest.raises(DataError) as got:
            read_examples(path)
        assert str(got.value) == str(expected.value)

    BAD_LINES = {
        "dimension": '{"features": [1.0, 2.0], "y": 0, "u": 1}',
        "y": '{"features": [1.0, 2.0, 3.0], "y": 2, "u": 1}',
        "bool": '{"features": [1.0, true, 3.0], "y": 0, "u": 1}',
        "rounds to float max": f'{{"features": [1.0, {int(MAX_FLOAT) + 1}, 3.0], "y": 0, "u": 1}}',
        "overflows float": f'{{"features": [1.0, {10**309}, 3.0], "y": 0, "u": 1}}',
        "prefix": 'x{"features": [1.0, 2.0, 3.0], "y": 0, "u": 1}',
        "empty": '{"features": [], "y": 0, "u": 1}',
        # Written-layout lines that hold a value other than a number in features.
        "null": '{"features": [1.0, null, 3.0], "y": 0, "u": 1}',
        "string": '{"features": [1.0, "2.0", 3.0], "y": 0, "u": 1}',
        "nan": '{"features": [1.0, NaN, 3.0], "y": 0, "u": 1}',
        "infinity": '{"features": [1.0, Infinity, 3.0], "y": 0, "u": 1}',
        "object": '{"features": [1.0, {}, 3.0], "y": 0, "u": 1}',
        "list": '{"features": [1.0, [2.0], 3.0], "y": 0, "u": 1}',
        "open list": '{"features": [1.0, [2.0, 3.0], "y": 0, "u": 1}',
        # One written-layout line split in two after a comma: the frame's
        # features group can match across the newline.
        "split": '{"features": [1.0,\n 2.0, 3.0], "y": 0, "u": 1}',
    }
    ODD_LINES = {
        "compact": '{"features":[1.5,-0,1E+05],"y":1,"u":-3}',
        "padded": ' {"features": [1.5, -0, 1E+05], "y": 1, "u": -3}\t',
        "reordered": '{"u": -3, "y": 1, "features": [1.5, -0, 1E+05]}',
    }

    @pytest.mark.parametrize("bad", [None, *BAD_LINES])
    @pytest.mark.parametrize("odd", ODD_LINES)
    @pytest.mark.parametrize("bad_at, odd_at", [(4, 5), (5, 4), (3, 6), (6, 3)])
    def test_bad_and_odd_lines_across_a_block_boundary(
        self, tmp_path, monkeypatch, bad, odd, bad_at, odd_at
    ):
        # Lines 1-4 are the first block, 5-8 the second: either side may take
        # the block path or be read line by line.
        monkeypatch.setattr("glsmooth.training.READ_BLOCK_LINES", self.BLOCK)
        path = tmp_path / "mixed.jsonl"
        write_examples(path, example_set(random_examples(10, 10, 3)))
        lines = path.read_text().splitlines()
        lines[odd_at - 1] = self.ODD_LINES[odd]
        if bad is not None:
            lines[bad_at - 1] = self.BAD_LINES[bad]
        path.write_text("\n".join(lines) + "\n")
        expected = read_outcome(oracle_line_reader, path)
        if bad is not None:
            assert expected.startswith(f"line {bad_at}: ")
        assert read_outcome(read_examples, path) == expected

    # Number texts in the written layout, beside float reprs: the block
    # decoder (orjson) must read each as json.loads does, or leave its block
    # to the line path.  Decimals of 1-40 digits with exponents past both ends
    # of the float range, signed integers of up to 400 digits, and values
    # at, just below and just past the float maximum.
    edge_number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.builds(
            lambda sign, lead, rest, point, exponent: (
                f"{sign}{lead}{rest[:point]}" + (f".{rest[point:]}" if rest[point:] else "")
                + f"e{exponent}"
            ),
            st.sampled_from(["", "-"]), st.sampled_from("123456789"),
            st.text("0123456789", max_size=39), st.integers(0, 39), st.integers(-400, 400),
        ),
        st.builds(lambda sign, lead, rest: f"{sign}{lead}{rest}",
                  st.sampled_from(["", "-"]), st.sampled_from("123456789"),
                  st.text("0123456789", max_size=399)),
        st.sampled_from([
            "0", "-0", "-0.0", "5e-324", "-5e-324", "2e-324", "1e-400",
            "1.7976931348623156e308", "1.7976931348623157e308", "-1.7976931348623158e308",
            "1.7976931348623159e308", str(int(MAX_FLOAT)), str(int(MAX_FLOAT) + 1),
            str(2**1024 - 2**970 - 1), str(2**1024 - 2**970), str(2**64), str(-(2**63) - 1),
        ]),
    )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), d=st.integers(1, 4), block=st.sampled_from([1, 2, 3, 1024]))
    def test_edge_numbers_read_as_json_loads_reads_them(self, tmp_path_factory, data, d, block):
        n = data.draw(st.integers(1, 8))
        lines = []
        for _ in range(n):
            features = data.draw(st.lists(self.edge_number, min_size=d, max_size=d))
            y = data.draw(st.sampled_from(["0", "1"]))
            u = data.draw(st.sampled_from(["-3", "-2", "-1", "-0", "0", "1", "2", "3"]))
            lines.append(f'{{"features": [{", ".join(features)}], "y": {y}, "u": {u}}}\n')
        path = tmp_path_factory.getbasetemp() / "edge-numbers.jsonl"
        path.write_text("".join(lines))
        expected = read_outcome(lambda p: oracle_as_arrays(oracle_read_examples(p)), path)
        with mock.patch.object(training, "READ_BLOCK_LINES", block):
            assert read_outcome(read_examples, path) == expected

    @pytest.mark.parametrize(
        "widths, error",
        [
            # 3 + 4 + 2 + 3 values would fill four rows of 3, but rows 2 and 3 are ragged.
            pytest.param([3, 4, 2, 3], "line 2: feature dimension 4 != 3", id="ragged"),
            # An empty row alone in the second block has no comma, like a row of 1.
            pytest.param([1, 1, 1, 1, 0],
                         "line 5: features must be a non-empty list of finite numbers",
                         id="empty-row"),
            # Rows of 128 are decoded two per orjson call: the second call's
            # rows agree with each other but not with the first call's, and
            # their 2 x 64 values would fill one more row of 128.
            pytest.param([128, 128, 64, 64], "line 3: feature dimension 64 != 128",
                         id="later-chunk"),
            pytest.param([0, 0, 0, 0],
                         "line 1: features must be a non-empty list of finite numbers",
                         id="all-empty"),
            pytest.param([3, 3, 3, 3, 3], None, id="one-line-block"),
            pytest.param([3, 3, 3, 3, 2, 2, 2, 2], "line 5: feature dimension 2 != 3",
                         id="block-width"),
        ],
    )
    def test_rows_of_another_width_in_a_block(self, tmp_path, monkeypatch, widths, error):
        # Each file gives oracle_read_examples' values, or its error (error is None).
        monkeypatch.setattr("glsmooth.training.READ_BLOCK_LINES", self.BLOCK)
        path = tmp_path / "ragged.jsonl"
        path.write_text("".join(
            json.dumps({"features": [0.5] * width, "y": 1, "u": 2}) + "\n" for width in widths
        ))
        expected = read_outcome(lambda p: oracle_as_arrays(oracle_read_examples(p)), path)
        assert (expected == error) if error is not None else isinstance(expected, tuple)
        assert read_outcome(oracle_line_reader, path) == expected
        assert read_outcome(read_examples, path) == expected

    @pytest.mark.parametrize("bad_record", [True, False])
    def test_bad_line_before_invalid_utf8_in_one_block(self, tmp_path, monkeypatch, bad_record):
        # A bad line 2, then far more than one text-decoder chunk of good lines,
        # then bytes that are not UTF-8 at line 401, all inside one block:
        # read line by line, line 2 fails first; the bad bytes are the first
        # error, naming their line, only when line 2 is good.
        monkeypatch.setattr("glsmooth.training.READ_BLOCK_LINES", 1024)
        path = tmp_path / "utf8.jsonl"
        write_examples(path, example_set(random_examples(400, 400, 8)))
        lines = path.read_bytes().splitlines(keepends=True)
        assert sum(map(len, lines[2:])) > 64 * 1024
        if bad_record:
            lines[1] = b'{"features": [1.0], "y": 0, "u": 1}\n'
        lines.append(b'{"features": [1.0, 2.0], "y": 0, "u": 1, "note": "\xff"}\n')
        path.write_bytes(b"".join(lines))
        with pytest.raises(DataError) as expected:
            oracle_line_reader(path)
        with pytest.raises(DataError) as got:
            read_examples(path)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith(
            "line 2: " if bad_record else f"{path}: line 401: not valid UTF-8"
        )

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_reads_as_the_file(self, tmp_path):
        # A pipe can be read once.  A reader that reads its input twice finds
        # no rows the second time, or waits to open the pipe again; it is then
        # given an end of file, and fails here either way.
        path = tmp_path / "examples.jsonl"
        write_examples(path, random_special_rows(700, 3, seed=5))
        lines = path.read_text().splitlines(keepends=True)
        lines[300] = lines[300].replace(", ", ",")  # its block is read line by line
        path.write_text("".join(lines))
        fifo = tmp_path / "examples.fifo"
        os.mkfifo(fifo)
        got = []

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(path.read_bytes())

        writer = threading.Thread(target=feed, daemon=True)
        reader = threading.Thread(target=lambda: got.append(read_outcome(read_examples, fifo)),
                                  daemon=True)
        writer.start()
        reader.start()
        reader.join(timeout=10)
        if reader.is_alive():
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=30)
        writer.join(timeout=30)
        assert not writer.is_alive() and not reader.is_alive()
        assert got == [read_outcome(read_examples, path)]
        assert isinstance(got[0], tuple)  # arrays, not an error

    def test_written_file_takes_the_block_path(self, tmp_path, monkeypatch, capsys):
        # A gen-synthetic file of several blocks is read without the line-by-line decoder.
        path = tmp_path / "synthetic.jsonl"
        argv = ["gen-synthetic", "--n", "2500", "--d", "5", "--profile", "3:0.02,1:0.25",
                "--seed", "3", "--out", str(path)]
        assert main(argv) == 0
        capsys.readouterr()

        def no_line_decoding(*args, **kwargs):
            raise AssertionError("a written file was read line by line")

        monkeypatch.setattr("glsmooth.training.decode_records", no_line_decoding)
        for written in (path, DATA_DIR / "gen_synthetic_golden.jsonl"):
            assert read_outcome(read_examples, written) == read_outcome(oracle_line_reader, written)


# ---------------------------------------------------------------------------
# Reference implementations: the row-at-a-time json.dumps writer and the
# generator that built one example object per row, replaced by the block-wise
# f-string writer and the columnar generator.  Bytes and bits must not move.


def oracle_write_examples(path, examples):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ex in examples:
            features = np.asarray(ex.features, dtype=np.float64).tolist()
            fh.write(json.dumps({"features": features, "y": int(ex.y), "u": int(ex.u)}) + "\n")


def oracle_generator(n, d, noise_profile, seed):
    rng = np.random.default_rng(seed)
    true = rng.integers(0, 2, size=n)
    direction = np.ones(d) / math.sqrt(d)
    X = rng.standard_normal((n, d)) + np.where(true[:, None] == 1, 1.0, -1.0) * direction

    levels = np.array(sorted(noise_profile), dtype=np.int64)
    magnitude = levels[rng.integers(0, len(levels), size=n)]
    flip_p = np.array([noise_profile[int(m)] for m in magnitude])
    flipped = rng.random(n) < flip_p
    observed = np.where(flipped, 1 - true, true)

    examples = [
        Row(features=X[i], y=int(observed[i]), u=int(magnitude[i]))
        for i in range(n)
    ]
    return examples, true


# write_examples formats a row holding a value on the exponent side of 1e-4
# or 1e16 with repr, and any other row with orjson: both sides of each edge.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e16, 1e-5, 1e300,
                  MAX_FLOAT, -MAX_FLOAT, 0.1, 1 / 3, 123456789.0,
                  1e-4, -1e-4, 9.999999999999999e-05, -9.999999999999999e-05,
                  9999999999999998.0, -1e16, 1.0000000000000002e16]
finite_float = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIAL_FLOATS)
)


def random_special_rows(n, d, seed):
    """An ExampleSet whose rows cycle through SPECIAL_FLOATS among random normals."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9, size=(n, d))
    flat = X.ravel()
    flat[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[: flat.size]
    return ExampleSet(X, rng.integers(0, 2, size=n), rng.integers(-3, 4, size=n))


def laid_out(examples: ExampleSet, layout: str) -> ExampleSet:
    """The examples with X in C order, in Fortran order, or as a column slice of a wider array."""
    X = examples.X
    if layout == "F":
        X = np.asfortranarray(X)
    elif layout == "columns":
        wide = np.zeros((len(X), 2 * X.shape[1]))
        wide[:, 1::2] = X
        X = wide[:, 1::2]
    return ExampleSet(X, examples.y, examples.u)


LAYOUTS = ["C", "F", "columns"]


def rows_through_repr(monkeypatch) -> list:
    """The rows write_examples formats with repr from now on, in the order written."""
    rows = []

    def counting_repr(obj):
        rows.append(obj)
        return builtins.repr(obj)

    monkeypatch.setattr(training, "repr", counting_repr, raising=False)
    return rows


def exponent_rows(X) -> list:
    """The rows of X whose repr holds an exponent."""
    return [row for row in X.tolist() if "e" in builtins.repr(row)]


def assert_same_bits(got: ExampleSet, X, y, u):
    assert got.X.tobytes() == X.tobytes() and got.X.shape == X.shape
    assert got.y.tobytes() == y.tobytes() and got.u.tobytes() == u.tobytes()


class TestWriterAndGenerator:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), d=st.integers(1, 5),
           layout=st.sampled_from(LAYOUTS))
    def test_writer_matches_json_dumps(self, tmp_path_factory, data, n, d, layout):
        rows = data.draw(st.lists(st.lists(finite_float, min_size=d, max_size=d),
                                  min_size=n, max_size=n))
        y = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        u = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        examples = laid_out(ExampleSet(np.array(rows, dtype=np.float64), y, u), layout)
        base = tmp_path_factory.getbasetemp()
        oracle_write_examples(base / "oracle.jsonl", rows_of(examples))
        write_examples(base / "got.jsonl", examples)
        assert (base / "got.jsonl").read_bytes() == (base / "oracle.jsonl").read_bytes()
        assert_same_bits(read_examples(base / "got.jsonl"), examples.X, examples.y, examples.u)

    probability = st.one_of(
        st.just(0), st.floats(0.0, 0.5), st.sampled_from([0.0, 0.5, 0.02, 0.1, 0.25, 0.45])
    )

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**63),
        n=st.integers(1, 300),
        d=st.integers(2, 6),
        profile=st.dictionaries(st.integers(0, 3), probability, min_size=1),
    )
    def test_generator_matches_row_generator(self, seed, n, d, profile):
        examples, true = oracle_generator(n, d, profile, seed)
        data = synthetic_noisy_generator(n, d, profile, seed)
        assert isinstance(data.examples, ExampleSet)
        assert_same_bits(data.examples, *oracle_as_arrays(examples))
        assert data.true_labels.tobytes() == true.tobytes()

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("n", [3, 4, 5, 9])  # 5 and 9 end on a block of one row
    def test_blocks_match_json_dumps(self, tmp_path, monkeypatch, n, d, layout):
        monkeypatch.setattr("glsmooth.training.WRITE_BLOCK_ROWS", 4)
        monkeypatch.setattr("glsmooth.training.READ_BLOCK_LINES", 4)
        examples = laid_out(random_special_rows(n, d, seed=n), layout)
        oracle_write_examples(tmp_path / "oracle.jsonl", rows_of(examples))
        write_examples(tmp_path / "got.jsonl", examples)
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()
        assert len((tmp_path / "got.jsonl").read_text().splitlines()) == n
        assert_same_bits(read_examples(tmp_path / "got.jsonl"), examples.X, examples.y, examples.u)

    def test_block_alternating_writer_paths(self, tmp_path, monkeypatch):
        monkeypatch.setattr("glsmooth.training.WRITE_BLOCK_ROWS", 4)
        through_repr = rows_through_repr(monkeypatch)
        X = np.array([[0.5, -0.0], [1e-4, 9.999999999999999e-05],
                      [9999999999999998.0, 1.0], [-1e16, 2.0]])
        examples = ExampleSet(X, [0, 1, 0, 1], [3, -3, 0, 1])
        oracle_write_examples(tmp_path / "oracle.jsonl", rows_of(examples))
        write_examples(tmp_path / "got.jsonl", examples)
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()
        assert through_repr == [X[1].tolist(), X[3].tolist()]

    def test_only_exponent_rows_take_repr(self, tmp_path, monkeypatch):
        # Every row would give the same bytes through repr, so the byte tests
        # alone pass a writer that formats every row the slow way.
        generated = synthetic_noisy_generator(2000, 10, {3: 0.0, 0: 0.5}, seed=4).examples
        special = random_special_rows(500, 3, seed=2)
        for examples in (generated, special):
            through_repr = rows_through_repr(monkeypatch)
            write_examples(tmp_path / "ex.jsonl", examples)
            assert through_repr == exponent_rows(examples.X)
        assert len(exponent_rows(generated.X)) <= len(generated) // 100
        assert len(exponent_rows(special.X)) >= len(special) // 4

    def test_generator_holds_one_feature_matrix(self):
        n, d = 20_000, 10
        profile = {3: 0.0, 2: 0.1, 1: 0.25, 0: 0.5}
        synthetic_noisy_generator(10, d, profile, seed=0)  # imports and caches, untraced
        tracemalloc.start()
        try:
            data = synthetic_noisy_generator(n, d, profile, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # X built in place, plus the label, level and flip columns; a sign or
        # shift matrix beside X would add another X.nbytes (1.6 MB).
        assert peak < data.examples.X.nbytes + 8 * n * 8

    def test_write_holds_one_block_of_floats(self, tmp_path):
        n, d = 20_000, 10
        examples = synthetic_noisy_generator(n, d, {3: 0.0, 0: 0.5}, seed=0).examples
        write_examples(tmp_path / "warm.jsonl", examples[:10])
        tracemalloc.start()
        try:
            write_examples(tmp_path / "ex.jsonl", examples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One block's texts (orjson's output, its rows and their join), and a
        # block is at most 256 rows (see WRITE_BLOCK_ROWS): about 154 kB.  The
        # bound is two blocks of rows as Python float lists, the writer that
        # formatted each row from a list; 1024-row blocks peak at about 601 kB.
        row_bytes = sys.getsizeof([0.0] * d) + d * sys.getsizeof(0.0)
        assert training.WRITE_BLOCK_ROWS <= 256
        assert peak < 2 * training.WRITE_BLOCK_ROWS * row_bytes

    def test_non_finite_feature_is_not_written(self, tmp_path):
        examples = toy_separable(n=5, seed=1)
        X = examples.X.copy()
        X[2] = [np.nan, 1.0]
        path = tmp_path / "nan.jsonl"
        with pytest.raises(DataError, match="non-finite"):
            write_examples(path, ExampleSet(X, examples.y, examples.u))
        assert not path.exists()


class TestPeakMemory:
    """Traced peaks of the calls that hold n-sized arrays (tracemalloc counts numpy's buffers)."""

    PROFILE = {3: 0.0, 2: 0.1, 1: 0.25, 0: 0.5}

    def test_reader_holds_one_copy_of_the_examples(self, tmp_path):
        n, d = 20_000, 10
        path = tmp_path / "ex.jsonl"
        write_examples(path, synthetic_noisy_generator(n, d, self.PROFILE, seed=0).examples)
        read_examples(DATA_DIR / "gen_synthetic_golden.jsonl")  # imports and caches, untraced
        tracemalloc.start()
        try:
            got = read_examples(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The columns, plus a 16th of X that the buffer grows by, an 8th of X
        # for ExampleSet's finite-feature mask, and 256 KiB for one block's
        # decoding and the label and score masks: 2.28 MiB of a 2.37 MiB
        # bound.  Blocks kept in a list and then joined peaked at 3.95 MiB.
        columns = got.X.nbytes + got.y.nbytes + got.u.nbytes
        assert peak < columns + got.X.nbytes // 16 + got.X.nbytes // 8 + 256 * 1024

    def test_auc_holds_few_n_sized_arrays(self):
        n = 200_000
        rng = np.random.default_rng(1)
        scores, labels = rng.random(n), rng.integers(0, 2, size=n)
        auc(scores[:10], [0, 1] * 5)  # imports and caches, untraced
        tracemalloc.start()
        try:
            auc(scores, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Distinct scores make n tie groups: 3.13 arrays of n float64s.  Keeping
        # the sort order, the sorted scores and a midrank per row to the end
        # peaked at 7.25.
        assert peak < 4 * 8 * n

    def test_loud_train_holds_few_n_sized_arrays(self):
        n, d = 20_000, 10
        examples = synthetic_noisy_generator(n, d, self.PROFILE, seed=0).examples
        config = TrainConfig(epochs=2, warmup_epochs=1, lr_warmup_epochs=1, batch_size=64,
                             architecture="mlp_1hidden", hidden_width=32)
        train(examples[:100], config)  # imports and caches, untraced
        tracemalloc.start()
        try:
            train(examples, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Above X, which the caller holds: 11.9 arrays of n float64s (1.82
        # MiB).  An epoch order drawn beside np.arange(n), and an AUC that
        # kept its sort order, sorted scores and a midrank per row, peaked at
        # 16.4 (2.50 MiB).
        assert peak < 13 * 8 * n

    def test_quiet_train_holds_no_more_than_loud(self):
        n, d = 20_000, 10
        examples = synthetic_noisy_generator(n, d, self.PROFILE, seed=0).examples
        config = TrainConfig(epochs=1, batch_size=64, architecture="mlp_1hidden", hidden_width=32)
        train(examples[:100], config)  # imports and caches, untraced
        peaks = {}
        for epoch_metrics in (True, False):
            tracemalloc.start()
            try:
                train(examples, config, epoch_metrics=epoch_metrics)
                peaks[epoch_metrics] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # A quiet run scores no epoch when the weight bound holds, and takes
        # its row norms a block at a time.  Taking them in one pass made an
        # n x d temporary that lifted it above the loud run (2.39 against
        # 1.72 MiB).
        assert peaks[False] <= peaks[True]


class TestExampleSet:
    @pytest.mark.parametrize(
        "X, y, u, message",
        [
            (np.zeros(3), [0, 1, 0], [3, 3, 3], "one-dimensional feature vectors"),
            (np.zeros((3, 2)), [0, 1], [3, 3, 3], "one row per example"),
            ([[0.0, np.inf]], [0], [3], "non-finite"),
            (np.zeros((1, 2)), [2], [3], "labels must be 0 or 1"),
            (np.zeros((1, 2)), [1], [4], "uncertainty scores"),
        ],
    )
    def test_rejects_bad_columns(self, X, y, u, message):
        with pytest.raises(DataError, match=message):
            ExampleSet(X, y, u)

    # Unchecked, a zero-width X reaches each use: a quiet train raises numpy's
    # bare ValueError, a loud one trains a model of AUC 0.5, and write_examples
    # writes '"features": []' lines that read_examples refuses.
    @pytest.mark.parametrize(
        "use",
        [
            lambda examples, path: train(examples, TrainConfig(epochs=1), epoch_metrics=False),
            lambda examples, path: train(examples, TrainConfig(epochs=1)),
            lambda examples, path: write_examples(path, examples),
        ],
        ids=["quiet train", "loud train", "write"],
    )
    def test_zero_width_features_rejected(self, tmp_path, use):
        path = tmp_path / "ex.jsonl"
        with pytest.raises(DataError, match="examples must have at least one feature"):
            use(ExampleSet(np.zeros((4, 0)), [0, 1, 0, 1], [3, 3, -3, -3]), path)
        assert not path.exists()

    def test_model_weights_share_one_vector(self):
        config = TrainConfig(architecture="mlp_1hidden", hidden_width=3)
        model = init_model(4, config, np.random.default_rng(0))
        theta = model.weights["W1"].base
        assert theta.shape == (4 * 3 + 3 + 3 * 2 + 2,)
        assert all(w.base is theta for w in model.weights.values())

    @pytest.mark.parametrize(
        "index", [slice(1, 4), slice(None, None, -2), slice(7, 9), np.array([4, 0, 0, 2])]
    )
    def test_slice_or_index_array_gives_an_example_set(self, index):
        examples = toy_separable(n=5, seed=2)
        X, y, u = examples.X, examples.y, examples.u
        part = examples[index]
        assert isinstance(part, ExampleSet)
        assert_same_bits(part, X[index], y[index], u[index])

    @pytest.mark.parametrize("index", [5, -6, np.int64(99)])
    def test_index_out_of_range(self, index):
        columns = toy_separable(n=5, seed=2)
        with pytest.raises(IndexError):
            columns[index]

    @pytest.mark.parametrize("index", [0, np.int64(1)])
    def test_integer_index_is_a_type_error(self, index):
        examples = toy_separable(n=5, seed=2)
        with pytest.raises(TypeError, match="a slice or an index array, not an integer"):
            examples[index]

    def test_columns_are_read_only(self, tmp_path):
        # A float64 X is kept without a copy, so the caller's array is frozen too.
        X = np.zeros((2, 2))
        examples = ExampleSet(X, [0, 1], [3, 3])
        assert examples.X is X
        with pytest.raises(ValueError, match="read-only"):
            X[0, 0] = np.nan
        for column in (examples.y, examples.u):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
        path = tmp_path / "ex.jsonl"
        write_examples(path, examples)
        assert "nan" not in path.read_text()
        assert_same_bits(read_examples(path), X, examples.y, examples.u)
