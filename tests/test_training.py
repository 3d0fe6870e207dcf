"""Tests for training, evaluation, and the synthetic noise generator."""

import numpy as np
import pytest

from glsmooth.errors import ConfigError, NumericError
from glsmooth.training import (
    Model,
    TrainConfig,
    TrainExample,
    auc,
    batch_loss,
    cell_seed,
    evaluate,
    load_model,
    predict,
    predict_proba,
    read_examples,
    save_model,
    sweep,
    synthetic_noisy_generator,
    train,
    write_examples,
)


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


def toy_separable(n=200, seed=0):
    """Linearly separable two-feature set, all extreme-confidence."""
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(n):
        y = int(rng.integers(0, 2))
        x = rng.normal(loc=(3.0 if y else -3.0), scale=0.5, size=2)
        examples.append(TrainExample(features=x, y=y, u=3))
    return examples


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

    def test_single_class_undefined(self):
        with pytest.raises(NumericError):
            auc([0.1, 0.9], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.9], [1, 0, 1])


class TestPredict:
    def test_zero_weight_model_is_uniform(self):
        model = Model("linear", {"W": np.zeros((3, 2)), "b": np.zeros(2)})
        np.testing.assert_array_equal(predict(model, [1.0, -2.0, 0.5]), [0.5, 0.5])

    def test_single_equals_batched(self):
        """Prediction is per-row pure; BLAS batching only moves the last ulp."""
        rng = np.random.default_rng(2)
        model = Model("linear", {"W": rng.normal(size=(4, 2)), "b": rng.normal(size=2)})
        X = rng.normal(size=(10, 4))
        batched = predict_proba(model, X)
        singles = np.stack([predict(model, x) for x in X])
        np.testing.assert_allclose(batched, singles, rtol=0, atol=1e-12)

    def test_linear_monotonicity(self):
        model = Model(
            "linear", {"W": np.array([[0.0, 1.0], [0.0, 0.0]]), "b": np.zeros(2)}
        )
        low = predict(model, [0.0, 0.0])[1]
        high = predict(model, [2.0, 0.0])[1]
        assert high > low

    def test_dimension_mismatch(self):
        model = Model("linear", {"W": np.zeros((3, 2)), "b": np.zeros(2)})
        with pytest.raises(ValueError):
            predict(model, [1.0, 2.0])


class TestTrain:
    def test_separable_data_reaches_perfect_auc(self):
        examples = toy_separable()
        config = TrainConfig(epochs=30, learning_rate=0.05, seed=0)
        _, history = train(examples, config)
        assert history[-1].auc == 1.0

    def test_warmup_sample_counts(self):
        data = toy_separable(n=60, seed=1)
        # downgrade 20 examples to moderate confidence
        mixed = [
            TrainExample(ex.features, ex.y, 1 if i < 20 else ex.u)
            for i, ex in enumerate(data)
        ]
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
        examples = [
            TrainExample(np.array([0.1, 0.2]), 1, 1),
            TrainExample(np.array([0.3, -0.2]), 0, 2),
        ]
        with pytest.raises(ConfigError, match="extreme"):
            train(examples, TrainConfig(epochs=3, warmup_epochs=1))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train([], TrainConfig())

    def test_single_step_reduces_loss(self):
        """One small optimizer step on one example lowers that example's loss."""
        rng = np.random.default_rng(31)
        for _ in range(100):
            x = rng.normal(size=3)
            y = int(rng.integers(0, 2))
            u = int(rng.integers(-3, 4))
            example = TrainExample(features=x, y=y, u=u)
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
            model, _ = train([example], config)
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
        y_obs = np.array([ex.y for ex in data.examples])
        u = np.array([ex.u for ex in data.examples])
        flips = y_obs != data.true_labels
        for level, p in self.PROFILE.items():
            mask = u == level
            assert mask.sum() > 0
            assert abs(flips[mask].mean() - p) <= 0.03

    def test_no_noise_limit(self):
        data = synthetic_noisy_generator(500, 4, {3: 0.0, 1: 0.0}, seed=7)
        y_obs = np.array([ex.y for ex in data.examples])
        np.testing.assert_array_equal(y_obs, data.true_labels)

    def test_seeding(self):
        a = synthetic_noisy_generator(100, 3, self.PROFILE, seed=1)
        b = synthetic_noisy_generator(100, 3, self.PROFILE, seed=1)
        c = synthetic_noisy_generator(100, 3, self.PROFILE, seed=2)
        np.testing.assert_array_equal(a.examples[0].features, b.examples[0].features)
        assert not np.array_equal(a.examples[0].features, c.examples[0].features)
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

    def test_degenerate_grid_matches_single_train(self):
        from dataclasses import replace
        from fractions import Fraction

        data = synthetic_noisy_generator(300, 4, {3: 0.0, 0: 0.4}, seed=8)
        base = TrainConfig(epochs=3, learning_rate=0.05, seed=33)
        cells = sweep(data.examples, base, [Fraction(5, 12)], [1])

        rng = np.random.default_rng(base.seed)
        perm = rng.permutation(len(data.examples))
        cut = max(1, int(0.75 * len(data.examples)))
        train_split = [data.examples[i] for i in perm[:cut]]
        eval_split = [data.examples[i] for i in perm[cut:]]
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
        for orig, back in zip(data.examples, loaded):
            np.testing.assert_array_equal(orig.features, back.features)
            assert (orig.y, orig.u) == (back.y, back.u)

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
