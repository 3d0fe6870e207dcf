"""Tests for training, evaluation, and the synthetic noise generator."""

import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glsmooth import training
from glsmooth.cli import main
from glsmooth.errors import ConfigError, DataError, NumericError
from glsmooth.smoothing import (
    SCORE_LEVELS,
    batch_targets,
    effective_labels,
    smoothing_rate,
    softmax,
)
from glsmooth.training import (
    ARCHITECTURES,
    LOSS_MODES,
    PROB_FLOOR,
    EpochMetrics,
    ExampleSet,
    Model,
    TrainConfig,
    TrainExample,
    auc,
    batch_loss,
    _lr_at,
    cell_seed,
    evaluate,
    init_model,
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
from test_fileio import oracle_jsonl_records

DATA_DIR = Path(__file__).parent / "data"
MAX_FLOAT = 1.7976931348623157e308


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

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_inputs_left_unmodified(self, architecture):
        rng = np.random.default_rng(5)
        config = TrainConfig(architecture=architecture, hidden_width=3)
        model = init_model(4, config, rng)
        X = rng.normal(size=(6, 4))
        before = X.tobytes(), [w.tobytes() for w in model.weights.values()]
        predict_proba(model, X)
        assert (X.tobytes(), [w.tobytes() for w in model.weights.values()]) == before


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


def oracle_read_examples(path):
    examples = []
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            rec = json.loads(line)
            features = np.asarray(rec["features"], dtype=np.float64)
            if dim is None:
                dim = features.shape[0]
            elif features.shape[0] != dim:
                raise DataError(f"line {lineno}: feature dimension {features.shape[0]} != {dim}")
            if rec["y"] not in (0, 1):
                raise DataError(f"line {lineno}: y must be 0 or 1")
            if rec["u"] not in SCORE_LEVELS:
                raise DataError(f"line {lineno}: u outside {{-3..3}}")
            examples.append(TrainExample(features=features, y=rec["y"], u=rec["u"]))
    return examples


def oracle_line_reader(path):
    """The reader as it was, line by line: json.loads and typed fields per line, then the
    line checks, then one float64 array; the first problem raises."""
    rows, ys, us = [], [], []
    dim = None
    for lineno, rec in oracle_jsonl_records(path, {"features": "numbers", "y": "int", "u": "int"}):
        if isinstance(rec, DataError):
            raise rec
        features, y, u = rec["features"], rec["y"], rec["u"]
        if dim is None:
            dim = len(features)
            if dim == 0:
                raise DataError(f"line {lineno}: features must not be empty")
        elif len(features) != dim:
            raise DataError(f"line {lineno}: feature dimension {len(features)} != {dim}")
        if y not in (0, 1):
            raise DataError(f"line {lineno}: y must be 0 or 1")
        if u not in SCORE_LEVELS:
            raise DataError(f"line {lineno}: u outside {{-3..3}}")
        rows.append(features)
        ys.append(y)
        us.append(u)
    if not rows:
        raise DataError(f"no examples in {path}")
    X = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise DataError("features contain non-finite values")
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
        y_train = effective_labels(y, u)
    else:
        r = np.zeros(n)
        y_train = y.copy()
    y_metric = effective_labels(y, u)
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
                opt_m[key] = config.beta1 * opt_m[key] + (1 - config.beta1) * g
                opt_v[key] = config.beta2 * opt_v[key] + (1 - config.beta2) * g**2
                m_hat = opt_m[key] / (1 - config.beta1**step)
                v_hat = opt_v[key] / (1 - config.beta2**step)
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
    return [TrainExample(X[i], int(y[i]), int(u[i])) for i in range(n)]


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
        columnar=st.booleans(),
    )
    def test_flat_adam_matches_per_key_loop(
        self, seed, n, d, architecture, hidden_width, weight_decay, batch_size, epochs,
        warmup, lr_warmup, loss, columnar,
    ):
        examples = random_examples(seed, n, d)
        config = TrainConfig(
            epochs=epochs, warmup_epochs=min(warmup, epochs), learning_rate=0.05,
            weight_decay=weight_decay, batch_size=batch_size, seed=seed,
            lr_warmup_epochs=lr_warmup, architecture=architecture,
            hidden_width=hidden_width, loss=loss,
        )
        expected_weights, expected_history = oracle_train(examples, config)
        dataset = ExampleSet(*oracle_as_arrays(examples)) if columnar else examples
        model, history = train(dataset, config)
        assert list(model.weights) == list(expected_weights)
        for key, w in expected_weights.items():
            assert model.weights[key].tobytes() == w.tobytes(), key
        assert repr(history) == repr(expected_history)  # bitwise, NaN AUCs included

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
        examples[-1] = TrainExample(np.array([-0.0, 1e300, 5e-324]), 1, -2)
        path = tmp_path / "blocks.jsonl"
        write_examples(path, examples)
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
        write_examples(path, random_examples(good, good, 3))
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
        write_examples(path, random_examples(10, 10, 3))
        lines = path.read_text().splitlines()
        lines[odd_at - 1] = self.ODD_LINES[odd]
        if bad is not None:
            lines[bad_at - 1] = self.BAD_LINES[bad]
        path.write_text("\n".join(lines) + "\n")
        expected = read_outcome(oracle_line_reader, path)
        if bad is not None:
            assert expected.startswith(f"line {bad_at}: ")
        assert read_outcome(read_examples, path) == expected

    @pytest.mark.parametrize(
        "widths, error",
        [
            # 3 + 4 + 2 + 3 values would fill four rows of 3, but rows 2 and 3 are ragged.
            ([3, 4, 2, 3], "line 2: feature dimension 4 != 3"),
            # An empty row alone in the second block has no comma, like a row of 1.
            ([1, 1, 1, 1, 0], "line 5: feature dimension 0 != 1"),
        ],
    )
    def test_rows_of_another_width_in_a_block(self, tmp_path, monkeypatch, widths, error):
        monkeypatch.setattr("glsmooth.training.READ_BLOCK_LINES", self.BLOCK)
        path = tmp_path / "ragged.jsonl"
        path.write_text("".join(
            json.dumps({"features": [0.5] * width, "y": 1, "u": 2}) + "\n" for width in widths
        ))
        assert read_outcome(oracle_line_reader, path) == error
        assert read_outcome(read_examples, path) == error

    @pytest.mark.parametrize("bad_record", [True, False])
    def test_bad_line_before_invalid_utf8_in_one_block(self, tmp_path, monkeypatch, bad_record):
        # A bad line 2, then far more than one text-decoder chunk of good lines,
        # then bytes that are not UTF-8, all inside one block: read line by
        # line, line 2 fails first; the bad bytes are the first error only
        # when line 2 is good.
        monkeypatch.setattr("glsmooth.training.READ_BLOCK_LINES", 1024)
        path = tmp_path / "utf8.jsonl"
        write_examples(path, random_examples(400, 400, 8))
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
        assert str(got.value).startswith("line 2: " if bad_record else f"{path}: not valid UTF-8")

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
# generator that built one TrainExample per row, replaced by the block-wise
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
        TrainExample(features=X[i], y=int(observed[i]), u=int(magnitude[i]))
        for i in range(n)
    ]
    return examples, true


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e16, 1e-5, 1e300,
                  MAX_FLOAT, -MAX_FLOAT, 0.1, 1 / 3, 123456789.0]
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


def assert_same_bits(got: ExampleSet, X, y, u):
    assert got.X.tobytes() == X.tobytes() and got.X.shape == X.shape
    assert got.y.tobytes() == y.tobytes() and got.u.tobytes() == u.tobytes()


class TestWriterAndGenerator:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), d=st.integers(1, 5), as_list=st.booleans())
    def test_writer_matches_json_dumps(self, tmp_path_factory, data, n, d, as_list):
        rows = data.draw(st.lists(st.lists(finite_float, min_size=d, max_size=d),
                                  min_size=n, max_size=n))
        y = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        u = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        examples = ExampleSet(np.array(rows, dtype=np.float64), y, u)
        base = tmp_path_factory.getbasetemp()
        oracle_write_examples(base / "oracle.jsonl", examples)
        write_examples(base / "got.jsonl", list(examples) if as_list else examples)
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

    @pytest.mark.parametrize("n", [3, 4, 5, 9])
    def test_blocks_match_json_dumps(self, tmp_path, monkeypatch, n):
        monkeypatch.setattr("glsmooth.training.WRITE_BLOCK_ROWS", 4)
        monkeypatch.setattr("glsmooth.training.READ_BLOCK_LINES", 4)
        examples = random_special_rows(n, 3, seed=n)
        oracle_write_examples(tmp_path / "oracle.jsonl", examples)
        write_examples(tmp_path / "got.jsonl", examples)
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()
        assert len((tmp_path / "got.jsonl").read_text().splitlines()) == n
        assert_same_bits(read_examples(tmp_path / "got.jsonl"), examples.X, examples.y, examples.u)

    def test_non_finite_feature_is_not_written(self, tmp_path):
        examples = toy_separable(n=5, seed=1)
        examples[2] = TrainExample(np.array([np.nan, 1.0]), 1, 3)
        path = tmp_path / "nan.jsonl"
        with pytest.raises(DataError, match="non-finite"):
            write_examples(path, examples)
        assert not path.exists()


class TestExampleSet:
    def test_list_and_columns_agree(self):
        examples = toy_separable(n=30, seed=4)
        columns = ExampleSet(*oracle_as_arrays(examples))
        assert len(columns) == 30
        for orig, back in zip(examples, columns):
            np.testing.assert_array_equal(orig.features, back.features)
            assert (orig.y, orig.u) == (back.y, back.u)
        config = TrainConfig(epochs=2, seed=1)
        model, _ = train(examples, config)
        assert evaluate(model, columns) == evaluate(model, examples)

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

    def test_model_weights_share_one_vector(self):
        config = TrainConfig(architecture="mlp_1hidden", hidden_width=3)
        model = init_model(4, config, np.random.default_rng(0))
        theta = model.weights["W1"].base
        assert theta.shape == (4 * 3 + 3 + 3 * 2 + 2,)
        assert all(w.base is theta for w in model.weights.values())

    @pytest.mark.parametrize("index", [0, 3, -1, -5, np.int64(2), np.int32(4)])
    def test_integer_index_gives_one_example(self, index):
        examples = toy_separable(n=5, seed=2)
        columns = ExampleSet(*oracle_as_arrays(examples))
        row = columns[index]
        assert isinstance(row, TrainExample)
        assert row.features.tobytes() == examples[int(index)].features.tobytes()
        assert (type(row.y), type(row.u)) == (int, int)
        assert (row.y, row.u) == (examples[int(index)].y, examples[int(index)].u)

    @pytest.mark.parametrize(
        "index", [slice(1, 4), slice(None, None, -2), slice(7, 9), np.array([4, 0, 0, 2])]
    )
    def test_slice_or_index_array_gives_an_example_set(self, index):
        X, y, u = oracle_as_arrays(toy_separable(n=5, seed=2))
        part = ExampleSet(X, y, u)[index]
        assert isinstance(part, ExampleSet)
        assert_same_bits(part, X[index], y[index], u[index])

    @pytest.mark.parametrize("index", [5, -6, np.int64(99)])
    def test_index_out_of_range(self, index):
        columns = ExampleSet(*oracle_as_arrays(toy_separable(n=5, seed=2)))
        with pytest.raises(IndexError):
            columns[index]
