"""Desk-scale training with the uncertainty-weighted loss.

Small classifiers (linear and one-hidden-layer) stand in for heavyweight
backbones: the loss and the schedules are architecture-agnostic, and at this
scale every contract can be verified on a laptop.  Two scheduling mechanisms
are independent and both implemented:

  * a confidence warm-up restricting the first ``warmup_epochs`` epochs to
    extreme-confidence samples (|u| = 3) to stabilize early updates;
  * an optimizer learning-rate ramp (linear for ``lr_warmup_epochs``) followed
    by cosine decay.

Optimization uses adaptive moments with decoupled weight decay.  Everything
is driven by one seeded generator per run: same config, same trajectory,
bit for bit.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from itertools import chain

import numpy as np
import orjson

from .errors import ConfigError, DataError, NumericError
from .fileio import READ_BLOCK_LINES, _FLOAT_MAX, _is_number, decode_records, framed_blocks
from .fileio import json_document
from .smoothing import SCORE_LEVELS, SmoothingParams, smoothing_rate
from .smoothing import batch_loss, batch_targets, effective_labels, softmax

ARCHITECTURES = ("linear", "mlp_1hidden")
LOSS_MODES = ("gls", "ce")

PROB_FLOOR = 1e-12  # clamp applied to probabilities before log, trainer-only
# Adam's decay rates for the first and second moments.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999


@dataclass(frozen=True, eq=False)
class ExampleSet:
    """A whole example set as columns: features X (n, d), labels y and scores u (n,).

    Checked once, when it is made, and read-only after (a caller's float64 X is
    kept, not copied, so it is frozen too); ``train``, ``evaluate``, ``sweep``
    and ``write_examples`` take it as it is.  Row i is ``X[i]``, ``y[i]``, ``u[i]``.
    """

    X: np.ndarray
    y: np.ndarray
    u: np.ndarray

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        u = np.asarray(self.u, dtype=np.int64)
        if X.ndim != 2:
            raise DataError("examples must have one-dimensional feature vectors")
        if not X.shape[1]:
            raise DataError("examples must have at least one feature")
        if y.shape != (len(X),) or u.shape != (len(X),):
            raise DataError("features, labels and scores must have one row per example")
        if not np.all(np.isfinite(X)):
            raise DataError("features contain non-finite values")
        if not np.all((y == 0) | (y == 1)):
            raise DataError("labels must be 0 or 1")
        if not np.all((u >= SCORE_LEVELS[0]) & (u <= SCORE_LEVELS[-1])):
            raise DataError("uncertainty scores must lie in {-3..3}")
        for name, value in (("X", X), ("y", y), ("u", u)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.X)

    def __getitem__(self, index) -> ExampleSet:
        """The rows at ``index``, a slice or an index array, in that order."""
        X = self.X[index]
        if X.ndim == 1:  # an integer; indexing first lets one out of range raise IndexError
            raise TypeError("an ExampleSet takes a slice or an index array, not an integer")
        return ExampleSet(X, self.y[index], self.u[index])


# Each setting's own values, whatever the others hold: name -> (test, phrase
# for messages).  NaN passes no test.
_SETTING_RANGES = {
    "epochs": (lambda value: value >= 1, ">= 1"),
    "warmup_epochs": (lambda value: value >= 0, ">= 0"),
    "learning_rate": (lambda value: 0 < value < math.inf, "positive and finite"),
    "weight_decay": (lambda value: 0 <= value < math.inf, ">= 0 and finite"),
    "lr_warmup_epochs": (lambda value: value >= 0, ">= 0"),
    "batch_size": (lambda value: value >= 1, ">= 1"),
    "seed": (lambda value: value >= 0, ">= 0"),
    "n": (lambda value: value > 0, "positive"),
    "d": (lambda value: value >= 2, ">= 2"),
    "architecture": (lambda value: value in ARCHITECTURES, f"one of {ARCHITECTURES}"),
    "loss": (lambda value: value in LOSS_MODES, f"one of {LOSS_MODES}"),
}


def check_setting(name: str, value) -> None:
    """Raise ConfigError if ``value`` lies outside setting ``name``'s own range or choices.

    The one place those rules are checked: TrainConfig checks its fields
    here, synthetic_noisy_generator its n, d and seed, and the command line
    each value of a config file as it reads it.  A setting with no range of
    its own passes.
    """
    if name in _SETTING_RANGES:
        test, phrase = _SETTING_RANGES[name]
        if not test(value):
            raise ConfigError(f"{name} must be {phrase}, got {value}")


@dataclass
class TrainConfig:
    epochs: int = 30
    warmup_epochs: int = 0
    learning_rate: float = 1e-2
    weight_decay: float = 0.0
    batch_size: int = 32
    seed: int = 42
    smoothing_params: SmoothingParams = field(default_factory=SmoothingParams)
    lr_warmup_epochs: int = 5
    architecture: str = "linear"
    hidden_width: int = 16
    loss: str = "gls"

    def __post_init__(self) -> None:
        for setting in fields(self):
            check_setting(setting.name, getattr(self, setting.name))
        if self.warmup_epochs > self.epochs:
            raise ConfigError(
                f"warmup_epochs must be in [0, epochs], got {self.warmup_epochs}"
            )
        if self.architecture == "mlp_1hidden" and self.hidden_width < 1:
            raise ConfigError(f"hidden_width must be >= 1, got {self.hidden_width}")


@dataclass
class EpochMetrics:
    """Per-epoch record: mean loss over the samples the epoch trained on, and
    ranking quality (AUC of the class-1 probability against the flip-resolved
    effective labels) over the full dataset.  ``auc`` is NaN when the labels
    hold one class; both are NaN when ``train`` ran with ``epoch_metrics=False``."""

    epoch: int
    mean_loss: float
    auc: float
    samples_used: int


@dataclass
class Model:
    architecture: str
    weights: dict[str, np.ndarray]

    @property
    def feature_dim(self) -> int:
        key = "W" if self.architecture == "linear" else "W1"
        return self.weights[key].shape[0]


def _views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Consecutive slices of ``flat`` shaped like the arrays of ``like``, in order."""
    views, start = {}, 0
    for key, w in like.items():
        views[key] = flat[start : start + w.size].reshape(w.shape)
        start += w.size
    return views


def init_model(feature_dim: int, config: TrainConfig, rng: np.random.Generator) -> Model:
    """Symmetric uniform init scaled by fan-in; biases start at zero.

    The weights are views into one flat parameter vector (their common
    ``base``), which the optimiser updates in one pass.
    """
    if config.architecture == "linear":
        weights = {
            "W": rng.uniform(-1.0, 1.0, size=(feature_dim, 2)) / math.sqrt(feature_dim),
            "b": np.zeros(2),
        }
    else:
        h = config.hidden_width
        try:
            weights = {
                "W1": rng.uniform(-1.0, 1.0, size=(feature_dim, h)) / math.sqrt(feature_dim),
                "b1": np.zeros(h),
                "W2": rng.uniform(-1.0, 1.0, size=(h, 2)) / math.sqrt(h),
                "b2": np.zeros(2),
            }
        except (ValueError, MemoryError):  # numpy refuses the size, or fails to allocate it
            raise ConfigError(
                f"hidden_width {h} is too large: no {feature_dim} x {h} weights can be allocated"
            ) from None
    theta = np.concatenate([w.ravel() for w in weights.values()])
    return Model(config.architecture, _views(theta, weights))


def _forward(model: Model, X: np.ndarray):
    """Logits plus the hidden activations needed for backprop."""
    w = model.weights
    if model.architecture == "linear":
        logits = X @ w["W"]
        logits += w["b"]
        return logits, None
    hidden = X @ w["W1"]
    hidden += w["b1"]
    np.tanh(hidden, out=hidden)
    logits = hidden @ w["W2"]
    logits += w["b2"]
    return logits, hidden


# predict_proba scores this many rows at a time, so scoring n rows holds one
# block's hidden activations (block x hidden_width floats), not n x hidden_width.
# On a 20k-row train-and-eval pass at width 32 (2-core Xeon) the peak resident
# memory was 12.4 MB at 256 and 1024 rows, 12.7 at 4096 and 17.0 unblocked;
# evaluate on 20k rows took 7.8 ms at 256 (the per-block calls), 6.5 at 1024,
# 6.3 at 4096 and 7.2 unblocked.
PREDICT_BLOCK_ROWS = 1024
# train gathers the rows of this many examples (rounded down to whole batches,
# at least one) at a time and takes each batch as a slice of them.  On a
# 20k-row train-and-eval pass (2-core Xeon), gathering a whole epoch at once
# raised the peak resident memory by 3.1 MB (15.08 against 11.99 MB, medians
# of three runs); 1024-row blocks raised it by none (12.19 MB before them,
# 11.93 after, medians of five pairs).
GATHER_ROWS = 1024


def predict_proba(model: Model, X) -> np.ndarray:
    """Class probabilities for a batch of feature rows, shape (n, 2).

    Rows are scored PREDICT_BLOCK_ROWS at a time.  Each row's result depends
    on that row alone, but the BLAS picks its matmul kernel by matrix shape,
    so a score can differ in its last ulp from one matmul over all rows.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise ValueError(
            f"feature matrix must have shape (n, {model.feature_dim}), got {X.shape}"
        )
    P = np.empty((len(X), 2))
    for start in range(0, len(X), PREDICT_BLOCK_ROWS):
        block = slice(start, start + PREDICT_BLOCK_ROWS)
        P[block] = softmax(_forward(model, X[block])[0])
    return P


def _backward(model: Model, Xb: np.ndarray, hidden, G: np.ndarray, g: dict[str, np.ndarray]):
    """The batch gradient into ``g``, given G = d(mean loss)/d(logits) = (P - targets) / n.

    ``hidden`` is the forward pass's tanh output (None for linear); it is
    overwritten with tanh' in place.
    """
    if model.architecture == "linear":
        np.matmul(Xb.T, G, out=g["W"])
        G.sum(axis=0, out=g["b"])
        return
    np.matmul(hidden.T, G, out=g["W2"])
    G.sum(axis=0, out=g["b2"])
    # dH = (G @ W2.T) * (1 - hidden**2), with tanh' in hidden's buffer.
    np.square(hidden, out=hidden)
    np.subtract(1.0, hidden, out=hidden)
    dH = G @ model.weights["W2"].T
    dH *= hidden
    np.matmul(Xb.T, dH, out=g["W1"])
    dH.sum(axis=0, out=g["b1"])


def _require_rows(data: ExampleSet) -> None:
    if not len(data):
        raise ConfigError("dataset is empty")


def _require_extreme_rows(data: ExampleSet, warmup_epochs: int) -> None:
    """ConfigError if a confidence warm-up has no |u| = 3 row of ``data`` to train on."""
    if warmup_epochs > 0 and not np.any(np.abs(data.u) == 3):
        raise ConfigError(
            "warmup_epochs > 0 requires at least one extreme-confidence (|u|=3) example"
        )


def _scores_bounded(model: Model, x_l1: float) -> bool:
    """True when every score of rows whose L1 norms are at most ``x_l1`` is finite.

    Each logit's magnitude is at most the row's L1 norm times the largest
    weight magnitude plus the largest bias magnitude (for the mlp's output
    layer, the width times the largest weight, as tanh lies in [-1, 1]).
    Logits below a quarter of the float maximum leave room for rounding, and
    their differences stay finite, so softmax is finite too.  A bound that is
    NaN or infinite fails.
    """
    w = model.weights
    if model.architecture == "linear":
        layers = [(x_l1, w["W"], w["b"])]
    else:
        layers = [(x_l1, w["W1"], w["b1"]), (len(w["W2"]), w["W2"], w["b2"])]
    return all(
        scale * np.abs(W).max() + np.abs(b).max() < _FLOAT_MAX / 4 for scale, W, b in layers
    )


def _losses_bounded(r: np.ndarray) -> bool:
    """True when every epoch's loss total at rates ``r``, one per row, is finite.

    With probabilities clamped to [PROB_FLOOR, 1], both of the loss's parts,
    the cross-entropy and the uniform term, lie in [0, -log PROB_FLOOR], so
    a row's loss is at most that times |1 - r| + |r| in magnitude, and an
    epoch sums at most ``len(r)`` of them; below a quarter of the float
    maximum leaves room for rounding.  A bound that overflows fails.  A NaN
    probability still makes a NaN loss.
    """
    row_bound = (np.abs(1.0 - r).max() + np.abs(r).max()) * -math.log(PROB_FLOOR)
    return len(r) * row_bound < _FLOAT_MAX / 4


def _lr_at(epoch: int, config: TrainConfig) -> float:
    """Linear ramp for lr_warmup_epochs, then cosine decay toward zero."""
    ramp = min(config.lr_warmup_epochs, config.epochs)
    if epoch <= ramp:
        return config.learning_rate * epoch / ramp
    span = max(config.epochs - ramp, 1)
    progress = (epoch - ramp - 1) / span
    return config.learning_rate * 0.5 * (1.0 + math.cos(math.pi * progress))


def train(
    dataset: ExampleSet, config: TrainConfig, *, epoch_metrics: bool = True
) -> tuple[Model, list[EpochMetrics]]:
    """Train a model on (features, y, u) triples.

    Epochs 1..warmup_epochs see only the |u| = 3 examples; afterwards every
    sample re-enters the loss.  Per-example smoothing rates come from the
    configured score-to-rate conversion ("gls" mode) or are forced to zero on
    the effective labels, y flipped where u < 0 ("ce" mode).  Fully
    determined by config.seed.  Each epoch's order is drawn from the run's
    generator: ``rng.permutation(n)`` past the warm-up, so no index array is
    held beside it (the same values and draws as ``np.arange(n)`` permuted),
    and the |u| = 3 rows' indices permuted during it.  Each epoch's steps
    take their batches from the rows in that order, gathered GATHER_ROWS at
    a time.
    Raises NumericError when the epoch's running loss total turns non-finite
    (a non-finite row loss, or finite ones whose sum overflows), and once per
    epoch, after scoring every example, on non-finite weights or scores, so a
    diverged model is never returned.

    With ``epoch_metrics=False``, for callers that discard the history, each
    history entry's ``mean_loss`` and ``auc`` are NaN.  No AUC is computed:
    the examples are scored, or proven finite by the weight bound
    (``_scores_bounded``), and checked each epoch.  No step computes its
    loss either, when the rates bound every epoch's loss total
    (``_losses_bounded``): then a loss can only turn non-finite through a
    NaN probability, which makes the bias gradients, and through Adam the
    weights, NaN, so the run still raises NumericError, at the end of that
    epoch ("non-finite weights").  Rates past the bound keep the per-step
    loss and its check.
    """
    _require_rows(dataset)
    X, y, u = dataset.X, dataset.y, dataset.u
    n = len(X)

    y_eff = effective_labels(y, u)
    if config.loss == "gls":
        rates = np.array([smoothing_rate(lvl, config.smoothing_params) for lvl in SCORE_LEVELS])
        r = rates[u - SCORE_LEVELS[0]]
    else:
        r = np.zeros(n)
    # Each example's soft target is fixed for the run; steps gather their rows.
    T = batch_targets(y_eff, r)

    _require_extreme_rows(dataset, config.warmup_epochs)
    extreme = np.flatnonzero(np.abs(u) == 3)

    rng = np.random.default_rng(config.seed)
    model = init_model(X.shape[1], config, rng)
    # Parameters, gradients and both moments are flat vectors; the dicts hold
    # per-layer views of them for the forward and backward passes.
    theta = next(iter(model.weights.values())).base
    grad = np.empty_like(theta)
    g = _views(grad, model.weights)
    opt_m = np.zeros_like(theta)
    opt_v = np.zeros_like(theta)
    # Scratch for the Adam update, so a step allocates no parameter-sized array.
    buf_a = np.empty_like(theta)
    buf_b = np.empty_like(theta)
    step = 0
    eps = 1e-8
    block_rows = config.batch_size * max(1, GATHER_ROWS // config.batch_size)

    history: list[EpochMetrics] = []
    # A diverging run overflows mid-epoch; the finiteness checks below report
    # it (NumericError), so numpy's overflow warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        # At least every row's L1 norm, for _scores_bounded; inf if it overflows.
        x_l1 = None if epoch_metrics else X.shape[1] * max(X.max(), -X.min())
        step_loss = epoch_metrics or not _losses_bounded(r)
        for epoch in range(1, config.epochs + 1):
            if epoch <= config.warmup_epochs:
                order = extreme[rng.permutation(len(extreme))]
            else:
                order = rng.permutation(n)
            lr = _lr_at(epoch, config)

            total_loss = 0.0
            for start in range(0, len(order), config.batch_size):
                offset = start % block_rows
                if offset == 0:
                    rows = order[start : start + block_rows]
                    X_rows, T_rows = X[rows], T[rows]
                    if step_loss:
                        y_rows, r_rows = y_eff[rows], r[rows]
                batch = slice(offset, offset + config.batch_size)
                Xb = X_rows[batch]
                logits, hidden = _forward(model, Xb)
                P = softmax(logits)
                if step_loss:
                    P_safe = P.clip(PROB_FLOOR, 1 - PROB_FLOOR)
                    total_loss += float(batch_loss(P_safe, y_rows[batch], r_rows[batch]).sum())
                    # A non-finite row loss makes the total non-finite, and so
                    # does a total of finite losses that overflows.
                    if not math.isfinite(total_loss):
                        raise NumericError(
                            f"non-finite loss at epoch {epoch}, batch starting {start}"
                        )

                # G = (P - targets) / batch size, in P's buffer.
                G = P
                G -= T_rows[batch]
                G /= len(Xb)
                _backward(model, Xb, hidden, G, g)

                # Adam with decoupled weight decay, one pass over all parameters:
                #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2
                #   theta -= lr * (m_hat / (sqrt(v_hat) + eps) + decay*theta)
                # with m_hat computed in buf_a and v_hat in buf_b.
                step += 1
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
                np.multiply(config.weight_decay, theta, out=buf_b)
                buf_a += buf_b
                buf_a *= lr
                theta -= buf_a

            if not np.isfinite(theta).all():
                raise NumericError(f"training diverged: non-finite weights after epoch {epoch}")
            if epoch_metrics or not _scores_bounded(model, x_l1):
                scores = predict_proba(model, X)[:, 1]
                if not np.isfinite(scores).all():
                    raise NumericError(
                        f"training diverged: non-finite scores after epoch {epoch}"
                    )
            mean_loss = score = float("nan")
            if epoch_metrics:
                mean_loss = total_loss / len(order)
                try:
                    score = auc(scores, y_eff)
                except NumericError:
                    pass
            history.append(
                EpochMetrics(
                    epoch=epoch,
                    mean_loss=mean_loss,
                    auc=score,
                    samples_used=len(order),
                )
            )
    return model, history


def _require_both_classes(labels: np.ndarray) -> None:
    """NumericError unless the 0/1 ``labels`` hold both classes: else no AUC is defined."""
    if labels.all() or not labels.any():
        raise NumericError("AUC undefined: both classes must be present")


def _require_scorable(dataset: ExampleSet, feature_dim: int) -> None:
    """Raise unless ``dataset`` has rows of ``feature_dim`` features for a model to score."""
    _require_rows(dataset)
    if dataset.X.shape[1] != feature_dim:
        raise DataError(f"data has {dataset.X.shape[1]} features, model expects {feature_dim}")


def auc(scores, labels) -> float:
    """Area under the ROC curve via rank statistics.

    Equal to the probability that a random positive outscores a random
    negative, ties counted half (the Mann-Whitney U formulation with
    midranks).  One sort ranks the scores; equal scores (0.0 and -0.0 among
    them) share their midrank.  Once the sorted positive mask and the
    tie-group starts are known, the sort order and the sorted scores are
    dropped, so the call holds at most about three n-sized arrays of 8-byte
    values beside its inputs (the tie-group starts, each group's count of
    positives, and the mask widened to int64 while it is counted).  Twice the
    positives' rank sum is a sum of integers, midrank times positives per
    group, exact in int64; it is the same half-integer sum as one midrank
    per positive, so the result is the same float, and exact, below about
    9e7 rows.  A NaN score raises ValueError: it has no rank.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-d sequences")
    positive = labels == 1
    n_pos = int(positive.sum())
    n_neg = int((labels == 0).sum())
    if n_pos + n_neg != len(labels):
        raise ValueError("labels must be 0 or 1")
    _require_both_classes(labels)
    order = np.argsort(scores)
    ranked = scores[order]
    if np.isnan(ranked[-1]):  # NaNs sort last
        raise ValueError("scores must not be NaN")
    positive = positive[order]
    del order
    # A tie group starts where the sorted score changes.
    starts = np.empty(len(ranked), dtype=bool)
    starts[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    del ranked
    first = np.flatnonzero(starts)
    del starts
    group_pos = np.add.reduceat(positive, first, dtype=np.int64)
    del positive
    # The group at 0-based positions [first, end) has midrank (first + end + 1) / 2,
    # and each group ends where the next one starts.
    twice_rank_sum = (
        int(group_pos @ first) + int(group_pos[:-1] @ first[1:])
        + int(group_pos[-1]) * len(labels) + n_pos
    )
    return (twice_rank_sum / 2.0 - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate(model: Model, dataset: ExampleSet) -> float:
    """Held-out AUC of the class-1 probability against effective labels."""
    _require_scorable(dataset, model.feature_dim)
    # Finite weights can still overflow on the data; the check below reports
    # it (NumericError), so numpy's warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        scores = predict_proba(model, dataset.X)[:, 1]
    if not np.isfinite(scores).all():
        raise NumericError("non-finite scores: the model overflows on this data")
    return auc(scores, effective_labels(dataset.y, dataset.u))


@dataclass
class SyntheticDataset:
    """Noisy two-cluster data with the clean labels kept aside for scoring."""

    examples: ExampleSet
    true_labels: np.ndarray


def synthetic_noisy_generator(
    n: int, d: int, noise_profile: dict[int, float], seed: int
) -> SyntheticDataset:
    """Two Gaussian class clusters with confidence-dependent label flips.

    Each example gets a confidence magnitude drawn uniformly from the profile
    keys; its observed label flips away from the truth with that level's
    probability (lower confidence, more flips).  Observed labels and scores go
    into the examples; the clean labels ride along for evaluation only.
    """
    for name, value in (("n", n), ("d", d), ("seed", seed)):
        check_setting(name, value)
    if not noise_profile:
        raise ConfigError("noise_profile must not be empty")
    for level, p in noise_profile.items():
        if level not in (0, 1, 2, 3):
            raise ConfigError(f"profile keys are confidence magnitudes 0..3, got {level}")
        if not 0.0 <= p <= 0.5:
            raise ConfigError(f"flip probability must be in [0, 0.5], got {p}")

    rng = np.random.default_rng(seed)
    # Each row is shifted toward its class's centre, +direction or -direction,
    # in place: subtracting direction is adding -direction, bit for bit, so
    # the data holds one n x d array and no sign or shift matrix.
    try:
        true = rng.integers(0, 2, size=n)
        direction = np.ones(d) / math.sqrt(d)
        X = rng.standard_normal((n, d))
    except (ValueError, MemoryError):  # numpy refuses the size, or fails to allocate it
        raise ConfigError(f"n x d is too large: no {n} x {d} features can be allocated") from None
    positive = (true == 1)[:, None]
    np.add(X, direction, out=X, where=positive)
    np.subtract(X, direction, out=X, where=~positive)

    levels = sorted(noise_profile)
    flip_p = np.array([noise_profile[level] for level in levels], dtype=np.float64)
    drawn = rng.integers(0, len(levels), size=n)
    flipped = rng.random(n) < flip_p[drawn]
    observed = true ^ flipped
    magnitude = np.array(levels, dtype=np.int64)[drawn]
    return SyntheticDataset(examples=ExampleSet(X, observed, magnitude), true_labels=true)


@dataclass(frozen=True)
class SweepCell:
    k: Fraction
    warmup_epochs: int
    auc: float


def cell_seed(base_seed: int, index: int) -> int:
    return base_seed + 1 + index


def sweep_configs(
    base_config: TrainConfig, k_values: list, warmup_values: list[int]
) -> list[TrainConfig]:
    """Every grid cell's settings, k-major, each checked as it is made.

    Each cell takes its slope and warm-up from the grid and a seed derived
    from its grid index; the rest comes from ``base_config``.
    """
    if not k_values or not warmup_values:
        raise ConfigError("sweep grid must have at least one k and one warm-up value")
    grid = ((k, w) for k in k_values for w in warmup_values)
    return [
        replace(
            base_config,
            smoothing_params=SmoothingParams(k=Fraction(k), r0=base_config.smoothing_params.r0),
            warmup_epochs=w,
            seed=cell_seed(base_config.seed, index),
        )
        for index, (k, w) in enumerate(grid)
    ]


def sweep(
    dataset: ExampleSet,
    base_config: TrainConfig,
    k_values: list,
    warmup_values: list[int],
    eval_dataset: ExampleSet | None = None,
) -> list[SweepCell]:
    """Grid of held-out AUCs over rate slopes and warm-up durations.

    Each cell trains from scratch with its ``sweep_configs`` settings, all of
    which are checked before the first cell trains.  Without an explicit eval
    split, a deterministic 75/25 split of the input (seeded by
    base_config.seed) is used.  The eval split's feature width and its two
    classes, and the training split's |u| = 3 rows when a warm-up is in the
    grid, are checked before the first cell trains too.  Each cell trains
    with ``epoch_metrics=False``: the history is discarded, so no epoch
    computes an AUC, and no step a loss while the rates bound it; each epoch
    is scored, or proven finite by the weight bound, so a diverged cell
    still raises NumericError.
    """
    configs = sweep_configs(base_config, k_values, warmup_values)
    _require_rows(dataset)
    if eval_dataset is None:
        rng = np.random.default_rng(base_config.seed)
        perm = rng.permutation(len(dataset))
        cut = max(1, int(0.75 * len(dataset)))
        if cut == len(dataset):
            raise DataError(
                f"the 75/25 split of {len(dataset)} example(s) leaves the eval split empty"
                " (need at least 2 examples)"
            )
        train_split, eval_split = dataset[perm[:cut]], dataset[perm[cut:]]
    else:
        train_split, eval_split = dataset, eval_dataset
    _require_scorable(eval_split, dataset.X.shape[1])
    _require_both_classes(effective_labels(eval_split.y, eval_split.u))
    _require_extreme_rows(train_split, max(warmup_values))

    cells = []
    for config in configs:
        model, _ = train(train_split, config, epoch_metrics=False)
        auc = evaluate(model, eval_split)
        cells.append(SweepCell(config.smoothing_params.k, config.warmup_epochs, auc))
    return cells


# ---------------------------------------------------------------------------
# File formats: training examples (JSON lines) and model checkpoints (JSON).


# write_examples formats this many rows at a time, with one orjson call, and
# holds one block's texts (orjson's output, its rows and their join) at once.
# Traced peak of a 20k x 10 write: 97, 154 and 374 kB at 128, 256 and 512
# rows; 10k x 10 rows wrote in 11.1, 10.7 and 10.2 ms (medians of five
# processes of 21 writes each, 2-core Xeon).  512 rows would be 5% faster
# than 256 for 2.4 times the memory.
WRITE_BLOCK_ROWS = 256

# A line's head, and its end after the features for each label and score:
# _LINE_ENDS[7 * y + u + 3].
_LINE_HEAD = b'{"features": ['
_LINE_ENDS = [b'], "y": %d, "u": %d}\n' % (y, u) for y in (0, 1) for u in SCORE_LEVELS]


def write_examples(path, examples: ExampleSet) -> None:
    """One JSON Lines record per example: ``{"features": [...], "y": y, "u": u}``.

    Each line is the bytes ``json.dumps`` gives: a float as its ``repr``,
    items separated by ``", "``; an ExampleSet holds only finite floats.
    The lines are formatted and written a block of WRITE_BLOCK_ROWS rows at
    a time (``_block_lines``).  An empty set raises ConfigError and writes
    no file.
    """
    _require_rows(examples)
    X, y, u = examples.X, examples.y, examples.u
    with open(path, "wb") as fh:
        for start in range(0, len(X), WRITE_BLOCK_ROWS):
            block = slice(start, start + WRITE_BLOCK_ROWS)
            fh.write(_block_lines(X[block], y[block], u[block]))


def _exponent_rows(X: np.ndarray) -> list[int]:
    """The rows of X where repr writes an exponent, which orjson spells otherwise.

    A function of its own so that its masks are let go before
    ``_block_lines`` joins a block's text.
    """
    magnitude = np.abs(X)
    tiny = (magnitude < 1e-4) & (magnitude != 0)
    return np.flatnonzero((tiny | (magnitude >= 1e16)).any(axis=1)).tolist()


def _block_lines(X: np.ndarray, y: np.ndarray, u: np.ndarray) -> bytes:
    """The lines of a block of examples, as ``write_examples`` writes them.

    The block's features are turned into text by one ``orjson.dumps`` call
    on the float64 array, with ``", "`` between items, and split into rows
    at ``"], ["``: orjson spells a float with ``repr``'s digits, and in
    ``repr``'s way wherever ``repr`` writes no exponent.  A row holding a
    nonzero value below 1e-4 in magnitude, or any value of 1e16 or more, is
    written with ``repr`` instead.  Each row takes its line's end from
    ``_LINE_ENDS``, and the lines are joined with one ``join``.  A block's
    texts are let go when this returns, so a write holds one block's.
    """
    # orjson takes only a C-contiguous array: a block of a Fortran-ordered X
    # or of a column slice is copied.
    X = np.ascontiguousarray(X)
    rows = orjson.dumps(X, option=orjson.OPT_SERIALIZE_NUMPY).replace(b",", b", ").split(b"], [")
    # The array's "[[" and "]]", one after the other: a block may be one row.
    rows[0] = rows[0][2:]
    rows[-1] = rows[-1][:-2]
    for i in _exponent_rows(X):
        rows[i] = repr(X[i].tolist())[1:-1].encode()
    for i, end in enumerate((7 * y + u + 3).tolist()):
        rows[i] += _LINE_ENDS[end]
    rows[0] = _LINE_HEAD + rows[0]
    return _LINE_HEAD.join(rows)


_EXAMPLE_FIELDS = {"features": "finite numbers", "y": "label", "u": "score"}
# A line as write_examples and json.dumps write it: y 0 or 1, u -3..3, and
# nothing else on the line.  The features text is any run of characters up to
# the first "]": _decode_block holds it to number characters.
_EXAMPLE_LINE = r'^\{"features": \[([^]]*)\], "y": ([01]), "u": (-?[0-3])\}$'
# The characters of a features text as write_examples writes it.
_NUMBER_CHARACTERS = b"-0123456789.eE+, "


def _decode_block(
    groups: list[tuple[str, str, str]], dim: int | None
) -> tuple[np.ndarray, list[int], list[int]] | None:
    """(X, y values, u values) of a block from its (features, y, u) texts, else None.

    The frame (``_EXAMPLE_LINE``) has matched every line.  Its features
    texts, joined, must hold only number characters, commas and spaces,
    checked in one ``bytes.translate`` pass.  All the rows are then decoded
    by one ``orjson.loads`` call, and ``y`` and ``u`` by one call each; X is
    filled from the rows, once their lengths are one width, by one
    ``np.fromiter`` call.  orjson gives each number the double (or integer)
    json.loads gives it on the line-by-line path, and raises where
    json.loads would give an infinity.  None when a features text holds
    another character, the numbers do not decode, the rows are ragged or
    empty, their width differs from ``dim``, or a value is not below the
    float maximum in magnitude: a number just past the float range rounds
    to the maximum, which the line-by-line check rejects as not finite.  The
    caller reads such a block line by line, where each line gives the same
    values or the same first error.  The frame holds ``y`` to 0 or 1 and
    ``u`` to -3..3, and ``-0`` is 0 to both decoders.
    """
    features, ys, us = zip(*groups)
    if "".join(features).encode().translate(None, _NUMBER_CHARACTERS):
        return None
    try:
        rows = orjson.loads("[[" + "], [".join(features) + "]]")
    except ValueError:  # bad number syntax or past the float range
        return None
    width, *others = set(map(len, rows))
    if others or not width or dim not in (None, width):
        return None
    X = np.fromiter(chain.from_iterable(rows), np.float64, len(rows) * width).reshape(-1, width)
    if not (-_FLOAT_MAX < X.min() and X.max() < _FLOAT_MAX):
        return None
    return X, orjson.loads("[" + ",".join(ys) + "]"), orjson.loads("[" + ",".join(us) + "]")


def read_examples(path) -> ExampleSet:
    """The examples of a JSON Lines file; the first bad line raises a DataError citing it.

    The file is read once, a block of READ_BLOCK_LINES lines at a time
    (``fileio.framed_blocks``, with the frame ``_EXAMPLE_LINE``), so a pipe
    reads as a file does.  A block whose every line has the layout
    write_examples writes is decoded as a whole (``_decode_block``).  Any
    other block (blank, padded or reordered lines, other separators, a
    non-number in ``features``, a bad line), so every block of a file
    written in another layout, is read line by line with every check, so
    each line gives the same values or the same error.  A NaN or infinite
    feature (``NaN``, ``Infinity``, ``1e400``) is an error of its line.
    Each block's values are appended to one growable buffer per column, and
    the ExampleSet's arrays are views of those buffers: the file's examples
    are held once, not once as blocks and again joined.
    """
    xs, ys, us = array("d"), array("q"), array("q")
    dim = None
    for first, lines, groups in framed_blocks(path, READ_BLOCK_LINES, _EXAMPLE_LINE):
        decoded = _decode_block(groups, dim) if groups else None
        if decoded is not None:
            X, block_y, block_u = decoded
            dim = X.shape[1]
            xs.frombytes(X.tobytes())
            ys.extend(block_y)
            us.extend(block_u)
            continue
        for lineno, rec in decode_records(enumerate(lines, first), _EXAMPLE_FIELDS):
            if isinstance(rec, DataError):
                raise rec
            features = rec["features"]
            if len(features) != dim:
                if dim is not None:
                    raise DataError(f"line {lineno}: feature dimension {len(features)} != {dim}")
                dim = len(features)
            xs.extend(features)
            ys.append(rec["y"])
            us.append(rec["u"])
    if not ys:
        raise DataError(f"no examples in {path}")
    X = np.frombuffer(xs, dtype=np.float64).reshape(-1, dim)
    return ExampleSet(X, np.frombuffer(ys, dtype=np.int64), np.frombuffer(us, dtype=np.int64))


def save_model(model: Model, path) -> None:
    """The model as JSON; ``hidden_width`` is W1's width, or null for a linear model."""
    payload = {
        "architecture": model.architecture,
        "hidden_width": model.weights["W1"].shape[1] if "W1" in model.weights else None,
        "weights": {k: w.tolist() for k, w in model.weights.items()},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_model(path) -> Model:
    payload = json_document(path)
    architecture = payload.get("architecture")
    if architecture not in ARCHITECTURES:
        raise DataError(f"unknown architecture in model file: {architecture!r}")
    names = ("W", "b") if architecture == "linear" else ("W1", "b1", "W2", "b2")
    weights = payload.get("weights")
    if not isinstance(weights, dict) or sorted(weights) != sorted(names):
        raise DataError(f"{path}: model weights must be exactly {', '.join(names)}")
    # Object arrays keep each JSON value as it was read, so a bool, which a
    # float64 array would take as 0.0 or 1.0, is rejected like a string.
    weights = {k: np.asarray(weights[k], dtype=object) for k in names}
    if not all(_is_number(x) for w in weights.values() for x in w.ravel()):
        raise DataError(f"{path}: model weights must be arrays of numbers")
    weights = {k: w.astype(np.float64) for k, w in weights.items()}
    d, h = weights[names[0]].shape if weights[names[0]].ndim == 2 else (-1, -1)
    shapes = {"W": (d, 2), "b": (2,), "W1": (d, h), "b1": (h,), "W2": (h, 2), "b2": (2,)}
    if any(w.shape != shapes[k] or not np.all(np.isfinite(w)) for k, w in weights.items()):
        raise DataError(f"{path}: model weights have mismatched shapes or non-finite values")
    return Model(architecture, weights)
