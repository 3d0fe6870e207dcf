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
import re
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterator

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .fileio import decode_records, json_document, numbered_lines
from .smoothing import SCORE_LEVELS, SmoothingParams, smoothing_rate
from .smoothing import batch_loss, batch_targets, effective_labels, softmax

ARCHITECTURES = ("linear", "mlp_1hidden")
LOSS_MODES = ("gls", "ce")

PROB_FLOOR = 1e-12  # clamp applied to probabilities before log, trainer-only


@dataclass(frozen=True)
class TrainExample:
    features: np.ndarray
    y: int
    u: int


@dataclass(frozen=True, eq=False)
class ExampleSet:
    """A whole example set as columns: features X (n, d), labels y and scores u (n,).

    Checked once, when it is made; ``train``, ``evaluate``, ``sweep`` and
    ``write_examples`` take it as it is.  Iterating yields one TrainExample per
    row; ``examples[i]`` is row i, ``examples[a:b]`` another ExampleSet.
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
        if y.shape != (len(X),) or u.shape != (len(X),):
            raise DataError("features, labels and scores must have one row per example")
        if not np.all(np.isfinite(X)):
            raise DataError("features contain non-finite values")
        if not np.all((y == 0) | (y == 1)):
            raise DataError("labels must be 0 or 1")
        if not np.all((u >= -3) & (u <= 3)):
            raise DataError("uncertainty scores must lie in {-3..3}")
        for name, value in (("X", X), ("y", y), ("u", u)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.X)

    def __iter__(self):
        for features, y, u in zip(self.X, self.y.tolist(), self.u.tolist()):
            yield TrainExample(features=features, y=y, u=u)

    def __getitem__(self, index) -> TrainExample | ExampleSet:
        """One row as a TrainExample for an integer; an ExampleSet for a slice or index array."""
        if isinstance(index, (int, np.integer)):
            return TrainExample(self.X[index], int(self.y[index]), int(self.u[index]))
        return self.take(index)

    def take(self, index: np.ndarray) -> ExampleSet:
        """The rows at ``index``, in that order."""
        return ExampleSet(self.X[index], self.y[index], self.u[index])


@dataclass
class TrainConfig:
    epochs: int = 30
    warmup_epochs: int = 0
    learning_rate: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.0
    batch_size: int = 32
    seed: int = 42
    smoothing_params: SmoothingParams = field(default_factory=SmoothingParams)
    lr_warmup_epochs: int = 5
    architecture: str = "linear"
    hidden_width: int = 16
    loss: str = "gls"

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ConfigError(
                f"warmup_epochs must be in [0, epochs], got {self.warmup_epochs}"
            )
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0 <= b < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {b}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.lr_warmup_epochs < 0:
            raise ConfigError(f"lr_warmup_epochs must be >= 0, got {self.lr_warmup_epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"architecture must be one of {ARCHITECTURES}")
        if self.loss not in LOSS_MODES:
            raise ConfigError(f"loss must be one of {LOSS_MODES}")
        if self.architecture == "mlp_1hidden" and self.hidden_width < 1:
            raise ConfigError(f"hidden_width must be >= 1, got {self.hidden_width}")


@dataclass
class EpochMetrics:
    """Per-epoch record: mean loss over the samples the epoch trained on, and
    ranking quality (AUC of the class-1 probability against the flip-resolved
    effective labels) over the full dataset."""

    epoch: int
    mean_loss: float
    auc: float
    samples_used: int


@dataclass
class Model:
    architecture: str
    weights: dict[str, np.ndarray]
    hidden_width: int | None = None

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
    h = None
    if config.architecture == "linear":
        weights = {
            "W": rng.uniform(-1.0, 1.0, size=(feature_dim, 2)) / math.sqrt(feature_dim),
            "b": np.zeros(2),
        }
    else:
        h = config.hidden_width
        weights = {
            "W1": rng.uniform(-1.0, 1.0, size=(feature_dim, h)) / math.sqrt(feature_dim),
            "b1": np.zeros(h),
            "W2": rng.uniform(-1.0, 1.0, size=(h, 2)) / math.sqrt(h),
            "b2": np.zeros(2),
        }
    theta = np.concatenate([w.ravel() for w in weights.values()])
    return Model(config.architecture, _views(theta, weights), hidden_width=h)


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


def predict_proba(model: Model, X) -> np.ndarray:
    """Class probabilities for a batch of feature rows, shape (n, 2)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise ValueError(
            f"feature matrix must have shape (n, {model.feature_dim}), got {X.shape}"
        )
    logits, _ = _forward(model, X)
    return softmax(logits)


def predict(model: Model, features) -> np.ndarray:
    """Probability pair for a single feature vector."""
    return predict_proba(model, [features])[0]


def _as_arrays(dataset: ExampleSet | list[TrainExample]) -> ExampleSet:
    if not len(dataset):
        raise ConfigError("dataset is empty")
    if isinstance(dataset, ExampleSet):
        return dataset
    return ExampleSet(
        np.stack([np.asarray(ex.features, dtype=np.float64) for ex in dataset]),
        np.array([ex.y for ex in dataset], dtype=np.int64),
        np.array([ex.u for ex in dataset], dtype=np.int64),
    )


def _lr_at(epoch: int, config: TrainConfig) -> float:
    """Linear ramp for lr_warmup_epochs, then cosine decay toward zero."""
    ramp = min(config.lr_warmup_epochs, config.epochs)
    if epoch <= ramp:
        return config.learning_rate * epoch / ramp
    span = max(config.epochs - ramp, 1)
    progress = (epoch - ramp - 1) / span
    return config.learning_rate * 0.5 * (1.0 + math.cos(math.pi * progress))


def train(
    dataset: ExampleSet | list[TrainExample], config: TrainConfig
) -> tuple[Model, list[EpochMetrics]]:
    """Train a model on (features, y, u) triples.

    Epochs 1..warmup_epochs see only the |u| = 3 examples; afterwards every
    sample re-enters the loss.  Per-example smoothing rates come from the
    configured score-to-rate conversion ("gls" mode) or are forced to zero on
    the observed labels ("ce" mode).  Fully determined by config.seed.
    Raises NumericError on a non-finite loss, and once per epoch, before the
    AUC pass, on non-finite weights or scores, so a diverged model is never
    returned.
    """
    data = _as_arrays(dataset)
    X, y, u = data.X, data.y, data.u
    n = len(X)

    if config.loss == "gls":
        rates = np.array([smoothing_rate(lvl, config.smoothing_params) for lvl in SCORE_LEVELS])
        r = rates[u - SCORE_LEVELS[0]]
        y_train = effective_labels(y, u)
    else:
        r = np.zeros(n)
        y_train = y.copy()
    y_metric = effective_labels(y, u)
    # Each example's soft target is fixed for the run; steps gather their rows.
    T = batch_targets(y_train, r)

    extreme = np.flatnonzero(np.abs(u) == 3)
    if config.warmup_epochs > 0 and len(extreme) == 0:
        raise ConfigError(
            "warmup_epochs > 0 requires at least one extreme-confidence (|u|=3) example"
        )

    rng = np.random.default_rng(config.seed)
    model = init_model(X.shape[1], config, rng)
    w = model.weights
    # Parameters, gradients and both moments are flat vectors; the dicts hold
    # per-layer views of them for the forward and backward passes.
    theta = next(iter(w.values())).base
    grad = np.empty_like(theta)
    g = _views(grad, w)
    opt_m = np.zeros_like(theta)
    opt_v = np.zeros_like(theta)
    # Scratch for the Adam update, so a step allocates no parameter-sized array.
    buf_a = np.empty_like(theta)
    buf_b = np.empty_like(theta)
    step = 0
    eps = 1e-8

    history: list[EpochMetrics] = []
    # A diverging run overflows mid-epoch; the finiteness checks below report
    # it (NumericError), so numpy's overflow warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            active = extreme if epoch <= config.warmup_epochs else np.arange(n)
            order = active[rng.permutation(len(active))]
            lr = _lr_at(epoch, config)

            total_loss = 0.0
            for start in range(0, len(order), config.batch_size):
                batch = order[start : start + config.batch_size]
                Xb = X[batch]
                logits, hidden = _forward(model, Xb)
                P = softmax(logits)
                losses = batch_loss(P.clip(PROB_FLOOR, 1 - PROB_FLOOR), y_train[batch], r[batch])
                if not np.isfinite(losses).all():
                    raise NumericError(
                        f"non-finite loss at epoch {epoch}, batch starting {start}"
                    )
                total_loss += float(losses.sum())

                # G = (P - targets) / batch size, in P's buffer.
                G = P
                G -= T[batch]
                G /= len(batch)
                if model.architecture == "linear":
                    np.matmul(Xb.T, G, out=g["W"])
                    G.sum(axis=0, out=g["b"])
                else:
                    np.matmul(hidden.T, G, out=g["W2"])
                    G.sum(axis=0, out=g["b2"])
                    # dH = (G @ W2.T) * (1 - hidden**2), with tanh' in hidden's buffer.
                    np.square(hidden, out=hidden)
                    np.subtract(1.0, hidden, out=hidden)
                    dH = G @ w["W2"].T
                    dH *= hidden
                    np.matmul(Xb.T, dH, out=g["W1"])
                    dH.sum(axis=0, out=g["b1"])

                # Adam with decoupled weight decay, one pass over all parameters:
                #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2
                #   theta -= lr * (m_hat / (sqrt(v_hat) + eps) + decay*theta)
                # with m_hat computed in buf_a and v_hat in buf_b.
                step += 1
                opt_m *= config.beta1
                np.multiply(1 - config.beta1, grad, out=buf_a)
                opt_m += buf_a
                opt_v *= config.beta2
                np.square(grad, out=buf_a)
                buf_a *= 1 - config.beta2
                opt_v += buf_a
                np.divide(opt_m, 1 - config.beta1**step, out=buf_a)
                np.divide(opt_v, 1 - config.beta2**step, out=buf_b)
                np.sqrt(buf_b, out=buf_b)
                buf_b += eps
                buf_a /= buf_b
                np.multiply(config.weight_decay, theta, out=buf_b)
                buf_a += buf_b
                buf_a *= lr
                theta -= buf_a

            if not np.isfinite(theta).all():
                raise NumericError(f"training diverged: non-finite weights after epoch {epoch}")
            scores = predict_proba(model, X)[:, 1]
            if not np.isfinite(scores).all():
                raise NumericError(f"training diverged: non-finite scores after epoch {epoch}")
            try:
                epoch_auc = auc(scores, y_metric)
            except NumericError:
                epoch_auc = float("nan")
            history.append(
                EpochMetrics(
                    epoch=epoch,
                    mean_loss=total_loss / len(order),
                    auc=epoch_auc,
                    samples_used=len(order),
                )
            )
    return model, history


def auc(scores, labels) -> float:
    """Area under the ROC curve via rank statistics.

    Equal to the probability that a random positive outscores a random
    negative, ties counted half (the Mann-Whitney U formulation with
    midranks).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-d sequences")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos + n_neg != len(labels):
        raise ValueError("labels must be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise NumericError("AUC undefined: both classes must be present")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    first_rank = np.cumsum(counts) - counts + 1
    midranks = first_rank + (counts - 1) / 2.0
    rank_sum_pos = float(midranks[inverse][labels == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate(model: Model, dataset: ExampleSet | list[TrainExample]) -> float:
    """Held-out AUC of the class-1 probability against effective labels."""
    data = _as_arrays(dataset)
    if data.X.shape[1] != model.feature_dim:
        raise DataError(
            f"data has {data.X.shape[1]} features, model expects {model.feature_dim}"
        )
    # Finite weights can still overflow on the data; the check below reports
    # it (NumericError), so numpy's warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        scores = predict_proba(model, data.X)[:, 1]
    if not np.isfinite(scores).all():
        raise NumericError("non-finite scores: the model overflows on this data")
    return auc(scores, effective_labels(data.y, data.u))


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
    if n <= 0:
        raise ConfigError(f"n must be positive, got {n}")
    if d < 2:
        raise ConfigError(f"d must be >= 2, got {d}")
    if not noise_profile:
        raise ConfigError("noise_profile must not be empty")
    for level, p in noise_profile.items():
        if level not in (0, 1, 2, 3):
            raise ConfigError(f"profile keys are confidence magnitudes 0..3, got {level}")
        if not 0.0 <= p <= 0.5:
            raise ConfigError(f"flip probability must be in [0, 0.5], got {p}")

    rng = np.random.default_rng(seed)
    true = rng.integers(0, 2, size=n)
    direction = np.ones(d) / math.sqrt(d)
    X = rng.standard_normal((n, d)) + np.where(true[:, None] == 1, 1.0, -1.0) * direction

    levels = sorted(noise_profile)
    flip_p = np.array([noise_profile[level] for level in levels], dtype=np.float64)
    drawn = rng.integers(0, len(levels), size=n)
    flipped = rng.random(n) < flip_p[drawn]
    observed = np.where(flipped, 1 - true, true)
    magnitude = np.array(levels, dtype=np.int64)[drawn]
    return SyntheticDataset(examples=ExampleSet(X, observed, magnitude), true_labels=true)


@dataclass(frozen=True)
class SweepCell:
    k: Fraction
    warmup_epochs: int
    auc: float


def cell_seed(base_seed: int, index: int) -> int:
    return base_seed + 1 + index


def sweep(
    dataset: ExampleSet | list[TrainExample],
    base_config: TrainConfig,
    k_values: list,
    warmup_values: list[int],
    eval_dataset: ExampleSet | list[TrainExample] | None = None,
) -> list[SweepCell]:
    """Grid of held-out AUCs over rate slopes and warm-up durations.

    Each cell trains from scratch with a seed derived from its grid index.
    Without an explicit eval split, a deterministic 75/25 split of the input
    (seeded by base_config.seed) is used.
    """
    if not k_values or not warmup_values:
        raise ConfigError("sweep grid must have at least one k and one warm-up value")
    data = _as_arrays(dataset)
    if eval_dataset is None:
        rng = np.random.default_rng(base_config.seed)
        perm = rng.permutation(len(data))
        cut = max(1, int(0.75 * len(data)))
        if cut == len(data):
            raise DataError(
                f"the 75/25 split of {len(data)} example(s) leaves the eval split empty"
                " (need at least 2 examples)"
            )
        train_split, eval_split = data.take(perm[:cut]), data.take(perm[cut:])
    else:
        train_split, eval_split = data, _as_arrays(eval_dataset)

    cells = []
    for index, (k, w) in enumerate((k, w) for k in k_values for w in warmup_values):
        params = SmoothingParams(k=Fraction(k), r0=base_config.smoothing_params.r0)
        config = replace(
            base_config,
            smoothing_params=params,
            warmup_epochs=w,
            seed=cell_seed(base_config.seed, index),
        )
        model, _ = train(train_split, config)
        cells.append(SweepCell(k=Fraction(k), warmup_epochs=w, auc=evaluate(model, eval_split)))
    return cells


# ---------------------------------------------------------------------------
# File formats: training examples (JSON lines) and model checkpoints (JSON).


# read_examples takes this many lines of a file at a time: it decodes them as
# one block where it can and converts each block's rows to float64 at once, so
# a large file never sits in memory as lists.  128 to 1024 read a 20k-line file
# at one speed; the smaller the block, the less a train-and-eval pass of two
# such files peaks at (16.9 MB at 256, 17.4 at 512, 17.8 at 1024).
READ_BLOCK_LINES = 256
# write_examples turns this many rows at a time into Python floats to format
# them.  The allocator keeps a block's float objects resident after the call:
# with 4096-row blocks a 10k-row gen-synthetic left more memory resident than
# writing row by row, with 1024 less, at the same speed.
WRITE_BLOCK_ROWS = 1024


def write_examples(path, examples: ExampleSet | list[TrainExample]) -> None:
    """One JSON Lines record per example: ``{"features": [...], "y": y, "u": u}``.

    Each line is the bytes ``json.dumps`` gives: both write a float as its
    ``repr`` and separate items with ``", "``, and an ExampleSet holds only
    finite floats, so a non-finite feature raises DataError before any write.
    """
    data = _as_arrays(examples)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(data), WRITE_BLOCK_ROWS):
            block = slice(start, start + WRITE_BLOCK_ROWS)
            fh.writelines(
                f'{{"features": {row!r}, "y": {y}, "u": {u}}}\n'
                for row, y, u in zip(
                    data.X[block].tolist(), data.y[block].tolist(), data.u[block].tolist()
                )
            )


def _float_block(rows: list[list], dim: int) -> np.ndarray:
    """Rows of ``dim`` JSON numbers as one float64 array, the values np.array gives."""
    return np.fromiter(chain.from_iterable(rows), np.float64, len(rows) * dim).reshape(-1, dim)


_EXAMPLE_FIELDS = {"features": "numbers", "y": "int", "u": "int"}
# A line as write_examples and json.dumps write it: only number characters in
# features, y 0 or 1, u -3..3, and nothing else on the line.
_EXAMPLE_LINE = re.compile(
    r'^\{"features": \[([-0-9.eE+, ]*)\], "y": ([01]), "u": (-?[0-3])\}$', re.MULTILINE
)
_FLOAT_MAX = sys.float_info.max


def _line_blocks(path) -> Iterator[tuple[int, list[str]]]:
    """(number of the first line, lines) for consecutive READ_BLOCK_LINES-line blocks of a file.

    Bytes that are not UTF-8 raise their DataError only after the block of
    lines read before them, so a bad line there fails first, as line by line.
    """
    first, lines, error = 1, [], None
    try:
        for lineno, line in numbered_lines(path):
            lines.append(line)
            if len(lines) == READ_BLOCK_LINES:
                yield first, lines
                first, lines = lineno + 1, []
    except DataError as exc:
        error = exc
    if lines:
        yield first, lines
    if error is not None:
        raise error


def _decode_block(
    lines: list[str], dim: int | None
) -> tuple[np.ndarray, Iterator[int], Iterator[int]] | None:
    """(X, y values, u values) of a block whose every line has the written layout, else None.

    The features of all lines are decoded as one flat list by one json.loads,
    the decoder the line-by-line path uses, so each number comes out as it
    would there; each line's comma count gives its row length.  None when a
    line has another layout, the numbers do not decode, a row is empty or its
    length differs from ``dim`` or from the others, or a value is not below
    the float maximum in magnitude: an integer just past the float range
    rounds to the maximum, which the line-by-line check rejects as no number.
    """
    # The first line alone turns away a file of another layout, before a
    # search of the whole block that would try every position in it.
    if _EXAMPLE_LINE.match(lines[0]) is None:
        return None
    found = _EXAMPLE_LINE.findall("".join(lines))
    if len(found) != len(lines):  # a match never spans lines, so one did not match
        return None
    features, ys, us = zip(*found)
    commas = list(map(str.count, features, repeat(",")))
    width = commas[0] + 1
    if commas.count(commas[0]) != len(commas) or (dim is not None and width != dim):
        return None
    try:
        values = np.array(json.loads("[" + ", ".join(features) + "]"), dtype=np.float64)
    except (ValueError, OverflowError):  # bad number syntax, or past the float range
        return None
    # A line's features hold one value more than their commas, or none ("[]").
    if values.size != len(lines) * width:
        return None
    if not (-_FLOAT_MAX < values.min() and values.max() < _FLOAT_MAX):
        return None
    return values.reshape(-1, width), map(int, ys), map(int, us)


def read_examples(path) -> ExampleSet:
    """The examples of a JSON Lines file; the first bad line raises a DataError citing it.

    The file is read a block of READ_BLOCK_LINES lines at a time.  A
    block whose every line has the layout write_examples writes is decoded
    as a whole; any other block (blank, padded or reordered lines, other
    separators, a non-number in ``features``, a bad line) is read line by line
    with every check, so each line gives the same values or the same error.
    """
    blocks, ys, us = [], [], []
    dim = None
    for first, lines in _line_blocks(path):
        decoded = _decode_block(lines, dim)
        if decoded is not None:
            X, block_y, block_u = decoded
            dim = X.shape[1]
            blocks.append(X)
            ys.extend(block_y)
            us.extend(block_u)
            continue
        rows = []
        for lineno, rec in decode_records(enumerate(lines, first), _EXAMPLE_FIELDS):
            if isinstance(rec, DataError):
                raise rec
            features, y, u = rec["features"], rec["y"], rec["u"]
            if len(features) != dim:
                if dim is not None:
                    raise DataError(f"line {lineno}: feature dimension {len(features)} != {dim}")
                dim = len(features)
                if dim == 0:
                    raise DataError(f"line {lineno}: features must not be empty")
            if y not in (0, 1):
                raise DataError(f"line {lineno}: y must be 0 or 1")
            if u not in SCORE_LEVELS:
                raise DataError(f"line {lineno}: u outside {{-3..3}}")
            rows.append(features)
            ys.append(y)
            us.append(u)
        if rows:
            blocks.append(_float_block(rows, dim))
    if not ys:
        raise DataError(f"no examples in {path}")
    return ExampleSet(np.concatenate(blocks), np.array(ys), np.array(us))


def save_model(model: Model, path) -> None:
    payload = {
        "architecture": model.architecture,
        "hidden_width": model.hidden_width,
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
    try:
        weights = {k: np.asarray(weights[k], dtype=np.float64) for k in names}
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"{path}: model weights must be arrays of numbers") from None
    d, h = weights[names[0]].shape if weights[names[0]].ndim == 2 else (-1, -1)
    shapes = {"W": (d, 2), "b": (2,), "W1": (d, h), "b1": (h,), "W2": (h, 2), "b2": (2,)}
    if any(w.shape != shapes[k] or not np.all(np.isfinite(w)) for k, w in weights.items()):
        raise DataError(f"{path}: model weights have mismatched shapes or non-finite values")
    return Model(architecture, weights, hidden_width=payload.get("hidden_width"))
