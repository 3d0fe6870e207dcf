"""Numerical kernel for uncertainty-driven generalized label smoothing.

Expert confidence is a seven-level ordinal score u in {-3..3}: the sign gives
polarity relative to the stored binary label, the magnitude gives confidence,
and 0 is maximal ambiguity.  Each score converts to a per-example smoothing
rate

    r = -k * |u| + r0        (defaults k = 5/12, r0 = 1)

and the rate builds a two-class soft target

    t = (1 - r) * onehot(y_eff) + (r / 2) * [1, 1]

where y_eff is the label after flipping (y -> 1-y when u < 0).  Rates may be
negative, in which case the target leaves [0, 1] ("negative smoothing": the
target is sharpened beyond one-hot).  The matching loss is the same affine
combination written against the prediction,

    L = (1 - r) * CE(p, y_eff) + r * CE(p, uniform),

which is algebraically identical to the cross-entropy of p against t.

Pure functions, no shared state.  The batch functions are the only float
implementation; the scalar API checks its arguments and returns their row 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError

SCORE_LEVELS = (-3, -2, -1, 0, 1, 2, 3)

# 5/12 rather than the rounded decimal 0.417: the exact slope is the unique
# value that makes r(0)=1, r(2)=1/6 and r(3)=-1/4 simultaneously (0.417 would
# give r(3) = -0.251).
DEFAULT_K = Fraction(5, 12)
DEFAULT_R0 = Fraction(1)


def check_score(u: int) -> int:
    """Validate a seven-level uncertainty score and return it as int."""
    if isinstance(u, bool) or int(u) != u or int(u) not in SCORE_LEVELS:
        raise ValueError(f"uncertainty score must be an integer in {{-3..3}}, got {u!r}")
    return int(u)


def check_label(y: int) -> int:
    """Validate a binary label and return it as int."""
    if isinstance(y, bool) or int(y) != y or int(y) not in (0, 1):
        raise ValueError(f"binary label must be 0 or 1, got {y!r}")
    return int(y)


def check_rate(r: float) -> float:
    """Validate a float smoothing rate and return it as float."""
    r = float(r)
    if not math.isfinite(r) or r > 1:
        raise ValueError(f"smoothing rate must be finite and <= 1, got {r}")
    return r


def _shown(x: Fraction) -> str:
    """``x`` exactly when its terms have at most 40 digits, else to 6 significant digits.

    A longer one printed exactly could pass Python's limit on the digits of
    an int made a string (ValueError); its base-10 logarithm is cheap at any
    length.
    """
    if max(abs(x.numerator), x.denominator) < 10**40:
        return str(x)
    power = math.log10(abs(x.numerator)) - math.log10(x.denominator)
    exponent = math.floor(power)
    mantissa = f"{10 ** (power - exponent):.6g}"
    if mantissa == "10":  # 9.9999996 and up round to the next power of ten
        mantissa, exponent = "1", exponent + 1
    return f"{'-' if x < 0 else ''}{mantissa}e{exponent:+d}"


@dataclass(frozen=True)
class SmoothingParams:
    """Score-to-rate conversion parameters, kept as exact rationals.

    k is the slope, r0 the intercept.  r0 = 1 encodes the clinical
    constraint that a maximally ambiguous score (u = 0) smooths all the
    way to the uniform target.  Both are checked here: k > 0 and r0 <= 1,
    so every rate -k*|u| + r0 is at most 1, and the lowest rate r0 - 3k
    must convert to a float, so every rate does.
    """

    k: Fraction = DEFAULT_K
    r0: Fraction = DEFAULT_R0

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", Fraction(self.k))
        object.__setattr__(self, "r0", Fraction(self.r0))
        if self.k <= 0:
            raise ConfigError(f"slope k must be positive, got {_shown(self.k)}")
        if self.r0 > 1:
            raise ConfigError(f"intercept r0 must not exceed 1, got {_shown(self.r0)}")
        try:
            float(self.r0 - self.k * SCORE_LEVELS[-1])
        except OverflowError:
            raise ConfigError("slope k and intercept r0 make r0 - 3k overflow a float") from None


DEFAULT_PARAMS = SmoothingParams()


def smoothing_rate_exact(u: int, params: SmoothingParams = DEFAULT_PARAMS) -> Fraction:
    """Smoothing rate r = -k*|u| + r0 as an exact rational."""
    return params.r0 - params.k * abs(check_score(u))


def smoothing_rate(u: int, params: SmoothingParams = DEFAULT_PARAMS) -> float:
    """Smoothing rate r = -k*|u| + r0, computed exactly then converted to float."""
    return float(smoothing_rate_exact(u, params))


def effective_labels(y: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized flip: y when u >= 0, 1-y when u < 0."""
    return np.where(u >= 0, y, 1 - y)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise two-class softmax of (n, 2) logits; the input is left as it is.

    The row max and the row sum are taken on the two columns: the same single
    ``maximum`` and ``add`` per row as an ``axis=1`` reduction, so the same
    bits, at a fraction of the cost of a reduction over a width-2 axis.
    """
    z = logits - np.maximum(logits[:, :1], logits[:, 1:])
    np.exp(z, out=z)
    z /= z[:, :1] + z[:, 1:]
    return z


def batch_loss(P, y_eff, r) -> np.ndarray:
    """Per-example uncertainty-weighted loss for a batch of two-class probabilities."""
    P = np.asarray(P, dtype=np.float64)
    y_eff = np.asarray(y_eff, dtype=np.int64)
    r = np.asarray(r, dtype=np.float64)
    log_p = np.log(P)
    ce = -log_p[np.arange(len(y_eff)), y_eff]
    uniform = -0.5 * (log_p[:, 0] + log_p[:, 1])
    return (1.0 - r) * ce + r * uniform


def batch_targets(y_eff, r) -> np.ndarray:
    """Row-wise smoothed targets, shape (n, 2)."""
    y_eff = np.asarray(y_eff, dtype=np.int64)
    r = np.asarray(r, dtype=np.float64)
    T = np.repeat((r / 2.0)[:, None], 2, axis=1)
    T[np.arange(len(y_eff)), y_eff] += 1.0 - r
    return T


def effective_label(y: int, u: int) -> int:
    """Label actually smoothed: y when the score is non-negative, else 1-y."""
    return int(effective_labels(check_label(y), check_score(u)))


def gls_target(y_eff: int, r: float) -> np.ndarray:
    """Two-class soft target (1-r)*onehot(y_eff) + r/2 on each component.

    Components always sum to 1; they leave [0, 1] exactly when r < 0.
    """
    return batch_targets([check_label(y_eff)], [check_rate(r)])[0]


def gls_target_exact(y_eff: int, r: Fraction) -> tuple[Fraction, Fraction]:
    """Exact-rational counterpart of gls_target, for identities that must hold exactly."""
    y_eff = check_label(y_eff)
    r = Fraction(r)
    if r > 1:
        raise ValueError(f"smoothing rate must be <= 1, got {r}")
    half = r / 2
    return (half + (1 - r) * (1 - y_eff), half + (1 - r) * y_eff)


def check_probability_pair(p) -> np.ndarray:
    """Validate a strictly positive two-class probability vector."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (2,):
        raise ValueError(f"probability pair must have shape (2,), got {p.shape}")
    if not np.all(p > 0):
        raise ValueError(f"probabilities must be strictly positive, got {p.tolist()}")
    if abs(float(p[0] + p[1]) - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {p.tolist()}")
    return p


def gls_loss(p, y_eff: int, r: float) -> float:
    """Uncertainty-weighted loss (1-r)*L_ce + r*L_uniform.

    L_ce is -log p[y_eff]; L_uniform is the cross-entropy of p against the
    uniform distribution, -(log p0 + log p1)/2.  Equals the cross-entropy of
    p against gls_target(y_eff, r) for every admissible r, including r < 0.
    Rejects non-positive probabilities rather than clamping; callers that
    need clamping (the trainer) do it on their side.
    """
    p = check_probability_pair(p)
    return float(batch_loss(p[None, :], [check_label(y_eff)], [check_rate(r)])[0])


def softmax_pair(logits) -> np.ndarray:
    """Numerically stable two-class softmax."""
    z = np.asarray(logits, dtype=np.float64)
    if z.shape != (2,):
        raise ValueError(f"logits must have shape (2,), got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError(f"logits must be finite, got {z.tolist()}")
    return softmax(z[None, :])[0]


def gls_loss_gradient(logits, y_eff: int, r: float) -> np.ndarray:
    """Gradient of gls_loss with respect to the logits: softmax(logits) - target.

    The components sum to zero (softmax keeps predictions on the simplex,
    and the target sums to one).
    """
    p = softmax_pair(logits)
    return p - gls_target(y_eff, r)


@dataclass(frozen=True)
class ScoreTableRow:
    u: int
    r: Fraction
    target: tuple[Fraction, Fraction]
    interpretation: str


# The confidence each score expresses; what the rate does is read off the row.
_CONFIDENCE = {
    3: "Definitively positive",
    2: "Highly confident",
    1: "Moderately confident",
    0: "Ambiguous/Neutral",
    -1: "Moderately uncertain",
    -2: "Highly uncertain",
    -3: "Definitively negative",
}


def _rate_words(r: Fraction) -> str:
    """What a rate in (-inf, 1] does to the one-hot target."""
    if r < 0:
        return "negative smoothing: sharpened past one-hot"
    if r == 0:
        return "no smoothing: one-hot"
    return "smoothing" if r < 1 else "uniform"


def score_rate_table(params: SmoothingParams = DEFAULT_PARAMS) -> list[ScoreTableRow]:
    """All seven (u, r, target) rows for the positive-label convention.

    Each row reports the target a y=1 annotation would train against at that
    score, i.e. gls_target(effective_label(1, u), r(u)), in exact rationals.
    Rows are ordered from u=3 down to u=-3.
    """
    rows = []
    for u in sorted(SCORE_LEVELS, reverse=True):
        r = smoothing_rate_exact(u, params)
        target = gls_target_exact(effective_label(1, u), r)
        words = f"{_CONFIDENCE[u]} ({_rate_words(r)})"
        rows.append(ScoreTableRow(u=u, r=r, target=target, interpretation=words))
    return rows
