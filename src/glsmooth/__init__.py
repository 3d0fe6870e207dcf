"""glsmooth: clinical-uncertainty extraction and generalized label smoothing.

The package turns free-text radiology statements into seven-level ordinal
uncertainty scores, consolidates diagnosis phrases into 14 disease
categories, converts scores into per-example label-smoothing rates and soft
targets (negative rates included), and trains/evaluates small classifiers
with the resulting loss.
"""

from .dataset import build_dataset, validate_dataset
from .reports import default_lexicon, extract_findings, load_lexicon, split_sentences
from .smoothing import (
    DEFAULT_PARAMS,
    SCORE_LEVELS,
    SmoothingParams,
    effective_label,
    gls_loss,
    gls_loss_gradient,
    gls_target,
    score_rate_table,
    smoothing_rate,
)
from .taxonomy import DiseaseCategory, default_taxonomy, load_taxonomy
from .training import (
    ExampleSet,
    TrainConfig,
    auc,
    evaluate,
    predict_proba,
    sweep,
    synthetic_noisy_generator,
    train,
)

__all__ = [
    "DEFAULT_PARAMS",
    "SCORE_LEVELS",
    "DiseaseCategory",
    "ExampleSet",
    "SmoothingParams",
    "TrainConfig",
    "auc",
    "build_dataset",
    "default_lexicon",
    "default_taxonomy",
    "effective_label",
    "evaluate",
    "extract_findings",
    "gls_loss",
    "gls_loss_gradient",
    "gls_target",
    "load_lexicon",
    "load_taxonomy",
    "predict_proba",
    "score_rate_table",
    "smoothing_rate",
    "split_sentences",
    "sweep",
    "synthetic_noisy_generator",
    "train",
    "validate_dataset",
]

__version__ = "0.1.0"
