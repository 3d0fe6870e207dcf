"""Seeded input generators for the benchmark workloads.

These generators are the benchmark's own: they import nothing from the
package's tests and do not call ``glsmooth.synthetic_noisy_generator``, so a
change to either cannot change a workload.  The same seed always gives the
same files and the same planted truth.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# Phrase -> category pairs the corpus plants.  Kept here rather than read from
# the shipped taxonomy so that editing that data file changes the program, not
# the workload.
PHRASES = (
    ("atelectasis", "Atelectasis"),
    ("cardiomegaly", "Cardiomegaly"),
    ("enlargement of the cardiac silhouette", "Cardiomegaly"),
    ("consolidation", "Consolidation"),
    ("lung opacity", "Consolidation"),
    ("edema", "Edema"),
    ("vascular congestion", "Edema"),
    ("heart failure", "Edema"),
    ("pleural effusion", "Effusion"),
    ("blunting of the costophrenic angle", "Effusion"),
    ("emphysema", "Emphysema"),
    ("fracture", "Fracture"),
    ("hernia", "Hernia"),
    ("thymoma", "Mass"),
    ("tortuosity of the thoracic aorta", "Mass"),
    ("granuloma", "Nodule"),
    ("calcification", "Nodule"),
    ("pleural thickening", "PleuralThickening"),
    ("pneumonia", "Pneumonia"),
    ("pneumothorax", "Pneumothorax"),
    ("pneumomediastinum", "Pneumothorax"),
    ("scoliosis", "Scoliosis"),
)

# Single-clause templates: one cue (or none), placed before every mention it
# governs, joined only by "and"/"or" -- no commas, semicolons or "but" -- so
# that the intended score stays the same under any clause-scope rule.
# (template, u, cue); "{m}" is the list of mentions.
TEMPLATES = (
    ("{M}.", 3, None),
    ("Stable {m}.", 3, None),
    ("Consistent with {m}.", 3, "consistent with"),
    ("Diagnostic of {m}.", 3, "diagnostic of"),
    ("Likely {m}.", 2, "likely"),
    ("Probable {m}.", 2, "probable"),
    ("Possible {m}.", 1, "possible"),
    ("Suspicious for {m}.", 1, "suspicious for"),
    ("Cannot exclude {m}.", 0, "cannot exclude"),
    ("Less likely {m}.", -1, "less likely"),
    ("No definite {m}.", -2, "no definite"),
    ("No convincing evidence of {m}.", -2, "no convincing"),
    ("No {m}.", -3, "no"),
    ("Negative for {m}.", -3, "negative for"),
    ("Free of {m}.", -3, "free of"),
)

# Sentences with no diagnosis mention (one carries a cue with nothing to modify).
FILLERS = (
    "Comparison is made with the prior study.",
    "Support devices are unchanged.",
    "The lungs are otherwise clear.",
    "No acute osseous abnormality.",
    "Heart size is within normal limits.",
)

MALFORMED_SHARE = 0.02


@dataclass
class Corpus:
    """A report file's lines plus what a correct build must produce from it."""

    lines: list[str]
    # (study_id, category) -> (u, cue) for every record the build must emit.
    truth: dict[tuple[str, str], tuple[int, str | None]]
    well_formed: int = 0
    malformed: int = 0
    sentences: int = 0
    mentions: int = 0
    mention_sentences: int = 0
    cue_hits: int = 0


def _quantile_lengths(n: int) -> list[int]:
    """Sentence counts 1..12 in the proportions of a geometric(0.3) law."""
    return [1 + min(int(math.log(1 - (i + 0.5) / n) / math.log(0.7)), 11) for i in range(n)]


def make_corpus(n_reports: int, seed: int) -> Corpus:
    """``n_reports`` JSONL report lines, 2% of them malformed.

    Well-formed reports have 1 to 12 sentences; a quarter of all sentences
    name no finding, and of the rest about half name two or three.  The seed
    shuffles these fixed proportions and picks the words, so every seed asks
    about the same amount of work.  Within one report every mention is of a
    different category, so each planted (category, u, cue) is exactly one
    output record.
    """
    rng = np.random.default_rng(seed)
    corpus = Corpus(lines=[], truth={})
    malformed = set(rng.choice(n_reports, round(n_reports * MALFORMED_SHARE), replace=False).tolist())
    lengths = iter(rng.permutation(_quantile_lengths(n_reports - len(malformed))).tolist())
    total = sum(_quantile_lengths(n_reports - len(malformed)))
    fillers = total // 4
    kinds = [0] * fillers + [(1, 1, 2, 3)[i % 4] for i in range(total - fillers)]
    kinds = iter(rng.permutation(kinds).tolist())
    for i in range(n_reports):
        study = f"s{seed}-{i:07d}"
        if i in malformed:
            corpus.malformed += 1
            kind = int(rng.integers(0, 3))
            if kind == 0:
                corpus.lines.append(f'{{"patient_id": "p{i}", "study_id": "{study}", "text": "No')
            elif kind == 1:
                corpus.lines.append(json.dumps({"patient_id": f"p{i}", "study_id": study}))
            else:
                corpus.lines.append(json.dumps({"patient_id": f"p{i}", "text": "No edema."}))
            continue
        corpus.well_formed += 1
        free = list(rng.permutation(len(PHRASES)))
        used_categories: set[str] = set()
        sentences = []
        for _ in range(next(lengths)):
            corpus.sentences += 1
            want = next(kinds)
            picked = []
            while free and len(picked) < want:
                phrase, category = PHRASES[free.pop()]
                if category not in used_categories:
                    used_categories.add(category)
                    picked.append((phrase, category))
            if not picked:
                sentences.append(FILLERS[int(rng.integers(0, len(FILLERS)))])
                continue
            template, u, cue = TEMPLATES[int(rng.integers(0, len(TEMPLATES)))]
            joiner = " or " if u < 0 else " and "
            mentions = joiner.join(p for p, _ in picked)
            text = template.format(m=mentions, M=mentions[0].upper() + mentions[1:])
            sentences.append(text)
            corpus.mention_sentences += 1
            corpus.mentions += len(picked)
            if cue is not None:
                corpus.cue_hits += len(picked)
            for _, category in picked:
                corpus.truth[(study, category)] = (u, cue)
        record = {"patient_id": f"p{i // 3}", "study_id": study, "text": " ".join(sentences)}
        corpus.lines.append(json.dumps(record))
    return corpus


@dataclass
class Examples:
    """Noisy two-cluster training examples; ``clean`` keeps the true labels."""

    features: np.ndarray
    y: np.ndarray
    u: np.ndarray
    clean: np.ndarray = field(repr=False)

    def lines(self) -> list[str]:
        return [
            json.dumps({"features": row, "y": int(y), "u": int(u)})
            for row, y, u in zip(self.features.tolist(), self.y, self.u)
        ]


# Flip probability of the observed label at each confidence magnitude.
FLIP_BY_CONFIDENCE = {3: 0.02, 2: 0.1, 1: 0.25, 0: 0.45}


def make_examples(n: int, d: int, seed: int) -> Examples:
    """Two Gaussian clusters with confidence-dependent label flips.

    Each example has a confidence magnitude 0..3; its label flips away from
    the truth with that magnitude's probability.  About half of the nonzero
    scores are stored with negative sign and the complementary label, so the
    effective (flip-resolved) label is the noisy one and the loss's polarity
    path does work.
    """
    rng = np.random.default_rng(seed)
    # Fixed class and confidence proportions, shuffled: the |u| = 3 warm-up
    # subset is the same size for every seed.
    clean = rng.permutation(np.arange(n) % 2)
    magnitude = rng.permutation(np.arange(n) % 4)
    centre = np.where(clean[:, None] == 1, 1.0, -1.0) / np.sqrt(d)
    features = rng.standard_normal((n, d)) + centre
    flip_p = np.array([FLIP_BY_CONFIDENCE[int(m)] for m in magnitude])
    noisy = np.where(rng.random(n) < flip_p, 1 - clean, clean)
    negate = (rng.random(n) < 0.5) & (magnitude > 0)
    y = np.where(negate, 1 - noisy, noisy)
    u = np.where(negate, -magnitude, magnitude)
    return Examples(features=features, y=y, u=u, clean=clean)


def write_lines(path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")
