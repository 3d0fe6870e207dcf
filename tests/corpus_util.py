"""Synthetic report corpora for parser and dataset-builder tests.

``make_reports`` assembles sentences from templates that exercise every cue
level of the default lexicon, so built datasets cover the full score range.
``sign_error_grid`` joins one-clause forms with planted scores in pairs, so
a test can count the mentions the parser gets wrong.
"""

from itertools import permutations, product

import numpy as np

from glsmooth.taxonomy import default_taxonomy

_TEMPLATES = [
    "{P} is definitely present.",
    "Consistent with {p}.",
    "Likely {p}.",
    "Probable {p}.",
    "Possible {p}.",
    "{P} is suspected.",
    "May represent {p}.",
    "{P} cannot be excluded.",
    "{P} not excluded.",
    "{P} versus {q}.",
    "{P} is unlikely.",
    "Less likely {p}.",
    "No definite {p}.",
    "No convincing evidence of {p}.",
    "No {p}.",
    "Without {p}.",
    "Negative for {p}.",
    "{P} has resolved.",
    "{P}.",
    "Stable {p} again noted.",
]


def make_reports(n: int, seed: int) -> list[dict]:
    """n well-formed report dicts with unique study ids, deterministic per seed."""
    rng = np.random.default_rng(seed)
    phrases = default_taxonomy().vocabulary()
    reports = []
    for i in range(n):
        n_sentences = int(rng.integers(1, 5))
        sentences = []
        for _ in range(n_sentences):
            template = _TEMPLATES[int(rng.integers(0, len(_TEMPLATES)))]
            p = phrases[int(rng.integers(0, len(phrases)))]
            q = phrases[int(rng.integers(0, len(phrases)))]
            sentences.append(
                template.format(p=p, P=p.capitalize(), q=q)
            )
        reports.append(
            {
                "patient_id": f"p{int(rng.integers(0, n // 2 + 1)):05d}",
                "study_id": f"s{i:06d}",
                "text": " ".join(sentences),
            }
        )
    return reports


# The sign-error grid's one-clause forms: name -> (template, planted u).  The
# planted u is what the form's cue gives it alone, its default-lexicon score,
# or +3 with no cue.  Pre-cues ("no", "possible") precede their finding and
# post-cues ("unlikely", "not excluded", "has resolved") follow it, as in
# NegEx (Chapman et al., 2001) and ConText (Harkema et al., 2009).
SIGN_FORMS = {
    "bare": ("{f}", 3),
    "present": ("{f} is present", 3),
    "no": ("no {f}", -3),
    "without": ("without {f}", -3),
    "possible": ("possible {f}", 1),
    "likely": ("likely {f}", 2),
    "unlikely": ("{f} is unlikely", -1),
    "not excluded": ("{f} is not excluded", 0),
    "resolved": ("{f} has resolved", -3),
    "no definite": ("no definite {f}", -2),
}
# A sentence break, the terminators ";", "but" and "however", and the
# non-terminators "," and "and".
SIGN_SEPARATORS = (". ", "; ", ", ", " but ", "; however ", " and ")
SIGN_FINDINGS = ("atelectasis", "cardiomegaly", "consolidation", "edema", "pleural effusion",
                 "pneumonia", "pneumothorax", "fracture")


def sign_error_grid():
    """Each two-clause report of the sign-error grid, with its planted mentions.

    Yields ``(text, planted)``: ``text`` is one form of a finding, a separator
    and a form of another finding, then "."; ``planted`` holds each clause's
    ``(finding, u, form, separator)``, in reading order.  Every ordered pair
    of distinct findings meets every pair of forms and every separator:
    33,600 reports, 67,200 mentions.
    """
    forms = SIGN_FORMS.items()
    for first, second in permutations(SIGN_FINDINGS, 2):
        for (name_a, (form_a, u_a)), (name_b, (form_b, u_b)), sep in product(
            forms, forms, SIGN_SEPARATORS
        ):
            text = form_a.format(f=first) + sep + form_b.format(f=second) + "."
            yield text, ((first, u_a, name_a, sep), (second, u_b, name_b, sep))
