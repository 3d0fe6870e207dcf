"""Mapping of raw diagnosis phrases onto 14 clinical disease categories.

Matching is exact phrase lookup after normalization; the consolidation table
is a finite authoritative list, shipped as an editable data file so users can
extend it.  Unknown phrases map to nothing rather than guessing.
"""

from __future__ import annotations

import enum
from pathlib import Path
from typing import Iterator

from .errors import DataError
from .fileio import table_lines


class DiseaseCategory(enum.Enum):
    ATELECTASIS = "Atelectasis"
    CARDIOMEGALY = "Cardiomegaly"
    CONSOLIDATION = "Consolidation"
    EDEMA = "Edema"
    EFFUSION = "Effusion"
    EMPHYSEMA = "Emphysema"
    FRACTURE = "Fracture"
    HERNIA = "Hernia"
    MASS = "Mass"
    NODULE = "Nodule"
    PLEURAL_THICKENING = "PleuralThickening"
    PNEUMONIA = "Pneumonia"
    PNEUMOTHORAX = "Pneumothorax"
    SCOLIOSIS = "Scoliosis"


CATEGORY_NAMES = tuple(c.value for c in DiseaseCategory)


def normalize_phrase(raw: str) -> str:
    """Lowercase, strip, and collapse internal whitespace runs."""
    return " ".join(raw.lower().split())


def phrase_rows(source, what: str, columns: int) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, phrase, other fields) of each row of a ``what`` table ("lexicon", "taxonomy").

    A row is a ``table_lines`` line of ``columns`` tab-separated fields.  Its
    phrase is its first field normalized: never empty, as the line is
    stripped, and given by no earlier row.
    """
    seen: dict[str, int] = {}
    for lineno, line in table_lines(source, what):
        fields = line.split("\t")
        if len(fields) != columns:
            raise DataError(
                f"{what} line {lineno}: expected {columns} tab-separated columns, got {len(fields)}"
            )
        phrase = normalize_phrase(fields[0])
        if seen.setdefault(phrase, lineno) != lineno:
            raise DataError(
                f"{what} line {lineno}: duplicate phrase {phrase!r} (line {seen[phrase]})"
            )
        yield lineno, phrase, fields[1:]


class TaxonomyMap:
    """Immutable phrase -> category lookup."""

    def __init__(self, entries: dict[str, DiseaseCategory]):
        # Keys are normalized phrases: every phrase the parser finds then maps.
        for phrase in entries:
            if not phrase or phrase != normalize_phrase(phrase):
                raise ValueError(f"taxonomy phrase must be normalized and non-empty: {phrase!r}")
        self._entries = dict(entries)

    def __len__(self) -> int:
        return len(self._entries)

    def map_diagnosis(self, raw: str) -> DiseaseCategory | None:
        """Category for a raw phrase, or None when the phrase is unknown."""
        return self._entries.get(normalize_phrase(raw))

    def vocabulary(self) -> list[str]:
        """All known raw phrases, longest first, for use as parser vocabulary."""
        return sorted(self._entries, key=lambda p: (-len(p), p))

    def items(self):
        return self._entries.items()


def load_taxonomy(source) -> TaxonomyMap:
    """Parse the taxonomy TSV format: ``raw_phrase<TAB>category`` per line."""
    by_value = {c.value: c for c in DiseaseCategory}
    entries: dict[str, DiseaseCategory] = {}
    for lineno, phrase, (name,) in phrase_rows(source, "taxonomy", 2):
        category = by_value.get(name.strip())
        if category is None:
            raise DataError(
                f"taxonomy line {lineno}: unknown category {name.strip()!r} "
                f"(must be one of {', '.join(CATEGORY_NAMES)})"
            )
        entries[phrase] = category
    return TaxonomyMap(entries)


def default_taxonomy() -> TaxonomyMap:
    """The consolidation table shipped with the package."""
    return load_taxonomy(Path(__file__).parent / "data" / "taxonomy.tsv")

