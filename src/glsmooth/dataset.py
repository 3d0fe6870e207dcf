"""Report ingestion: parse, consolidate, smooth, and emit labeled records.

One input report fans out into at most one labeled record per disease
category.  Emitted records always carry y=1 with a signed score: a mention
asserts the finding and u carries the polarity, so "no pneumothorax" becomes
(Pneumothorax, y=1, u=-3) and the flip inside the loss resolves it to the
negative class.  Diseases never mentioned in a report produce no record at
all (absence is not a confident negative).

Output is sorted by (study_id, category) and rates/targets are written with
six decimal places, so byte-identical files come out of any processing order.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import DataError
from .fileio import READ_BLOCK_LINES, decode_records, framed_blocks, jsonl_records
from .reports import Lexicon, extract_findings
from .smoothing import (
    SCORE_LEVELS,
    DEFAULT_PARAMS,
    SmoothingParams,
    effective_label,
    gls_target,
    smoothing_rate,
)
from .taxonomy import CATEGORY_NAMES, DiseaseCategory, TaxonomyMap


# The fields of a report line, each holding any JSON value until ReportRecord checks it.
_REPORT_FIELDS = {"patient_id": None, "study_id": None, "text": None}


@dataclass(frozen=True)
class ReportRecord:
    """One input report, checked when it is made: three strings, neither id empty."""

    patient_id: str
    study_id: str
    text: str

    def __post_init__(self) -> None:
        for name in _REPORT_FIELDS:
            if not isinstance(getattr(self, name), str):
                raise DataError(f"field {name!r} must be a string")
        if not self.patient_id:
            raise DataError("empty patient_id")
        if not self.study_id:
            raise DataError("empty study_id")


class LabeledRecord(NamedTuple):
    study_id: str
    category: DiseaseCategory
    y: int
    u: int
    r: float
    target_neg: float
    target_pos: float
    cue: str | None


@dataclass
class DatasetStats:
    record_count: int = 0
    per_category_counts: dict[str, int] = field(default_factory=dict)
    per_score_counts: dict[int, int] = field(default_factory=dict)
    malformed_records: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "record_count": self.record_count,
            "per_category_counts": {
                name: self.per_category_counts.get(name, 0) for name in CATEGORY_NAMES
            },
            "per_score_counts": {
                str(u): self.per_score_counts.get(u, 0) for u in SCORE_LEVELS
            },
            "malformed_record_count": len(self.malformed_records),
            "malformed_records": self.malformed_records,
        }
        return json.dumps(payload, indent=2) + "\n"


def _score_table(params: SmoothingParams) -> dict[tuple[int, int], tuple[float, float, float]]:
    """(y, u) -> (r, target_neg, target_pos) as floats, for all 14 pairs.

    The one place build and validate get rates and targets from.
    """
    table = {}
    for y in (0, 1):
        for u in SCORE_LEVELS:
            r = smoothing_rate(u, params)
            neg, pos = gls_target(effective_label(y, u), r)
            table[y, u] = r, float(neg), float(pos)
    return table


def build_dataset(
    records: Iterable[ReportRecord | DataError],
    lexicon: Lexicon,
    taxonomy: TaxonomyMap,
    params: SmoothingParams = DEFAULT_PARAMS,
) -> tuple[list[LabeledRecord], DatasetStats]:
    """Run parsing + consolidation + smoothing over a stream of reports.

    Duplicate findings for the same (study, category) merge by the largest
    |u|, ties toward the positive score; the cue of the first winning mention
    is kept.  A duplicated study_id is a hard error.  Items are what
    ``read_report_file`` yields: a DataError, one malformed line, is collected
    into the stats and processing continues.
    """
    stats = DatasetStats()
    vocabulary = taxonomy.vocabulary()
    # The parser finds only the taxonomy's own (normalized) phrases: all map.
    categories = {phrase: (category._value_, category) for phrase, category in taxonomy.items()}
    seen_studies: set[str] = set()
    # (study_id, category name) -> (u, cue, category)
    merged: dict[tuple[str, str], tuple[int, str | None, DiseaseCategory]] = {}

    for record in records:
        if isinstance(record, DataError):
            stats.malformed_records.append(str(record))
            continue
        study_id = record.study_id
        if study_id in seen_studies:
            raise DataError(f"duplicate study_id: {study_id!r}")
        seen_studies.add(study_id)

        for phrase, _, u, cue in extract_findings(record.text, lexicon, vocabulary):
            name, category = categories[phrase]
            key = (study_id, name)
            current = merged.get(key)
            if current is None or (abs(u), u) > (abs(current[0]), current[0]):
                merged[key] = (u, cue, category)

    table = _score_table(params)
    labeled = []
    per_category, per_score = stats.per_category_counts, stats.per_score_counts
    for key in sorted(merged):
        study_id, name = key
        u, cue, category = merged[key]
        labeled.append(LabeledRecord(study_id, category, 1, u, *table[1, u], cue))
        per_category[name] = per_category.get(name, 0) + 1
        per_score[u] = per_score.get(u, 0) + 1
    stats.record_count = len(labeled)
    return labeled, stats


# Study ids and cues as JSON text.  Records come sorted by study id, so each
# id is formatted once, and the few cues stay in the memo.
_json_text = functools.lru_cache(maxsize=64)(json.dumps)


@functools.lru_cache(maxsize=64, typed=True)
def _numbers_text(y, u, r, target_neg, target_pos) -> str:
    """The y, u, rate and target fields as text; a dataset holds a few distinct ones."""
    return (
        f'"y": {y}, "u": {u}, "r": {r:.6f}, '
        f'"target_neg": {target_neg:.6f}, "target_pos": {target_pos:.6f}'
    )


def record_to_line(rec: LabeledRecord) -> str:
    """One output line; rate and target fields carry exactly six decimals."""
    study_id, category, y, u, r, neg, pos, cue = rec
    # A zero goes round the memo: 0.0 == -0.0, and the two print differently.
    numbers_text = _numbers_text if r and neg and pos else _numbers_text.__wrapped__
    numbers = numbers_text(y, u, r, neg, pos)
    return (
        f'{{"study_id": {_json_text(study_id)}, '
        f'"category": "{category._value_}", {numbers}, '
        f'"cue": {_json_text(cue)}}}'
    )


# A line as record_to_line writes it, nothing else on the line: a study id
# and a cue (or null) that are any JSON strings, escapes included, as
# json.dumps writes them; a category string with no escape or control
# character; y 0 or 1, u -3..3, and the rate and targets with exactly six
# decimals.  Groups: the category, and the text of the number fields.
_JSON_STRING = r'"[^"\\\x00-\x1f]*(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})[^"\\\x00-\x1f]*)*"'
_NUMBER_FIELDS = (
    r'"y": [01], "u": -?[0-3], "r": -?[0-9]+\.[0-9]{6}, '
    r'"target_neg": -?[0-9]+\.[0-9]{6}, "target_pos": -?[0-9]+\.[0-9]{6}'
)
_DATASET_LINE = (
    rf'^\{{"study_id": {_JSON_STRING}, "category": "([^"\\\x00-\x1f]*)", '
    rf'({_NUMBER_FIELDS}), "cue": (?:null|{_JSON_STRING})\}}$'
)


def stats_path_for(out_path) -> Path:
    out_path = Path(out_path)
    return out_path.with_name(out_path.name + ".stats.json")


def write_dataset(labeled: list[LabeledRecord], stats: DatasetStats, out_path) -> None:
    """Write the labeled records plus the stats sidecar (<out>.stats.json)."""
    out_path = Path(out_path)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in labeled:
            fh.write(record_to_line(rec) + "\n")
    with open(stats_path_for(out_path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(stats.to_json())


def read_report_file(path) -> Iterator[ReportRecord | DataError]:
    """Stream a line-delimited report file, one line at a time.

    Yields a ReportRecord for each well-formed line and a DataError citing
    "line N" for each malformed one, which build_dataset counts and skips.
    """
    for lineno, item in jsonl_records(path, _REPORT_FIELDS):
        if not isinstance(item, DataError):
            try:
                item = ReportRecord(item["patient_id"], item["study_id"], item["text"])
            except DataError as exc:
                item = DataError(f"line {lineno}: {exc}")
        yield item


def build_dataset_file(
    input_path,
    out_path,
    lexicon: Lexicon,
    taxonomy: TaxonomyMap,
    params: SmoothingParams = DEFAULT_PARAMS,
) -> DatasetStats:
    """File-to-file convenience wrapper used by the command line."""
    labeled, stats = build_dataset(read_report_file(input_path), lexicon, taxonomy, params)
    write_dataset(labeled, stats, out_path)
    return stats


_REQUIRED_FIELDS = {
    "study_id": "str",
    "category": "str",
    "y": "label",
    "u": "score",
    "r": "number",
    "target_neg": "number",
    "target_pos": "number",
    "cue": "str or null",
}


# validate_dataset quotes this many problems and counts the rest, so a badly
# broken file gives a short error rather than one naming every bad record.
MAX_REPORTED_PROBLEMS = 20


def _block_counts(groups: list[tuple[str, str]], known, u_of) -> tuple[Counter, Counter] | None:
    """(per-category, per-score) counts of a block from its (category, number fields) texts.

    None, which sends the block to the line-by-line checks, unless every
    category is known and every number text is a key of ``u_of`` (text -> u).
    """
    names, numbers = zip(*groups)
    if not known.issuperset(names):
        return None
    per_score = Counter()
    for text, count in Counter(numbers).items():
        u = u_of.get(text)
        if u is None:
            return None
        per_score[u] += count
    return Counter(names), per_score


def validate_dataset(path, params: SmoothingParams = DEFAULT_PARAMS) -> DatasetStats:
    """Re-check every labeled-record invariant in a dataset file.

    Verifies the schema, the score range, r against the conversion formula,
    and the target against the smoothed effective label, all at the file's
    six-decimal precision.  Raises DataError naming the first
    MAX_REPORTED_PROBLEMS violations with their line numbers and counting the
    rest ("; and N more problem(s)"); returns recomputed stats when clean.

    The file is read a block of READ_BLOCK_LINES lines at a time
    (``fileio.framed_blocks``, with the frame ``_DATASET_LINE``).  A block
    whose every line is a clean record as record_to_line writes it is counted
    from the frame's groups; any other block, so every block of a file in
    another layout, is checked line by line, so each problem is found and
    worded as there.
    """
    known = frozenset(CATEGORY_NAMES)
    table = _score_table(params)
    expected_text = {key: tuple(f"{x:.6f}" for x in floats) for key, floats in table.items()}
    # Number-fields text -> u, by record_to_line's own formatter.  The memo is
    # left out, as record_to_line leaves it out for a zero: no cached -0.0
    # text can stand in for a 0.0.
    u_of = {_numbers_text.__wrapped__(y, u, *floats): u for (y, u), floats in table.items()}
    stats = DatasetStats()
    per_category, per_score = stats.per_category_counts, stats.per_score_counts
    problems: list[str] = []
    try:
        for first, lines, groups in framed_blocks(path, READ_BLOCK_LINES, _DATASET_LINE):
            counts = _block_counts(groups, known, u_of) if groups else None
            if counts is not None:
                for totals, block in zip((per_category, per_score), counts):
                    for key, count in block.items():
                        totals[key] = totals.get(key, 0) + count
                stats.record_count += len(lines)
                continue
            for lineno, rec in decode_records(enumerate(lines, first), _REQUIRED_FIELDS):
                if isinstance(rec, DataError):
                    problems.append(str(rec))
                    continue
                name, y, u = rec["category"], rec["y"], rec["u"]
                if name not in known:
                    problems.append(f"line {lineno}: unknown category {name!r}")
                    continue
                expected_r, expected_neg, expected_pos = expected_text[y, u]
                r = f"{rec['r']:.6f}"
                if r != expected_r:
                    problems.append(
                        f"line {lineno}: r {r} does not match -k|u|+r0 = {expected_r} for u={u}"
                    )
                    continue
                neg, pos = f"{rec['target_neg']:.6f}", f"{rec['target_pos']:.6f}"
                if neg != expected_neg or pos != expected_pos:
                    problems.append(
                        f"line {lineno}: target [{neg}, {pos}] does not match "
                        f"[{expected_neg}, {expected_pos}]"
                    )
                    continue
                stats.record_count += 1
                per_category[name] = per_category.get(name, 0) + 1
                per_score[u] = per_score.get(u, 0) + 1
    except DataError as exc:  # a line that is not UTF-8 ends the read
        problems.append(str(exc))
    if problems:
        text = "; ".join(problems[:MAX_REPORTED_PROBLEMS])
        if len(problems) > MAX_REPORTED_PROBLEMS:
            text += f"; and {len(problems) - MAX_REPORTED_PROBLEMS} more problem(s)"
        raise DataError(text)
    return stats
