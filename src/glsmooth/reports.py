"""Rule-based scoring of diagnosis mentions in free-text report sentences.

A lexicon of cue phrases (hedges like "likely", negations like "no definite")
assigns each diagnosis mention one of the seven ordinal confidence scores.
Scoring is deliberately plain — literal phrases, word boundaries, no stemming
or embeddings — so every emitted score can be audited by reading the sentence.

Scope rules:
  * cues never cross sentence boundaries;
  * within a sentence, a cue modifies the mention nearest to it (by start
    offset), so conjunctions like "no effusion but likely pneumonia" score
    each side independently;
  * a cue occurrence wholly contained in a longer one is ignored ("likely"
    inside "less likely" must not fire); partially overlapping cues are
    both kept;
  * vocabulary phrases claim spans longest first: a mention overlapping an
    already claimed span is dropped ("effusion" inside "pleural effusion");
  * a mention with no cue in its sentence scores +3 (plain affirmative).

Each report is scanned once.  ``extract_findings`` joins the report's
sentences with newlines and runs, for every row of the vocabulary table and
of the lexicon, one substring test and at most one ``finditer`` over that
text; each hit goes to the bucket of the sentence its offset falls in.  The
scan is exact: a phrase without a newline matches only inside one sentence,
and the newline around a sentence is a non-word character like the ends of
a lone sentence, so every word boundary reads the same.  A phrase with a
newline lies in no sentence and is never scanned for.  Each mention is
then scored from its sentence's bucket of cue hits, passed to
``score_mention`` as an argument; the lexicon and the memoised vocabulary
tables are never changed.

A loaded lexicon is immutable and freely shareable across threads;
extraction is a pure function per report, so reports can be parsed in
parallel.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

from .errors import DataError
from .smoothing import SCORE_LEVELS
from .taxonomy import normalize_phrase, phrase_rows

CUE_KINDS = ("uncertainty_cue", "negation_cue")

AFFIRMATIVE_DEFAULT_SCORE = 3


@dataclass(frozen=True)
class LexiconEntry:
    pattern: str
    score: int
    kind: str


class ExtractedFinding(NamedTuple):
    raw_phrase: str
    sentence_index: int
    u: int
    cue: str | None


def _word_bounded(phrase: str) -> re.Pattern:
    """A regex that matches what ``\\bphrase\\b`` matches.

    The literal comes first, so the regex engine searches for it directly; a
    lookbehind then checks the boundary before it.  Leading with ``\\b``
    makes the engine try every position of the sentence instead.
    """
    literal = re.escape(phrase)
    return re.compile(literal + r"(?<=\b" + literal + r")\b")


class _PhraseTable:
    """Word-boundary matchers for a fixed phrase list, longest first.

    Equal lengths keep the given order; a phrase's position in ``phrases`` is
    its precedence index.  A matcher is literal and case-sensitive, so it can
    only match where its phrase is a substring: a scan runs the regex of just
    those phrases, and finds exactly what running every regex would.
    """

    def __init__(self, phrases):
        self.phrases = tuple(sorted(phrases, key=lambda p: -len(p)))
        # A phrase with a newline lies in no sentence of a report.
        self._rows = tuple(
            (p, _word_bounded(p), i) for i, p in enumerate(self.phrases) if "\n" not in p
        )

    def buckets(self, text: str, starts: list[int]) -> dict[int, list[tuple[int, int, int]]]:
        """Each sentence's (start, end, precedence_index) matches, from one scan of ``text``.

        ``text`` is the report's sentences joined with newlines and
        ``starts`` their offsets in it.  Keys are the indices of the
        sentences with a match; offsets are within the sentence, and come
        phrase by phrase, then by start.
        """
        found: dict[int, list[tuple[int, int, int]]] = {}
        for phrase, regex, idx in self._rows:
            if phrase in text:
                for m in regex.finditer(text):
                    start = m.start()
                    i = bisect_right(starts, start) - 1
                    base = starts[i]
                    found.setdefault(i, []).append((start - base, m.end() - base, idx))
        return found


class Lexicon:
    """Ordered cue-phrase table; longest pattern first, file order among equals."""

    def __init__(self, entries: list[LexiconEntry]):
        seen = set()
        for entry in entries:
            if entry.pattern in seen:
                raise DataError(f"duplicate lexicon pattern: {entry.pattern!r}")
            seen.add(entry.pattern)
        self.entries = sorted(entries, key=lambda e: -len(e.pattern))
        self._table = _PhraseTable(e.pattern for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def matches(self, sentence: str, occurrences=None) -> list[tuple[int, int, int, LexiconEntry]]:
        """All cue occurrences as (start, end, precedence_index, entry) tuples.

        The index is the entry's position in ``entries``.  Hits come pattern
        by pattern in precedence order, then by start.  Occurrences wholly
        contained in a strictly longer occurrence are dropped; the same-start
        case is the classic "no" vs "no definite" nesting.  Given the
        sentence's raw ``occurrences`` from a report scan, it is not scanned.
        A pattern with a newline never matches.
        """
        if occurrences is None:
            occurrences = self._table.buckets(sentence, [0]).get(0, [])
        return self._kept(occurrences)

    def _kept(self, occurrences) -> list[tuple[int, int, int, LexiconEntry]]:
        """The occurrences with their entries, those inside a longer one dropped."""
        hits = [(s, e, i, self.entries[i]) for s, e, i in occurrences]
        if len(hits) < 2:
            return hits
        return [
            h
            for h in hits
            if not any(
                o[0] <= h[0] and h[1] <= o[1] and (o[1] - o[0]) > (h[1] - h[0]) for o in hits
            )
        ]


def load_lexicon(source) -> Lexicon:
    """Parse the lexicon TSV format: ``pattern<TAB>score<TAB>kind`` per line.

    Accepts a path, a text/byte string, or a readable stream.  Lines starting
    with '#' and blank lines are skipped.  Problems are reported with their
    line number.
    """
    entries = []
    for lineno, pattern, (text, kind) in phrase_rows(source, "lexicon", 3):
        try:
            score = int(text)
        except ValueError:
            raise DataError(f"lexicon line {lineno}: score {text!r} is not an integer")
        if score not in SCORE_LEVELS:
            raise DataError(
                f"lexicon line {lineno}: score {score} outside {{-3..3}}"
            )
        kind = kind.strip()
        if kind not in CUE_KINDS:
            raise DataError(f"lexicon line {lineno}: unknown kind {kind!r}")
        entries.append(LexiconEntry(pattern=pattern, score=score, kind=kind))
    return Lexicon(entries)


def default_lexicon() -> Lexicon:
    """The lexicon shipped with the package."""
    return load_lexicon(Path(__file__).parent / "data" / "lexicon.tsv")


# A '.' with a digit on both sides ("1.5 cm") does not split, nor one inside
# or at the end of "vs.", "e.g.", "i.e." or "approx.", in any case.
_SENTENCE_SPLIT = re.compile(
    r"\.(?!(?<=[0-9]\.)[0-9]|(?<=\be\.)g\.|(?<=\bi\.)e\.)"
    r"(?<!\bvs\.)(?<!\be\.g\.)(?<!\bi\.e\.)(?<!\bapprox\.)|[!?]|[\r\n]+",
    re.IGNORECASE,
)


def split_sentences(report_text: str) -> list[str]:
    """Lowercased sentences split on '.', '!', '?' and runs of line breaks ('\\n', '\\r').

    A '.' between two digits is a decimal point, not a boundary, and so is
    each '.' of the abbreviations "vs.", "e.g.", "i.e." and "approx.", in any
    case.  Whitespace runs collapse to single spaces; empty segments are
    dropped.
    """
    parts = [normalize_phrase(part) for part in _SENTENCE_SPLIT.split(report_text)]
    return [sentence for sentence in parts if sentence]


def score_mention(
    sentence: str, mention_offset: int, lexicon: Lexicon, occurrences=None
) -> tuple[int, str | None]:
    """Score one diagnosis mention inside an (already lowercased) sentence.

    The cue whose start offset is nearest the mention start wins; ties go to
    the higher-precedence (longer, then earlier-listed) pattern.  No cue in
    the sentence means an unmodified affirmative statement: +3.
    ``occurrences`` go to ``Lexicon.matches``.
    """
    hits = lexicon.matches(sentence, occurrences)
    if not hits:
        return AFFIRMATIVE_DEFAULT_SCORE, None
    best = min(hits, key=lambda h: (abs(h[0] - mention_offset), h[2]))
    return best[3].score, best[3].pattern


def _claimed(occurrences, phrases) -> list[tuple[int, str]]:
    """Mention occurrences as (offset, phrase), longest phrase claiming first."""
    claimed: list[tuple[int, int]] = []
    found = []
    for start, end, idx in occurrences:
        for c_start, c_end in claimed:
            if start < c_end and c_start < end:
                break
        else:
            claimed.append((start, end))
            found.append((start, phrases[idx]))
    found.sort()
    return found


_vocabulary_table = functools.lru_cache(maxsize=8)(_PhraseTable)


def compile_vocabulary(vocabulary: list[str]) -> _PhraseTable:
    """Word-boundary matchers, longest phrase first; built once per vocabulary.

    Memoised on the phrases in the caller's order, which fixes the order of
    equal-length phrases.
    """
    return _vocabulary_table(tuple(vocabulary))


def extract_findings(
    report_text: str, lexicon: Lexicon, vocabulary: list[str]
) -> list[ExtractedFinding]:
    """All scored diagnosis mentions of a report, in reading order.

    Each word-boundary occurrence of a vocabulary phrase yields one finding;
    duplicates across sentences are the caller's business (the dataset
    builder merges them).  Both tables scan the report once (see the module
    docstring).
    """
    table = compile_vocabulary(vocabulary)
    sentences = split_sentences(report_text)
    text = "\n".join(sentences)
    starts = list(accumulate((len(s) + 1 for s in sentences), initial=0))
    mentions = table.buckets(text, starts)
    if not mentions:
        return []
    cues = lexicon._table.buckets(text, starts)
    findings = []
    for index in sorted(mentions):
        sentence, hits = sentences[index], cues.get(index, ())
        for offset, phrase in _claimed(mentions[index], table.phrases):
            u, cue = score_mention(sentence, offset, lexicon, hits)
            findings.append(ExtractedFinding(phrase, index, u, cue))
    return findings
