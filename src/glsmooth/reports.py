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
    inside "less likely" must not fire);
  * a mention with no cue in its sentence scores +3 (plain affirmative).

A loaded lexicon is immutable and freely shareable across threads;
extraction is a pure function per report, so reports can be parsed in
parallel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError
from .fileio import table_lines
from .smoothing import SCORE_LEVELS

CUE_KINDS = ("uncertainty_cue", "negation_cue")

AFFIRMATIVE_DEFAULT_SCORE = 3


@dataclass(frozen=True)
class LexiconEntry:
    pattern: str
    score: int
    kind: str


@dataclass(frozen=True)
class ExtractedFinding:
    raw_phrase: str
    sentence_index: int
    u: int
    cue: str | None


def _word_regex(phrase: str) -> re.Pattern:
    return re.compile(r"\b" + re.escape(phrase) + r"\b")


class Lexicon:
    """Ordered cue-phrase table; longest pattern first, file order among equals."""

    def __init__(self, entries: list[LexiconEntry]):
        seen = set()
        for entry in entries:
            if entry.pattern in seen:
                raise DataError(f"duplicate lexicon pattern: {entry.pattern!r}")
            seen.add(entry.pattern)
        self.entries = sorted(entries, key=lambda e: -len(e.pattern))
        self._compiled = [(_word_regex(e.pattern), e) for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def matches(self, sentence: str) -> list[tuple[int, int, int, LexiconEntry]]:
        """All cue occurrences as (start, end, precedence_index) tuples.

        Occurrences wholly contained in a strictly longer occurrence are
        dropped; the same-start case is the classic "no" vs "no definite"
        nesting.
        """
        hits = []
        for idx, (regex, entry) in enumerate(self._compiled):
            for m in regex.finditer(sentence):
                hits.append((m.start(), m.end(), idx, entry))
        kept = []
        for h in hits:
            contained = any(
                o is not h
                and o[0] <= h[0]
                and h[1] <= o[1]
                and (o[1] - o[0]) > (h[1] - h[0])
                for o in hits
            )
            if not contained:
                kept.append(h)
        return kept


def load_lexicon(source) -> Lexicon:
    """Parse the lexicon TSV format: ``pattern<TAB>score<TAB>kind`` per line.

    Accepts a path, a text/byte string, or a readable stream.  Lines starting
    with '#' and blank lines are skipped.  Problems are reported with their
    line number.
    """
    entries = []
    for lineno, line in table_lines(source, "lexicon"):
        cols = line.split("\t")
        if len(cols) != 3:
            raise DataError(
                f"lexicon line {lineno}: expected 3 tab-separated columns, got {len(cols)}"
            )
        pattern = " ".join(cols[0].lower().split())
        if not pattern:
            raise DataError(f"lexicon line {lineno}: empty pattern")
        try:
            score = int(cols[1])
        except ValueError:
            raise DataError(f"lexicon line {lineno}: score {cols[1]!r} is not an integer")
        if score not in SCORE_LEVELS:
            raise DataError(
                f"lexicon line {lineno}: score {score} outside {{-3..3}}"
            )
        kind = cols[2].strip()
        if kind not in CUE_KINDS:
            raise DataError(f"lexicon line {lineno}: unknown kind {kind!r}")
        entries.append(LexiconEntry(pattern=pattern, score=score, kind=kind))
    return Lexicon(entries)


def default_lexicon() -> Lexicon:
    """The lexicon shipped with the package."""
    return load_lexicon(_data_path("lexicon.tsv"))


def _data_path(name: str) -> Path:
    return Path(__file__).parent / "data" / name


_SENTENCE_SPLIT = re.compile(r"[.!?]|\n+")


def split_sentences(report_text: str) -> list[str]:
    """Lowercased sentences split on '.', '!', '?' and newline runs.

    Whitespace runs collapse to single spaces; empty segments are dropped.
    """
    text = report_text.replace("\r\n", "\n").replace("\r", "\n")
    sentences = []
    for part in _SENTENCE_SPLIT.split(text):
        sentence = " ".join(part.lower().split())
        if sentence:
            sentences.append(sentence)
    return sentences


def score_mention(
    sentence: str, mention_offset: int, lexicon: Lexicon
) -> tuple[int, str | None]:
    """Score one diagnosis mention inside an (already lowercased) sentence.

    The cue whose start offset is nearest the mention start wins; ties go to
    the higher-precedence (longer, then earlier-listed) pattern.  No cue in
    the sentence means an unmodified affirmative statement: +3.
    """
    hits = lexicon.matches(sentence)
    if not hits:
        return AFFIRMATIVE_DEFAULT_SCORE, None
    best = min(hits, key=lambda h: (abs(h[0] - mention_offset), h[2]))
    return best[3].score, best[3].pattern


def _vocabulary_matches(sentence: str, vocab_compiled) -> list[tuple[int, str]]:
    """Mention occurrences as (offset, phrase), longest phrase claiming first."""
    claimed: list[tuple[int, int]] = []
    found = []
    for regex, phrase in vocab_compiled:
        for m in regex.finditer(sentence):
            span = (m.start(), m.end())
            if any(span[0] < c[1] and c[0] < span[1] for c in claimed):
                continue
            claimed.append(span)
            found.append((m.start(), phrase))
    found.sort()
    return found


def compile_vocabulary(vocabulary: list[str]) -> list[tuple[re.Pattern, str]]:
    """Pre-compile word-boundary matchers, longest phrase first."""
    ordered = sorted(vocabulary, key=lambda p: -len(p))
    return [(_word_regex(p), p) for p in ordered]


def extract_findings(
    report_text: str, lexicon: Lexicon, vocabulary: list[str]
) -> list[ExtractedFinding]:
    """All scored diagnosis mentions of a report, in reading order.

    Each word-boundary occurrence of a vocabulary phrase yields one finding;
    duplicates across sentences are the caller's business (the dataset
    builder merges them).
    """
    vocab_compiled = compile_vocabulary(vocabulary)
    findings = []
    for index, sentence in enumerate(split_sentences(report_text)):
        for offset, phrase in _vocabulary_matches(sentence, vocab_compiled):
            u, cue = score_mention(sentence, offset, lexicon)
            findings.append(
                ExtractedFinding(raw_phrase=phrase, sentence_index=index, u=u, cue=cue)
            )
    return findings
