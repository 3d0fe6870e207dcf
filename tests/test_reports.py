"""Tests for sentence splitting, lexicon handling, and mention scoring."""

import io
import re
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corpus_util import SIGN_SEPARATORS, sign_error_grid
from glsmooth.errors import DataError
from glsmooth.reports import (
    AFFIRMATIVE_DEFAULT_SCORE,
    CUE_KINDS,
    ExtractedFinding,
    Lexicon,
    LexiconEntry,
    _claimed,
    _word_bounded,
    compile_vocabulary,
    default_lexicon,
    extract_findings,
    load_lexicon,
    score_mention,
    split_sentences,
)
from glsmooth.taxonomy import default_taxonomy


@pytest.fixture(scope="module")
def lexicon():
    return default_lexicon()


@pytest.fixture(scope="module")
def vocabulary():
    return default_taxonomy().vocabulary()


class TestSplitSentences:
    def test_period_split(self):
        assert split_sentences("No pneumothorax. Likely pneumonia.") == [
            "no pneumothorax",
            "likely pneumonia",
        ]

    def test_empty(self):
        assert split_sentences("") == []
        assert split_sentences("  \n\n  ") == []

    def test_newline_runs(self):
        assert split_sentences("Effusion\n\nis stable") == ["effusion", "is stable"]

    def test_question_and_bang(self):
        assert split_sentences("Edema? Possibly! None seen") == [
            "edema",
            "possibly",
            "none seen",
        ]

    def test_whitespace_collapse(self):
        assert split_sentences("large   pleural\teffusion") == ["large pleural effusion"]

    def test_crlf(self):
        assert split_sentences("one\r\ntwo") == ["one", "two"]


class TestLoadLexicon:
    def test_basic_line(self):
        lex = load_lexicon("likely\t2\tuncertainty_cue\n")
        assert lex.entries == [LexiconEntry("likely", 2, "uncertainty_cue")]

    def test_multiword_zero_score(self):
        lex = load_lexicon("cannot be excluded\t0\tuncertainty_cue\n")
        assert lex.entries[0].score == 0

    def test_duplicate_pattern_rejected(self):
        text = "likely\t2\tuncertainty_cue\nlikely\t1\tuncertainty_cue\n"
        with pytest.raises(DataError, match="likely"):
            load_lexicon(text)

    @pytest.mark.parametrize("repeat", ["no definite", "No  definite"])
    def test_duplicate_pattern_names_both_lines(self, repeat):
        text = f"no definite\t-2\tnegation_cue\n# note\n{repeat}\t-1\tnegation_cue\n"
        with pytest.raises(DataError) as info:
            load_lexicon(text)
        assert str(info.value) == "lexicon line 3: duplicate phrase 'no definite' (line 1)"

    def test_byte_order_mark_is_not_part_of_the_first_pattern(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("no\t-3\tnegation_cue\n", encoding="utf-8-sig")
        lex = load_lexicon(path)
        assert extract_findings("No pneumonia.", lex, ["pneumonia"]) == [
            ExtractedFinding("pneumonia", 0, -3, "no")
        ]

    def test_score_out_of_range_names_line(self):
        text = "# header\nfine\t1\tuncertainty_cue\nbroken\t7\tuncertainty_cue\n"
        with pytest.raises(DataError, match="line 3"):
            load_lexicon(text)

    def test_bad_kind(self):
        with pytest.raises(DataError, match="kind"):
            load_lexicon("likely\t2\thunch\n")

    def test_byte_stream(self):
        lex = load_lexicon(io.BytesIO(b"no\t-3\tnegation_cue\n"))
        assert len(lex) == 1

    def test_longest_first_ordering(self):
        lex = load_lexicon(
            "no\t-3\tnegation_cue\nno definite\t-2\tnegation_cue\n"
        )
        assert [e.pattern for e in lex.entries] == ["no definite", "no"]

    def test_default_lexicon_covers_every_level(self, lexicon):
        assert {e.score for e in lexicon.entries} == {-3, -2, -1, 0, 1, 2, 3}


class TestScoreMention:
    def test_simple_cue(self, lexicon):
        assert score_mention("likely pneumonia", 7, lexicon) == (2, "likely")

    def test_affirmative_default(self, lexicon):
        assert score_mention("pneumonia", 0, lexicon) == (3, None)

    def test_longer_pattern_wins_nested(self, lexicon):
        sentence = "no definite evidence of effusion"
        assert score_mention(sentence, sentence.index("effusion"), lexicon) == (
            -2,
            "no definite",
        )

    def test_nearest_cue_wins(self, lexicon):
        sentence = "no effusion but likely pneumonia"
        assert score_mention(sentence, sentence.index("pneumonia"), lexicon) == (
            2,
            "likely",
        )
        assert score_mention(sentence, sentence.index("effusion"), lexicon) == (-3, "no")

    def test_contained_cue_suppressed(self, lexicon):
        # "likely" fires inside "less likely" only as part of the longer cue
        sentence = "less likely pneumonia"
        assert score_mention(sentence, sentence.index("pneumonia"), lexicon) == (
            -1,
            "less likely",
        )

    def test_equidistant_tie_breaks_by_precedence(self):
        lex = Lexicon(
            [
                LexiconEntry("aaa", 2, "uncertainty_cue"),
                LexiconEntry("bbb", -1, "uncertainty_cue"),
            ]
        )
        # cue starts at 0 and 8, mention at 4: both are 4 away
        assert score_mention("aaa tgt bbb", 4, lex) == (2, "aaa")

    def test_no_match_inside_words(self, lexicon):
        # "not" must not fire inside "noted", "no" not inside "nodular"
        assert score_mention("nodular density noted", 0, lexicon) == (3, None)


class TestExtractedFinding:
    def test_fields_and_repr(self):
        finding = ExtractedFinding("pneumonia", 1, 2, "likely")
        assert ExtractedFinding._fields == ("raw_phrase", "sentence_index", "u", "cue")
        assert repr(finding) == (
            "ExtractedFinding(raw_phrase='pneumonia', sentence_index=1, u=2, cue='likely')"
        )

    def test_fields_cannot_be_assigned(self):
        finding = ExtractedFinding("pneumonia", 1, 2, "likely")
        with pytest.raises(AttributeError):
            finding.u = 3


class TestExtractFindings:
    def test_single_finding(self, lexicon, vocabulary):
        found = extract_findings("Findings likely represent pneumonia.", lexicon, vocabulary)
        assert [(f.raw_phrase, f.u, f.cue) for f in found] == [("pneumonia", 2, "likely")]

    def test_negated(self, lexicon, vocabulary):
        found = extract_findings("No pneumothorax.", lexicon, vocabulary)
        assert [(f.raw_phrase, f.u, f.cue) for f in found] == [("pneumothorax", -3, "no")]

    def test_sentence_indices(self, lexicon, vocabulary):
        found = extract_findings("No pneumothorax. Likely pneumonia.", lexicon, vocabulary)
        assert [(f.raw_phrase, f.sentence_index) for f in found] == [
            ("pneumothorax", 0),
            ("pneumonia", 1),
        ]

    def test_case_and_whitespace_invariance(self, lexicon, vocabulary):
        a = extract_findings("LIKELY   pneumonia.", lexicon, vocabulary)
        b = extract_findings("likely pneumonia.", lexicon, vocabulary)
        assert a == b

    def test_determinism(self, lexicon, vocabulary):
        text = "No effusion. Probable pneumonia versus atelectasis.\nEdema resolved."
        runs = [extract_findings(text, lexicon, vocabulary) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_scores_in_range(self, lexicon, vocabulary):
        text = (
            "Likely pneumonia. No definite fracture. Edema cannot be excluded. "
            "Hernia is doubtful! Scoliosis."
        )
        for finding in extract_findings(text, lexicon, vocabulary):
            assert -3 <= finding.u <= 3

    def test_repeated_mentions_one_per_occurrence(self, lexicon, vocabulary):
        found = extract_findings("Pneumonia and more pneumonia.", lexicon, vocabulary)
        assert [f.raw_phrase for f in found] == ["pneumonia", "pneumonia"]

    def test_longer_vocab_phrase_claims_span(self, lexicon):
        # custom vocabulary where one phrase embeds another
        vocab = ["effusion", "pleural effusion"]
        found = extract_findings("Small pleural effusion.", lexicon, vocab)
        assert [f.raw_phrase for f in found] == ["pleural effusion"]

    def test_empty_report(self, lexicon, vocabulary):
        assert extract_findings("", lexicon, vocabulary) == []

    def test_unmatched_sentences_contribute_nothing(self, lexicon, vocabulary):
        found = extract_findings("The patient is comfortable.", lexicon, vocabulary)
        assert found == []


def _oracle_word_regex(phrase):
    return re.compile(r"\b" + re.escape(phrase) + r"\b")


def oracle_lexicon_matches(lexicon, sentence):
    """Reference cue scan: every pattern's regex on the sentence, then an
    all-pairs containment filter."""
    compiled = [(_oracle_word_regex(e.pattern), e) for e in lexicon.entries]
    hits = []
    for idx, (regex, entry) in enumerate(compiled):
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


def _vocabulary_matches(sentence, table):
    """The mentions of one sentence scanned on its own."""
    return _claimed(table.buckets(sentence, [0]).get(0, []), table.phrases)


def oracle_vocabulary_matches(sentence, vocabulary):
    """Reference mention scan: every phrase's regex, longest phrase claiming first."""
    ordered = sorted(vocabulary, key=lambda p: -len(p))
    claimed = []
    found = []
    for regex, phrase in [(_oracle_word_regex(p), p) for p in ordered]:
        for m in regex.finditer(sentence):
            span = (m.start(), m.end())
            if any(span[0] < c[1] and c[0] < span[1] for c in claimed):
                continue
            claimed.append(span)
            found.append((m.start(), phrase))
    found.sort()
    return found


# Phrase tokens, plus filler that shares letters with them without being them
# ("nob", "ab") or touches them with punctuation ("no,"), so word boundaries
# and the substring pre-filter disagree as often as possible.
TOKENS = ["a", "b", "c", "d", "no"]
FILLER = ["x", "nob", "ab", "no,", "(a)", "-b", "c-d"]
OVERLAPPING = ["no no", "no", "a b", "b c d", "b", "c d", "no no no"]

phrases = st.one_of(
    st.sampled_from(OVERLAPPING),
    st.lists(st.sampled_from(TOKENS), min_size=1, max_size=3).map(" ".join),
)
tables = st.lists(phrases, min_size=1, max_size=7, unique=True)
sentences = st.lists(st.sampled_from(TOKENS + FILLER), max_size=14).map(" ".join)


class TestMatchersAgainstOracle:
    """The phrase table finds exactly what running every regex finds."""

    @settings(max_examples=300, deadline=None)
    @given(table=tables, scores=st.lists(st.integers(-3, 3), min_size=7, max_size=7),
           sentence=sentences)
    def test_lexicon_matches(self, table, scores, sentence):
        lexicon = Lexicon(
            [LexiconEntry(p, s, CUE_KINDS[s % 2]) for p, s in zip(table, scores)]
        )
        assert lexicon.matches(sentence) == oracle_lexicon_matches(lexicon, sentence)
        occurrences = lexicon._table.buckets(sentence, [0]).get(0, [])
        assert lexicon.matches(sentence, occurrences) == lexicon.matches(sentence)

    @settings(max_examples=300, deadline=None)
    @given(vocabulary=tables, sentence=sentences)
    def test_vocabulary_matches(self, vocabulary, sentence):
        found = _vocabulary_matches(sentence, compile_vocabulary(vocabulary))
        assert found == oracle_vocabulary_matches(sentence, vocabulary)


# Word characters (letters, digits, "_", a combining mark, a non-ASCII letter)
# and non-word ones, so every kind of boundary shows up on both sides.
BOUNDARY_ALPHABET = "ab_1\u0301é -,.(\n"


@settings(max_examples=500, deadline=None)
@given(
    phrase=st.text(alphabet=BOUNDARY_ALPHABET, max_size=4),
    sentence=st.text(alphabet=BOUNDARY_ALPHABET, max_size=16),
)
def test_word_bounded_matches_what_a_leading_boundary_matches(phrase, sentence):
    expected = [m.span() for m in _oracle_word_regex(phrase).finditer(sentence)]
    assert [m.span() for m in _word_bounded(phrase).finditer(sentence)] == expected


class TestOverlapSemantics:
    def test_self_overlapping_cue(self):
        no_no = LexiconEntry("no no", -1, "negation_cue")
        no = LexiconEntry("no", -3, "negation_cue")
        assert Lexicon([no, no_no]).matches("no no no") == [(0, 5, 0, no_no), (6, 8, 1, no)]

    def test_partially_overlapping_cues_are_both_kept(self):
        ab = LexiconEntry("a b", 1, "uncertainty_cue")
        bcd = LexiconEntry("b c d", -1, "negation_cue")
        assert Lexicon([ab, bcd]).matches("a b c d") == [(2, 7, 0, bcd), (0, 3, 1, ab)]

    def test_longest_vocabulary_phrase_claims_overlap(self):
        table = compile_vocabulary(["a b", "b c d"])
        assert _vocabulary_matches("a b c d", table) == [(2, "b c d")]

    def test_equal_length_phrases_claim_in_caller_order(self):
        # the memo key is the caller's order, not the set of phrases
        assert _vocabulary_matches("a b c", compile_vocabulary(["a b", "b c"])) == [(0, "a b")]
        assert _vocabulary_matches("a b c", compile_vocabulary(["b c", "a b"])) == [(2, "b c")]

    def test_each_vocabulary_gets_its_own_matches(self, lexicon):
        text = "Small pleural effusion."
        short = extract_findings(text, lexicon, ["effusion"])
        long = extract_findings(text, lexicon, ["effusion", "pleural effusion"])
        assert [f.raw_phrase for f in short] == ["effusion"]
        assert [f.raw_phrase for f in long] == ["pleural effusion"]
        assert [f.raw_phrase for f in extract_findings(text, lexicon, ["effusion"])] == [
            "effusion"
        ]


# ---------------------------------------------------------------------------
# Reference parser: the splitter and the per-sentence, full-table scan that
# the one scan per report replaced.  That scan must change no finding.


def oracle_split_sentences(report_text):
    """Line breaks made '\\n' first, then split on '.', '!', '?' and newline runs."""
    text = report_text.replace("\r\n", "\n").replace("\r", "\n")
    sentences = []
    for part in re.split(r"[.!?]|\n+", text):
        sentence = " ".join(part.lower().split())
        if sentence:
            sentences.append(sentence)
    return sentences


def oracle_extract_findings(report_text, lexicon, vocabulary):
    """Every sentence runs every vocabulary regex, every mention every cue regex."""
    findings = []
    for index, sentence in enumerate(oracle_split_sentences(report_text)):
        for offset, phrase in oracle_vocabulary_matches(sentence, vocabulary):
            hits = oracle_lexicon_matches(lexicon, sentence)
            if hits:
                best = min(hits, key=lambda h: (abs(h[0] - offset), h[2]))
                u, cue = best[3].score, best[3].pattern
            else:
                u, cue = AFFIRMATIVE_DEFAULT_SCORE, None
            findings.append(
                ExtractedFinding(raw_phrase=phrase, sentence_index=index, u=u, cue=cue)
            )
    return findings


# Phrases the Python API accepts as they are: punctuation at either end or
# inside, upper case (never found in a lowercased sentence), and a newline,
# which no sentence holds but the newline-joined report text does.
PUNCTUATED = ["no,", "(a)", "a-b", "c-d", "b)", "a, b", "-b", "a.b", "A", "NO", "a\nb", "d\nno"]
api_phrases = st.one_of(phrases, st.sampled_from(PUNCTUATED))
REPORT_TOKENS = TOKENS + FILLER + ["A", "NO", "B-C", "(A)", "a,", "b)"]
# Sentence ends: each puts the next sentence in another segment of the split.
SEPARATORS = [". ", ".", "! ", "? ", "\n", "\r\n", "\r", ".\n", " . ", "\n\n", "..."]


@st.composite
def reports(draw):
    sentences = draw(
        st.lists(st.lists(st.sampled_from(REPORT_TOKENS), max_size=8).map(" ".join), max_size=5)
    )
    if sentences:
        # the same sentence again elsewhere in the report: one text, two buckets
        repeats = draw(st.lists(st.sampled_from(sentences), max_size=2))
        sentences = draw(st.permutations(sentences + repeats))
    text = ""
    for sentence in sentences:
        text += sentence + draw(st.sampled_from(SEPARATORS))
    return draw(st.sampled_from(["", " ", "\t"])) + text


def _state(lexicon):
    """A lexicon's attributes, with its entry list and phrase table's attributes copied."""
    return dict(vars(lexicon)), list(lexicon.entries), dict(vars(lexicon._table))


class TestReportScanAgainstOracle:
    """One scan of a report's joined sentences finds what scanning each sentence finds."""

    @settings(max_examples=300, deadline=None)
    @given(
        cues=st.lists(api_phrases, max_size=8, unique=True),
        scores=st.lists(st.integers(-3, 3), min_size=8, max_size=8),
        vocabulary=st.lists(api_phrases, max_size=8),
        report=reports(),
        other=reports(),
    )
    def test_extract_findings(self, cues, scores, vocabulary, report, other):
        lexicon = Lexicon([LexiconEntry(p, s, CUE_KINDS[s % 2]) for p, s in zip(cues, scores)])
        lexicon_before = _state(lexicon)
        table = compile_vocabulary(vocabulary)
        table_before = dict(vars(table))
        found = extract_findings(report, lexicon, vocabulary)
        assert found == oracle_extract_findings(report, lexicon, vocabulary)
        # the shared lexicon and the memoised table keep no trace of the report
        assert _state(lexicon) == lexicon_before
        assert compile_vocabulary(vocabulary) is table
        assert vars(table) == table_before
        for sentence in oracle_split_sentences(other):
            assert lexicon.matches(sentence) == oracle_lexicon_matches(lexicon, sentence)

    @settings(max_examples=150, deadline=None)
    @given(text=st.one_of(reports(), st.text(alphabet="aAΣσς .!?\r\n\t\u0130\u2028", max_size=20)))
    def test_split_sentences(self, text):
        assert split_sentences(text) == oracle_split_sentences(text)

    def test_phrase_only_in_another_sentence(self, lexicon, vocabulary):
        # "likely" is in the report but not in the pneumothorax sentence
        text = "No pneumothorax. Likely pneumonia."
        assert extract_findings(text, lexicon, vocabulary) == oracle_extract_findings(
            text, lexicon, vocabulary
        )
        assert [f.cue for f in extract_findings(text, lexicon, vocabulary)] == ["no", "likely"]

    def test_phrase_spanning_a_sentence_join(self):
        # "b\nno" is in the newline-joined text, but in no sentence: no finding, no cue
        lexicon = Lexicon([LexiconEntry("b\nno", -3, "negation_cue")])
        assert extract_findings("A b. No a.", lexicon, ["a", "b\nno"]) == [
            ExtractedFinding("a", 0, 3, None),
            ExtractedFinding("a", 1, 3, None),
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        cues=st.lists(api_phrases, min_size=1, max_size=8, unique=True),
        text=st.lists(st.sampled_from(["a", "b", "d", "no", " ", "\n"]), max_size=12).map("".join),
    )
    @example(cues=["a\nb", "b"], text="a\nb")
    def test_cue_with_a_newline_never_matches(self, cues, text):
        # Such a cue lies in no sentence, so matches skips it as extract_findings
        # does: the hits are those of the lexicon without it.
        hits = Lexicon([LexiconEntry(p, 1, CUE_KINDS[0]) for p in cues]).matches(text)
        expected = Lexicon([LexiconEntry(p, 1, CUE_KINDS[0]) for p in cues if "\n" not in p])
        assert [(s, e, entry) for s, e, _, entry in hits] == [
            (s, e, entry) for s, e, _, entry in expected.matches(text)
        ]


# Reports give sizes as decimals; the old splitter (oracle_split_sentences)
# cut "No 1.5 cm calcification." into "no 1" and "5 cm calcification".
DECIMAL_POINT = re.compile(r"(?<=[0-9])\.(?=[0-9])")
SPLITTER_TEXT = st.text(alphabet="a0123456789 .!?\n", max_size=30)


class TestDecimalPoints:
    def test_decimal_point_is_not_a_boundary(self):
        assert split_sentences("No 1.5 cm calcification.") == ["no 1.5 cm calcification"]
        assert split_sentences("Stable since 2019. No pneumothorax.") == [
            "stable since 2019",
            "no pneumothorax",
        ]
        assert split_sentences("1.2.3. 4..5 6.a") == ["1.2.3", "4", "5 6", "a"]

    @settings(max_examples=300, deadline=None)
    @given(text=SPLITTER_TEXT)
    @example(text="no 1.5 cm")
    def test_never_cuts_between_two_digits(self, text):
        # With each decimal point masked, the old rule gives the same sentences.
        masked = oracle_split_sentences(DECIMAL_POINT.sub("§", text))
        assert split_sentences(text) == [sentence.replace("§", ".") for sentence in masked]

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(reports(), SPLITTER_TEXT))
    def test_old_rule_without_a_decimal_point(self, text):
        text = DECIMAL_POINT.sub(" ", text)
        assert split_sentences(text) == oracle_split_sentences(text)

    @settings(max_examples=200, deadline=None)
    @given(
        cue=st.sampled_from([entry.pattern for entry in default_lexicon().entries]),
        mention=st.sampled_from(default_taxonomy().vocabulary()),
        cue_first=st.booleans(),
        whole=st.integers(0, 999),
        fraction=st.integers(0, 99),
    )
    def test_measurement_between_cue_and_mention_keeps_u(
        self, lexicon, vocabulary, cue, mention, cue_first, whole, fraction
    ):
        def sentence(between):
            words = [cue, between, mention] if cue_first else [mention, between, cue]
            return " ".join(word for word in words if word)

        def found(text):
            findings = extract_findings(text.capitalize() + ".", lexicon, vocabulary)
            return [(f.raw_phrase, f.u, f.cue) for f in findings]

        plain = found(sentence(""))
        # one mention, scored by the drawn cue, the only cue in the sentence
        assume(len(plain) == 1 and plain[0][2] == cue)
        assume(len(lexicon.matches(sentence(""))) == 1)
        assert found(sentence(f"{whole}.{fraction} cm")) == plain


# Abbreviations end no sentence: the old splitter cut "Possible pneumonia vs.
# atelectasis." after "vs", and atelectasis lost its cue.  Each listed
# abbreviation is found at every start, so that overlapping ones ("i.e.g.") count.
ABBREVIATION_AT = re.compile(r"(?=(\b(?:vs|e\.g|i\.e|approx)\.))", re.IGNORECASE)
ABBREVIATION_TEXT = st.lists(
    st.sampled_from(["vs", "VS", "e", "E", "g", "i", "approx", "Approx", "xvs", "a", "1",
                     " ", ".", ". ", "!", "\n"]),
    max_size=12,
).map("".join)


def kept_dots(text):
    """Positions of the '.'s that end no sentence: decimal points and abbreviations' dots."""
    kept = {match.start() for match in DECIMAL_POINT.finditer(text)}
    for match in ABBREVIATION_AT.finditer(text):
        kept.update(i for i in range(*match.span(1)) if text[i] == ".")
    return kept


class TestAbbreviations:
    def test_abbreviation_is_not_a_boundary(self):
        assert split_sentences("Possible pneumonia vs. atelectasis.") == [
            "possible pneumonia vs. atelectasis"
        ]
        assert split_sentences("Approx. 2.5 cm. E.G. this, I.E. that. VS. No") == [
            "approx. 2.5 cm",
            "e.g. this, i.e. that",
            "vs. no",
        ]
        # Only the listed words, each from a word start, with every dot.
        assert split_sentences("Canvs. Vitamin e. Xi.e. E.gg. Vs") == [
            "canvs", "vitamin e", "xi", "e", "e", "gg", "vs"
        ]

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(ABBREVIATION_TEXT, SPLITTER_TEXT))
    @example(text="i.e.g. vs.x")
    def test_never_cuts_inside_an_abbreviation(self, text):
        # With each kept '.' masked, the old rule gives the same sentences.
        kept = kept_dots(text)
        masked = oracle_split_sentences(
            "".join("§" if i in kept else char for i, char in enumerate(text))
        )
        assert split_sentences(text) == [sentence.replace("§", ".") for sentence in masked]

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(reports(), ABBREVIATION_TEXT, SPLITTER_TEXT))
    def test_old_rule_without_an_abbreviation_or_a_decimal_point(self, text):
        # A space for each kept '.' leaves text with neither, where the old
        # rule is the oracle.
        kept = kept_dots(text)
        text = "".join(" " if i in kept else char for i, char in enumerate(text))
        assert not kept_dots(text)
        assert split_sentences(text) == oracle_split_sentences(text)


def _sign(u: int) -> int:
    return (u > 0) - (u < 0)


class TestSignErrorGrid:
    """How often a mention's parsed u differs from the u its own clause plants.

    The counts below are known limits, not goals: the nearest cue by offset
    reaches across ";", ",", "but", "however" and "and" into the other
    clause.  A change of cue scope that moves them declares each count as a
    correction.
    """

    def test_sign_error_grid_known_limits(self, lexicon, vocabulary, capsys):
        counts = {sep: Counter() for sep in ("all", *SIGN_SEPARATORS)}
        for text, planted in sign_error_grid():
            parsed = {f.raw_phrase: f.u for f in extract_findings(text, lexicon, vocabulary)}
            for finding, u, _, sep in planted:
                got = parsed.get(finding)
                outcome = Counter(mentions=1)
                if got is None:
                    outcome["missed"] = 1
                else:
                    outcome["wrong sign"] = _sign(got) != _sign(u)
                    outcome["wrong u"] = got != u
                    outcome["affirmed to negative"] = u > 0 > got
                counts["all"].update(outcome)
                counts[sep].update(outcome)
        columns = ("mentions", "missed", "wrong sign", "wrong u", "affirmed to negative")
        with capsys.disabled():
            print("\nseparator\t" + "\t".join(columns))
            for sep, row in counts.items():
                print(f"{sep!r}\t" + "\t".join(str(row[c]) for c in columns))
        assert {c: counts["all"][c] for c in columns} == {
            "mentions": 67_200, "missed": 0, "wrong sign": 7_691, "wrong u": 10_565,
            "affirmed to negative": 5_670,
        }
        assert {sep: counts[sep]["wrong sign"] for sep in SIGN_SEPARATORS} == {
            ". ": 0, "; ": 1_678, ", ": 1_678, " but ": 1_488, "; however ": 1_359, " and ": 1_488,
        }
