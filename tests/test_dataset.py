"""Tests for the dataset builder and validator."""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus_util import make_reports
from glsmooth import dataset
from glsmooth.cli import main
from glsmooth.dataset import (
    MAX_REPORTED_PROBLEMS,
    _REPORT_FIELDS,
    _REQUIRED_FIELDS,
    DatasetStats,
    LabeledRecord,
    ReportRecord,
    build_dataset,
    build_dataset_file,
    read_report_file,
    record_to_line,
    stats_path_for,
    validate_dataset,
    write_dataset,
)
from glsmooth.errors import DataError
from glsmooth.reports import default_lexicon
from glsmooth.smoothing import (
    DEFAULT_PARAMS,
    SCORE_LEVELS,
    SmoothingParams,
    effective_label,
    gls_target,
    smoothing_rate,
)
from glsmooth.taxonomy import CATEGORY_NAMES, DiseaseCategory, default_taxonomy
from test_fileio import NOT_UTF8, oracle_jsonl_records

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def lexicon():
    return default_lexicon()


@pytest.fixture(scope="module")
def taxonomy():
    return default_taxonomy()


def one_report(text, study="s1", patient="p1"):
    return [ReportRecord(patient_id=patient, study_id=study, text=text)]


def report_records(n, seed):
    return [ReportRecord(**r) for r in make_reports(n, seed)]


class TestBuildDataset:
    def test_two_findings_two_records(self, lexicon, taxonomy):
        labeled, stats = build_dataset(
            one_report("Likely pneumonia. No pneumothorax."), lexicon, taxonomy
        )
        assert [(r.category, r.y, r.u) for r in labeled] == [
            (DiseaseCategory.PNEUMONIA, 1, 2),
            (DiseaseCategory.PNEUMOTHORAX, 1, -3),
        ]
        assert labeled[0].r == pytest.approx(1 / 6)
        assert labeled[1].r == pytest.approx(-0.25)
        assert stats.record_count == 2

    def test_merge_keeps_largest_magnitude(self, lexicon, taxonomy):
        labeled, _ = build_dataset(
            one_report("Possible pneumonia. Pneumonia."), lexicon, taxonomy
        )
        assert [(r.category, r.u) for r in labeled] == [(DiseaseCategory.PNEUMONIA, 3)]

    def test_merge_tie_goes_positive(self, lexicon, taxonomy):
        labeled, _ = build_dataset(
            one_report("No definite pneumonia. Likely pneumonia."), lexicon, taxonomy
        )
        assert [(r.category, r.u) for r in labeled] == [(DiseaseCategory.PNEUMONIA, 2)]

    def test_same_category_different_phrases_merge(self, lexicon, taxonomy):
        labeled, _ = build_dataset(
            one_report("Pleural effusion. Blunting of the costophrenic angle."),
            lexicon,
            taxonomy,
        )
        assert [(r.category, r.u) for r in labeled] == [(DiseaseCategory.EFFUSION, 3)]

    def test_empty_text_no_records(self, lexicon, taxonomy):
        labeled, stats = build_dataset(one_report(""), lexicon, taxonomy)
        assert labeled == []
        assert stats.record_count == 0

    def test_duplicate_study_id_hard_error(self, lexicon, taxonomy):
        records = one_report("Pneumonia.", study="dup") + one_report(
            "Edema.", study="dup"
        )
        with pytest.raises(DataError, match="dup"):
            build_dataset(records, lexicon, taxonomy)

    def test_malformed_record_collected(self, tmp_path, lexicon, taxonomy):
        records = [
            {"patient_id": "p1", "study_id": "s1", "text": "Pneumonia."},
            {"study_id": "s2", "text": "Edema."},
            {"patient_id": "", "study_id": "s3", "text": "Edema."},
        ]
        src = tmp_path / "reports.jsonl"
        src.write_text("".join(json.dumps(r) + "\n" for r in records))
        labeled, stats = build_dataset(read_report_file(src), lexicon, taxonomy)
        assert stats.record_count == 1
        assert stats.malformed_records == [
            "line 2: missing field(s) patient_id",
            "line 3: empty patient_id",
        ]

    @pytest.mark.parametrize(
        "fields, message",
        [
            (("p1", "s1", None), "field 'text' must be a string"),
            ((7, "s1", "Edema."), "field 'patient_id' must be a string"),
            (("p1", ["s1"], 3), "field 'study_id' must be a string"),
            (("", "s1", "Edema."), "empty patient_id"),
            (("p1", "", "Edema."), "empty study_id"),
        ],
    )
    def test_report_record_checks_itself(self, fields, message):
        with pytest.raises(DataError) as exc:
            ReportRecord(*fields)
        assert str(exc.value) == message

    def test_emitted_records_satisfy_kernel_invariants(self, lexicon, taxonomy):
        labeled, _ = build_dataset(
            [
                ReportRecord("p1", f"s{i}", text)
                for i, text in enumerate(
                    ["Likely edema. No fracture.", "Scoliosis versus hernia.", "Pneumonia!"]
                )
            ],
            lexicon,
            taxonomy,
        )
        for rec in labeled:
            assert rec.y == 1
            assert -3 <= rec.u <= 3
            assert rec.r == pytest.approx(smoothing_rate(rec.u))
            assert rec.target_neg + rec.target_pos == pytest.approx(1.0, abs=1e-12)

    def test_stats_sum_to_record_count(self, lexicon, taxonomy):
        labeled, stats = build_dataset(report_records(100, seed=5), lexicon, taxonomy)
        assert sum(stats.per_category_counts.values()) == stats.record_count
        assert sum(stats.per_score_counts.values()) == stats.record_count
        assert stats.record_count == len(labeled)

    def test_order_independence(self, lexicon, taxonomy):
        reports = report_records(200, seed=9)
        forward, _ = build_dataset(reports, lexicon, taxonomy)
        backward, _ = build_dataset(list(reversed(reports)), lexicon, taxonomy)
        assert forward == backward

    def test_merge_idempotence(self, lexicon, taxonomy):
        text = "Possible pneumonia. No edema."
        once, _ = build_dataset(one_report(text), lexicon, taxonomy)
        doubled, _ = build_dataset(one_report(text + " " + text), lexicon, taxonomy)
        assert [(r.category, r.u) for r in once] == [(r.category, r.u) for r in doubled]


class TestWriteAndValidate:
    def test_round_trip(self, tmp_path, lexicon, taxonomy):
        labeled, stats = build_dataset(report_records(50, seed=3), lexicon, taxonomy)
        out = tmp_path / "ds.jsonl"
        write_dataset(labeled, stats, out)
        revalidated = validate_dataset(out)
        assert revalidated.record_count == stats.record_count
        assert revalidated.per_category_counts == stats.per_category_counts
        assert revalidated.per_score_counts == stats.per_score_counts

    def test_line_format_six_decimals(self, lexicon, taxonomy):
        labeled, _ = build_dataset(one_report("No pneumothorax."), lexicon, taxonomy)
        line = record_to_line(labeled[0])
        assert '"r": -0.250000' in line
        assert '"target_neg": 1.125000' in line
        assert '"target_pos": -0.125000' in line
        parsed = json.loads(line)
        assert parsed["study_id"] == "s1"
        assert parsed["cue"] == "no"

    def test_corrupted_r_cites_line_and_expected(self, tmp_path, lexicon, taxonomy):
        labeled, stats = build_dataset(
            one_report("Likely pneumonia. No edema."), lexicon, taxonomy
        )
        out = tmp_path / "ds.jsonl"
        write_dataset(labeled, stats, out)
        lines = out.read_text().splitlines()
        lines[1] = lines[1].replace('"r": 0.166667', '"r": 0.200000')
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"line 2.*0\.166667"):
            validate_dataset(out)

    def test_unknown_category_schema_error(self, tmp_path):
        out = tmp_path / "ds.jsonl"
        out.write_text(
            '{"study_id": "s1", "category": "Sniffles", "y": 1, "u": 0, '
            '"r": 1.000000, "target_neg": 0.500000, "target_pos": 0.500000, '
            '"cue": null}\n'
        )
        with pytest.raises(DataError, match="category"):
            validate_dataset(out)

    def test_corrupted_target_detected(self, tmp_path, lexicon, taxonomy):
        labeled, stats = build_dataset(one_report("Pneumonia."), lexicon, taxonomy)
        out = tmp_path / "ds.jsonl"
        write_dataset(labeled, stats, out)
        text = out.read_text().replace('"target_pos": 1.125000', '"target_pos": 1.100000')
        out.write_text(text)
        with pytest.raises(DataError, match="target"):
            validate_dataset(out)

    def test_build_dataset_file(self, tmp_path, lexicon, taxonomy):
        src = tmp_path / "reports.jsonl"
        with open(src, "w") as fh:
            for rec in make_reports(20, seed=1):
                fh.write(json.dumps(rec) + "\n")
            fh.write("this is not json\n")
        out = tmp_path / "ds.jsonl"
        stats = build_dataset_file(src, out, lexicon, taxonomy)
        assert out.exists()
        assert stats_path_for(out).exists()
        assert len(stats.malformed_records) == 1
        sidecar = json.loads(stats_path_for(out).read_text())
        assert sidecar["record_count"] == stats.record_count
        assert sidecar["malformed_record_count"] == 1
        validate_dataset(out)

    def test_sidecar_lists_malformed_lines_in_line_order(self, tmp_path, lexicon, taxonomy):
        src = tmp_path / "reports.jsonl"
        lines = [json.dumps(r) for r in make_reports(8, seed=2)]
        src.write_text("\n".join(lines[:1] + ["5"] + lines[1:] + ["5"]) + "\n")
        out = tmp_path / "ds.jsonl"
        build_dataset_file(src, out, lexicon, taxonomy)
        # "line 10" sorts before "line 2" as a string
        assert json.loads(stats_path_for(out).read_text())["malformed_records"] == [
            "line 2: expected a JSON object",
            "line 10: expected a JSON object",
        ]

    def test_sidecar_cites_input_lines(self, tmp_path, lexicon, taxonomy):
        first, last = (json.dumps(rec) for rec in make_reports(2, seed=1))
        src = tmp_path / "reports.jsonl"
        lines = [first, "{oops", "", '{"patient_id": "p9", "text": "Edema."}', "5", last]
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "ds.jsonl"
        build_dataset_file(src, out, lexicon, taxonomy)
        assert json.loads(stats_path_for(out).read_text())["malformed_records"] == [
            "line 2: invalid record (Expecting property name enclosed in double quotes)",
            "line 4: missing field(s) study_id",
            "line 5: expected a JSON object",
        ]


_CLEAN_LINES = [json.dumps(rec) for rec in make_reports(20, seed=6)]

_NOISE_LINES = st.sampled_from(
    [
        "",
        "   ",
        "{oops",
        "not json",
        "5",
        "[1, 2]",
        "null",
        '{"study_id": "x1", "text": "Edema."}',
        '{"patient_id": "", "study_id": "x2", "text": "Edema."}',
    ]
)


@pytest.fixture(scope="module")
def clean_build(tmp_path_factory, lexicon, taxonomy):
    work = tmp_path_factory.mktemp("streaming")
    src = work / "clean.jsonl"
    src.write_text("\n".join(_CLEAN_LINES) + "\n")
    build_dataset_file(src, work / "clean.out", lexicon, taxonomy)
    return work, (work / "clean.out").read_bytes()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, len(_CLEAN_LINES)), _NOISE_LINES), max_size=8
    )
)
def test_noise_lines_only_add_malformed_entries(clean_build, lexicon, taxonomy, insertions):
    work, clean_bytes = clean_build
    lines = list(_CLEAN_LINES)
    for position, noise in insertions:
        lines.insert(position, noise)
    src, out = work / "noisy.jsonl", work / "noisy.out"
    src.write_text("\n".join(lines) + "\n")
    build_dataset_file(src, out, lexicon, taxonomy)
    assert out.read_bytes() == clean_bytes
    sidecar = json.loads(stats_path_for(out).read_text())
    assert sidecar["malformed_record_count"] == sum(1 for _, n in insertions if n.strip())


# ---------------------------------------------------------------------------
# validate_dataset checks whole blocks of written lines at once.  The oracle
# is the line-by-line body it had before: every file must give the same stats
# (with the same key order) or the same error text.


def oracle_expected_text(params, y, u):
    """The r, target_neg and target_pos a dataset line holds for (y, u), six decimals each."""
    r = smoothing_rate(u, params)
    neg, pos = gls_target(effective_label(y, u), r)
    return f"{r:.6f}", f"{float(neg):.6f}", f"{float(pos):.6f}"


def oracle_validate_dataset(path, params=DEFAULT_PARAMS):
    known = set(CATEGORY_NAMES)
    stats = DatasetStats()
    per_category, per_score = stats.per_category_counts, stats.per_score_counts
    problems: list[str] = []
    try:
        for lineno, rec in oracle_jsonl_records(path, _REQUIRED_FIELDS):
            if isinstance(rec, DataError):
                problems.append(str(rec))
                continue
            name, y, u = rec["category"], rec["y"], rec["u"]
            if name not in known:
                problems.append(f"line {lineno}: unknown category {name!r}")
                continue
            expected_r, expected_neg, expected_pos = oracle_expected_text(params, y, u)
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


def validate_outcome(validate, path, params):
    """The stats with their key order, or the error's type and text."""
    try:
        stats = validate(path, params)
    except DataError as exc:
        return type(exc).__name__, str(exc)
    return stats, list(stats.per_category_counts.items()), list(stats.per_score_counts.items())


GOLDEN_LINES = (DATA_DIR / "build_golden.jsonl").read_text().splitlines()

# The default slope and 0.375 (the two golden files); 1/3, whose |u| = 3 rate
# and target are 0.000000; and an intercept under 1, so that no rate is 1.
PARAMS = [
    DEFAULT_PARAMS,
    SmoothingParams(k=Fraction(3, 8)),
    SmoothingParams(k=Fraction(1, 3)),
    SmoothingParams(r0=Fraction(1, 2)),
]


def written_lines(params):
    """The golden records as build writes them with ``params``."""
    lines = []
    for line in GOLDEN_LINES:
        rec = json.loads(line)
        r = smoothing_rate(rec["u"], params)
        neg, pos = gls_target(effective_label(rec["y"], rec["u"]), r)
        labeled = LabeledRecord(
            rec["study_id"], DiseaseCategory(rec["category"]), rec["y"], rec["u"],
            r, float(neg), float(pos), rec["cue"],
        )
        lines.append(record_to_line(labeled))
    return lines


def test_written_lines_are_the_golden_files():
    assert written_lines(DEFAULT_PARAMS) == GOLDEN_LINES
    k0375 = (DATA_DIR / "build_golden.k0375.jsonl").read_text().splitlines()
    assert written_lines(PARAMS[1]) == k0375


class TestLabeledRecord:
    def record(self, **changes):
        fields = dict(study_id="s1", category=DiseaseCategory.PNEUMONIA, y=1, u=3,
                      r=-0.25, target_neg=-0.125, target_pos=1.125, cue=None)
        return LabeledRecord(**{**fields, **changes})

    def test_fields_and_repr(self):
        assert LabeledRecord._fields == (
            "study_id", "category", "y", "u", "r", "target_neg", "target_pos", "cue"
        )
        assert repr(self.record()) == (
            "LabeledRecord(study_id='s1', category=<DiseaseCategory.PNEUMONIA: 'Pneumonia'>, "
            "y=1, u=3, r=-0.25, target_neg=-0.125, target_pos=1.125, cue=None)"
        )

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            self.record().u = 2

    def test_number_text_memo_keeps_the_sign_of_zero(self):
        # 0.0 == -0.0, so one memo entry would serve both
        zero = record_to_line(self.record(u=0, r=0.0, target_neg=0.0, target_pos=1.0))
        negative_zero = record_to_line(self.record(u=0, r=-0.0, target_neg=-0.0, target_pos=1.0))
        assert '"r": 0.000000, "target_neg": 0.000000' in zero
        assert '"r": -0.000000, "target_neg": -0.000000' in negative_zero

    def test_number_text_memo_keeps_the_type(self):
        # True == 1 and 1.0 == 1, but each prints its own way
        assert '"y": True, "u": 3,' in record_to_line(self.record(y=True))
        assert '"y": 1, "u": 3.0,' in record_to_line(self.record(u=3.0))
        assert '"y": 1, "u": 3,' in record_to_line(self.record())


_NUMBER_FIELD = re.compile(r'"(r|target_neg|target_pos)": (-?[0-9.]+)')


def _number(line, pick, edit):
    """``line`` with one of its rate and target texts (chosen by ``pick``) edited."""
    found = _NUMBER_FIELD.findall(line)
    if not found:
        return line
    key, text = found[pick % len(found)]
    return line.replace(f'"{key}": {text}', f'"{key}": {edit(text)}', 1)


def _shortest(text):
    return text.rstrip("0").rstrip(".") or "0"


def _signed_zero(text):
    if float(text) == 0:
        return "0.000000" if text.startswith("-") else "-0.000000"
    return text[1:] if text.startswith("-") else "-" + text


def _off_by_one_ulp_of_text(text):
    return text[:-1] + ("1" if text[-1] == "0" else "0")


def _escape_first(text):
    """A JSON string's text with its first character written as a \\u escape."""
    if not text.startswith('"') or len(text) < 3:
        return text
    return f'"\\u{ord(text[1]):04x}{text[2:]}'


def _key(line, key, edit):
    match = re.search(rf'"{key}": ("(?:[^"\\]|\\.)*"|null|-?[0-9]+)', line)
    return line if match is None else line.replace(match.group(0), f'"{key}": {edit(match.group(1))}', 1)


# Edits of one line (without its newline); ``pick`` chooses among fields.
LINE_EDITS = {
    "0.25 form": lambda line, pick: _number(line, pick, _shortest),
    "seventh decimal": lambda line, pick: _number(line, pick, lambda t: t + "0"),
    "signed zero": lambda line, pick: _number(line, pick, _signed_zero),
    "wrong target": lambda line, pick: _number(line, pick, _off_by_one_ulp_of_text),
    "integral number": lambda line, pick: _number(
        line, pick, lambda t: str(int(float(t))) if float(t).is_integer() else t
    ),
    "escaped category": lambda line, pick: _key(line, "category", _escape_first),
    "unknown category": lambda line, pick: _key(
        line, "category", lambda v: ['"Sniffles"', v.lower(), '"Pneumonia "'][pick % 3]
    ),
    "numeric study_id": lambda line, pick: _key(line, "study_id", lambda v: str(pick)),
    "numeric cue": lambda line, pick: _key(line, "cue", lambda v: str(pick)),
    "escaped cue": lambda line, pick: _key(line, "cue", _escape_first),
    "u sign flipped": lambda line, pick: _key(
        line, "u", lambda v: v[1:] if v.startswith("-") else "-" + v  # 0 becomes -0
    ),
    "u out of range": lambda line, pick: _key(line, "u", lambda v: ["4", "-4", "1.0"][pick % 3]),
    "y out of range": lambda line, pick: _key(line, "y", lambda v: ["0", "2", "true"][pick % 3]),
    "padded": lambda line, pick: [" " + line, line + " ", "\t" + line + "\t"][pick % 3],
    "CRLF": lambda line, pick: line + "\r",
    "blank line": lambda line, pick: line + "\n" + ["", " ", "\t"][pick % 3],
    "duplicated key": lambda line, pick: [
        line.replace("{", '{"u": 0, ', 1),
        line[:-1] + ', "y": 1}',
        line[:-1] + ', "category": "Sniffles"}',
    ][pick % 3],
    "extra field": lambda line, pick: line[:-1] + ', "note": "x"}',
    "compact": lambda line, pick: line.replace(", ", ",").replace(": ", ":"),
    "not JSON": lambda line, pick: line[: pick % (len(line) + 1)],
}


@st.composite
def dataset_bytes(draw, lines):
    """A dataset file of golden lines with line edits, bad bytes, a BOM or a missing last newline."""
    every_line = draw(st.integers(0, 4)) == 0
    lines = draw(st.lists(
        st.sampled_from(lines), min_size=MAX_REPORTED_PROBLEMS + 1 if every_line else 1, max_size=60
    ))
    if every_line:
        # One edit on every line: often more than MAX_REPORTED_PROBLEMS problems.
        edit = LINE_EDITS[draw(st.sampled_from(sorted(LINE_EDITS)))]
        lines = [edit(line, draw(st.integers(0, 5))) for line in lines]
    else:
        for _ in range(draw(st.integers(0, 4))):
            at = draw(st.integers(0, len(lines) - 1))
            edit = LINE_EDITS[draw(st.sampled_from(sorted(LINE_EDITS)))]
            lines[at] = edit(lines[at], draw(st.integers(0, 5)))
    data = ("\n".join(lines) + ("\n" if draw(st.booleans()) else "")).encode("utf-8")
    extra = draw(st.sampled_from([None] * 20 + [b"\xff", b"\xc3", b"\xef\xbb\xbf"]))
    if extra is not None:
        at = 0 if extra == b"\xef\xbb\xbf" else draw(st.integers(0, len(data)))
        data = data[:at] + extra + data[at:]
    return data


@settings(max_examples=500, deadline=None)
@given(data=st.data(), params=st.sampled_from(PARAMS), block=st.sampled_from([1, 2, 3, 4, 5, 256]))
def test_block_validate_equals_line_oracle(tmp_path_factory, data, params, block):
    path = tmp_path_factory.getbasetemp() / "validate-property.jsonl"
    path.write_bytes(data.draw(dataset_bytes(written_lines(params))))
    expected = validate_outcome(oracle_validate_dataset, path, params)
    with mock.patch.object(dataset, "READ_BLOCK_LINES", block):
        assert validate_outcome(validate_dataset, path, params) == expected


# build reads its reports a block at a time.  The oracle reads them a line
# at a time, each line decoded on its own: a drawn report file must give the
# same exit code, messages, dataset and sidecar.


def oracle_read_report_file(path):
    """read_report_file over the line-by-line oracle reader."""
    for lineno, item in oracle_jsonl_records(path, _REPORT_FIELDS):
        if not isinstance(item, DataError):
            try:
                item = ReportRecord(item["patient_id"], item["study_id"], item["text"])
            except DataError as exc:
                item = DataError(f"line {lineno}: {exc}")
        yield item


def build_outcome(src, out):
    """build's exit code, stdout and stderr, then the dataset's and the sidecar's bytes or None."""
    outputs = (out, stats_path_for(out))
    for path in outputs:
        path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["build", "--input", str(src), "--out", str(out)])
    written = [path.read_bytes() if path.exists() else None for path in outputs]
    return code, stdout.getvalue(), stderr.getvalue(), *written


# Report lines whose study id "@" is filled in by ``renumbered``.
REPORTS = [json.dumps({**rec, "study_id": "@"}) for rec in make_reports(40, seed=35)]
# A line that is not JSON, one missing a field, an empty or a non-string
# field, a value that is not an object, and blank lines.
MALFORMED_REPORTS = [
    '{"patient_id": "p", "study_id": ',
    '{"patient_id": "p", "text": "Pneumonia."}',
    '{"patient_id": "p", "study_id": "", "text": "Pneumonia."}',
    '{"patient_id": "", "study_id": "x", "text": "Pneumonia."}',
    '{"patient_id": "p", "study_id": "x", "text": 7}',
    "[1, 2]", "", " ", "\t",
]


def renumbered(line, number):
    """``line`` with the study id ``s<number>`` if it is one of REPORTS."""
    return line.replace('"study_id": "@"', f'"study_id": "s{number}"', 1)


@st.composite
def report_bytes(draw):
    """Reports and malformed lines with mixed line ends, a duplicate id or a line not UTF-8."""
    lines = draw(st.lists(
        st.one_of(st.sampled_from(REPORTS), st.sampled_from(MALFORMED_REPORTS)),
        min_size=1, max_size=16,
    ))
    # Each line's study id is its own, but now and then that of line 0.
    lines = [renumbered(line, i if draw(st.integers(0, 29)) else 0)
             for i, line in enumerate(lines)]
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    encoded = [(line + end).encode("utf-8") for line, end in zip(lines, ends)]
    if draw(st.integers(0, 2)) == 0:
        at = draw(st.integers(0, len(encoded) - 1))
        cut = draw(st.integers(0, len(encoded[at])))
        encoded[at] = encoded[at][:cut] + draw(st.sampled_from(NOT_UTF8)) + encoded[at][cut:]
    return b"".join(encoded)


# 300 reports with malformed lines at 256 and 257, either side of a block
# edge; then with line 285 repeating line 1's study id and bytes that are
# not UTF-8 at line 290, so the duplicate, read first, is the error.
_EDGES = [renumbered(REPORTS[i % len(REPORTS)], i) for i in range(300)]
_EDGES[255:257] = MALFORMED_REPORTS[:2]
_DUPLICATE = [*_EDGES[:284], renumbered(REPORTS[0], 0), *_EDGES[285:289],
              _EDGES[289].replace("{", '{"note": "\udcff", ', 1), *_EDGES[290:]]


@settings(max_examples=200, deadline=None)
@given(data=report_bytes(), block=st.sampled_from([1, 2, 3, 4, 5, 256]))
@example(data="\n".join(_EDGES).encode("utf-8") + b"\n", block=256)
@example(data="\n".join(_DUPLICATE).encode("utf-8", "surrogateescape") + b"\n", block=256)
def test_block_build_equals_line_oracle(tmp_path_factory, data, block):
    work = tmp_path_factory.getbasetemp()
    src, out = work / "build-property.reports.jsonl", work / "build-property.jsonl"
    src.write_bytes(data)
    with mock.patch.object(dataset, "read_report_file", oracle_read_report_file):
        expected = build_outcome(src, out)
    with mock.patch.object(dataset, "READ_BLOCK_LINES", block):
        assert build_outcome(src, out) == expected


class TestValidateBlockPath:
    """Files that build writes are checked without the line-by-line decoder."""

    @staticmethod
    def no_line_decoding(*args, **kwargs):
        raise AssertionError("a written dataset was checked line by line")

    @pytest.mark.parametrize("block", [1, 4, 256])
    @pytest.mark.parametrize(
        "name, params",
        [("build_golden.jsonl", DEFAULT_PARAMS), ("build_golden.k0375.jsonl", PARAMS[1])],
    )
    def test_golden_files_take_the_block_path(self, monkeypatch, name, params, block):
        path = DATA_DIR / name
        expected = validate_outcome(oracle_validate_dataset, path, params)
        monkeypatch.setattr("glsmooth.dataset.READ_BLOCK_LINES", block)
        monkeypatch.setattr("glsmooth.dataset.decode_records", self.no_line_decoding)
        assert validate_outcome(validate_dataset, path, params) == expected

    def test_built_file_takes_the_block_path(self, tmp_path, lexicon, taxonomy):
        src = tmp_path / "reports.jsonl"
        src.write_text("".join(json.dumps(rec) + "\n" for rec in make_reports(400, seed=14)))
        for index, params in enumerate(PARAMS):
            out = tmp_path / f"ds{index}.jsonl"
            # build decodes its reports line by line: only validate is watched
            build_dataset_file(src, out, lexicon, taxonomy, params)
            assert len(out.read_text().splitlines()) > 3 * dataset.READ_BLOCK_LINES
            expected = validate_outcome(oracle_validate_dataset, out, params)
            # every score occurs, so every written rate and target text is checked
            assert set(expected[0].per_score_counts) == set(SCORE_LEVELS)
            with mock.patch.object(dataset, "decode_records", self.no_line_decoding):
                assert validate_outcome(validate_dataset, out, params) == expected
