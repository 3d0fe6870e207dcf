"""Tests for the dataset builder and validator."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_util import make_reports
from glsmooth.dataset import (
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
from glsmooth.smoothing import smoothing_rate
from glsmooth.taxonomy import DiseaseCategory, default_taxonomy


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
