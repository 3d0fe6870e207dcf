"""Tests for the JSON Lines decoder against the json.loads-per-line reader it replaced."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glsmooth.dataset import _REQUIRED_FIELDS as DATASET_FIELDS
from glsmooth.errors import DataError
from glsmooth.fileio import FIELD_KINDS, _not_utf8, jsonl_records

EXAMPLE_FIELDS = {"features": "numbers", "y": "int", "u": "int"}


def oracle_jsonl_records(path, fields=None):
    """The reader as it was: json.loads on every line, message lists built for every record."""
    fields = fields or {}
    typed = [(key, *FIELD_KINDS[kind]) for key, kind in fields.items() if kind is not None]
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    record = DataError(f"line {lineno}: invalid record ({exc.msg})")
                else:
                    if not isinstance(record, dict):
                        record = DataError(f"line {lineno}: expected a JSON object")
                    elif missing := [key for key in fields if key not in record]:
                        record = DataError(
                            f"line {lineno}: missing field(s) {', '.join(missing)}"
                        )
                    elif wrong := [
                        f"{key} must be {phrase}"
                        for key, test, phrase in typed
                        if not test(record[key])
                    ]:
                        record = DataError(f"line {lineno}: {'; '.join(wrong)}")
                yield lineno, record
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def outcome(records):
    """(line number, repr of the record or the error's text): NaN and -0.0 compare by repr."""
    return [
        (lineno, str(rec) if isinstance(rec, DataError) else repr(rec))
        for lineno, rec in records
    ]


# Values meant for each field kind (NUMBER also reaches past float range), and
# values wrong for most kinds.
NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**80), 2**80),
    st.sampled_from([-0.0, 5e-324, 10**400, -(10**400)]),
)
GOOD = {
    "int": st.integers(-4, 4),
    "number": NUMBER,
    "numbers": st.lists(NUMBER, max_size=4),
    "str": st.text(max_size=5),
    None: st.one_of(st.none(), st.text(max_size=5)),
}
BAD = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from([10**400, "3", [], {}, 1.5, [True], ["a"]]),
)
KEYS = sorted({*EXAMPLE_FIELDS, *DATASET_FIELDS})
ADVERSARIAL = [
    "5", "null", "[]", '"text"', "{} {}", '{"y": 1}x', "{", '{"y": }', "NaN",
    "-Infinity", "", " ", "\x0c", "\t\t", "\ufeff", '{"features": [1, 2,]}',
]


@st.composite
def json_line(draw):
    """One line, no newline: an object of mostly right-kind fields, or a line json rejects."""
    if draw(st.integers(0, 4)) == 0:
        line = draw(st.sampled_from(ADVERSARIAL))
    else:
        record = {}
        for key in KEYS:
            presence = draw(st.integers(0, 9))
            if presence == 0:
                continue
            kind = EXAMPLE_FIELDS.get(key) or DATASET_FIELDS.get(key)
            record[key] = draw(BAD if presence == 1 else GOOD[kind])
        line = json.dumps(record)
        if record and draw(st.integers(0, 5)) == 0:
            # A duplicate key: the last occurrence wins.
            key = draw(st.sampled_from(sorted(record)))
            line = f"{line[:-1]}, {json.dumps(key)}: {json.dumps(draw(BAD))}}}"
    padding = st.text(alphabet=" \t\r\x0c", max_size=2)
    bom = "\ufeff" if draw(st.integers(0, 9)) == 0 else ""
    return bom + draw(padding) + line + draw(padding)


@pytest.mark.parametrize(
    "fields", [EXAMPLE_FIELDS, DATASET_FIELDS, None], ids=["examples", "dataset", "none"]
)
@settings(max_examples=150, deadline=None)
@given(lines=st.lists(json_line(), max_size=8), last_newline=st.booleans())
def test_decoder_matches_json_loads_reader(tmp_path_factory, fields, lines, last_newline):
    path = tmp_path_factory.getbasetemp() / "decoder-property.jsonl"
    text = "\n".join(lines) + ("\n" if last_newline else "")
    path.write_bytes(text.encode("utf-8"))
    expected = outcome(oracle_jsonl_records(path, fields))
    assert outcome(jsonl_records(path, fields)) == expected
