"""Tests for the JSON Lines block reader and decoder against the simpler readers they replaced."""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glsmooth.dataset import _DATASET_LINE
from glsmooth.dataset import _REQUIRED_FIELDS as DATASET_FIELDS
from glsmooth.errors import DataError
from glsmooth.fileio import FIELD_KINDS, _not_utf8, decode_records, framed_blocks
from glsmooth.training import _EXAMPLE_FIELDS as EXAMPLE_FIELDS
from glsmooth.training import _EXAMPLE_LINE


def oracle_lines(path):
    """(line number, line) for each line of a file, its line end read as a text file reads it.

    The file's bytes are split at universal newlines and each line is decoded
    on its own, so a line that is not UTF-8 fails after every line before it.
    A "\r\n" or "\r" line end comes out as "\n".
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(keepends=True), start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise _not_utf8(f"{path}: line {lineno}", exc) from None
            body = line.rstrip("\r\n")
            yield lineno, (body if body == line else body + "\n")


def oracle_jsonl_records(path, fields=None):
    """A plain reader: json.loads on every line, message lists built for every record."""
    fields = fields or {}
    typed = [(key, *FIELD_KINDS[kind]) for key, kind in fields.items() if kind is not None]
    for lineno, line in oracle_lines(path):
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
                record = DataError(f"line {lineno}: missing field(s) {', '.join(missing)}")
            elif wrong := [
                f"{key} must be {phrase}" for key, test, phrase in typed if not test(record[key])
            ]:
                record = DataError(f"line {lineno}: {'; '.join(wrong)}")
        yield lineno, record


def block_records(path, fields, size):
    """``decode_records`` over the ``size``-line blocks of a file, as report files are read."""
    for first, lines, _ in framed_blocks(path, size, None):
        yield from decode_records(enumerate(lines, first), fields)


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
    "label": st.integers(-1, 2),
    "score": st.integers(-4, 4),
    "number": NUMBER,
    "finite numbers": st.lists(NUMBER, max_size=4),
    "str": st.text(max_size=5),
    "str or null": st.one_of(st.none(), st.text(max_size=5)),
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


# Block sizes for the decoder properties: blocks of one line, block edges
# inside a short file, and one block for the whole file.
BLOCK_SIZES = [1, 2, 3, 256]


@pytest.mark.parametrize(
    "fields", [EXAMPLE_FIELDS, DATASET_FIELDS, {}], ids=["examples", "dataset", "none"]
)
@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(json_line(), max_size=8),
    last_newline=st.booleans(),
    size=st.sampled_from(BLOCK_SIZES),
)
def test_decoder_matches_json_loads_reader(tmp_path_factory, fields, lines, last_newline, size):
    path = tmp_path_factory.getbasetemp() / "decoder-property.jsonl"
    text = "\n".join(lines) + ("\n" if last_newline else "")
    path.write_bytes(text.encode("utf-8"))
    expected = outcome(oracle_jsonl_records(path, fields))
    assert outcome(block_records(path, fields, size)) == expected


def test_records_before_invalid_utf8_come_first(tmp_path):
    # Good and bad lines, then bytes that are not UTF-8 more than one text-decoder
    # chunk later, all inside one block: every line before the one holding
    # the bad bytes is yielded, then the error naming that line is raised.
    lines = [json.dumps({"y": i, "features": [0.5] * 20}) for i in range(300)]
    lines[3] = "{"
    path = tmp_path / "utf8.jsonl"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8") + b'{"y": "\xff"}\n')

    def until_error(records):
        seen = []
        with pytest.raises(DataError) as error:
            for item in records:
                seen.append(item)
        return outcome(seen), str(error.value)

    expected = until_error(oracle_jsonl_records(path, EXAMPLE_FIELDS))
    assert len(expected[0]) == 300
    assert expected[1] == f"{path}: line 301: not valid UTF-8 (invalid start byte)"
    assert until_error(block_records(path, EXAMPLE_FIELDS, 1024)) == expected


# Bytes that are not UTF-8: a lone continuation or start byte, a truncated
# sequence, an encoded surrogate and an overlong slash.
NOT_UTF8 = [b"\xff", b"\x80", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf"]


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(
        st.one_of(
            json_line().map(str.encode),
            st.tuples(json_line(), st.sampled_from(NOT_UTF8), st.integers(0, 3)).map(
                lambda t: t[0].encode()[: t[2]] + t[1] + t[0].encode()[t[2]:]
            ),
            st.binary(max_size=6),
        ),
        max_size=8,
    ),
    end=st.sampled_from([b"\n", b"\r\n", b"\r"]),
    size=st.sampled_from(BLOCK_SIZES),
)
def test_decoder_names_the_line_that_is_not_utf8(tmp_path_factory, lines, end, size):
    path = tmp_path_factory.getbasetemp() / "decoder-utf8-property.jsonl"
    path.write_bytes(end.join(lines))

    def until_error(records):
        seen, error = [], None
        try:
            for item in records:
                seen.append(item)
        except DataError as exc:
            error = str(exc)
        return outcome(seen), error

    expected = until_error(oracle_jsonl_records(path, EXAMPLE_FIELDS))
    assert until_error(block_records(path, EXAMPLE_FIELDS, size)) == expected


def oracle_line_blocks(path, size):
    """The block reader before blocks came with their frame's groups."""
    first, lines, error = 1, [], None
    try:
        for lineno, line in oracle_lines(path):
            lines.append(line)
            if len(lines) == size:
                yield first, lines
                first, lines = lineno + 1, []
    except DataError as exc:
        error = exc
    if lines:
        yield first, lines
    if error is not None:
        raise error


def oracle_framed_blocks(path, size, frame):
    """Each block with each line's own groups of ``frame``, or None when one does not match."""
    for first, lines in oracle_line_blocks(path, size):
        matches = [frame and re.fullmatch(frame, line.removesuffix("\n")) for line in lines]
        groups = None if any(m is None for m in matches) else [m.groups() for m in matches]
        yield first, lines, groups


FRAMES = {"dataset": _DATASET_LINE, "examples": _EXAMPLE_LINE, "none": None}
# Lines each frame matches, then near misses of each, then lines neither matches.
FRAMED_LINES = [
    '{"study_id": "s1", "category": "Pneumonia", "y": 1, "u": -3, "r": -0.250000, '
    '"target_neg": 1.125000, "target_pos": -0.125000, "cue": "no"}',
    '{"study_id": "\\u00e9t\\u00e9", "category": "Edema", "y": 0, "u": 0, "r": 1.000000, '
    '"target_neg": 0.500000, "target_pos": 0.500000, "cue": null}',
    '{"study_id": "été \u2028", "category": "Edema", "y": 1, "u": 2, "r": 0.166667, '
    '"target_neg": 0.083333, "target_pos": 0.916667, "cue": "likely"}',
    '{"features": [0.5, -1.25e-05, 1E+300], "y": 1, "u": -3}',
    '{"features": [-0, 2], "y": 0, "u": 0}',
    '{"features": [], "y": 1, "u": 3}',
    '{"study_id": "s1", "category": "Pneumonia", "y": 2, "u": -3, "r": -0.250000, '
    '"target_neg": 1.125000, "target_pos": -0.125000, "cue": "no"}',
    '{"study_id": "s1", "category": "Pneumonia", "y": 1, "u": -3, "r": -0.25, '
    '"target_neg": 1.125000, "target_pos": -0.125000, "cue": "no"}',
    '{"study_id":"s1","category":"Pneumonia","y":1,"u":-3,"r":-0.250000,'
    '"target_neg":1.125000,"target_pos":-0.125000,"cue":"no"}',
    '{"features":[0.5,1.0],"y":1,"u":-3}',
    '{"features": [0.5, 1.0], "y": 1, "u": 4}',
    '{"features": [NaN], "y": 0, "u": 1}',
    ' {"features": [0.5], "y": 1, "u": 2}',
    '{"features": [0.5], "y": 1, "u": 2} ',
    "", " ", "\t", "{}", "éè", "\ufeff{}",
    # The halves of a written-layout line split after a comma: one examples
    # frame match spans both.
    '{"features": [0.5,', ' 1.0], "y": 1, "u": 2}',
]


@pytest.mark.parametrize("size", [1, 3, 256])
@pytest.mark.parametrize("frame", FRAMES.values(), ids=FRAMES.keys())
@settings(max_examples=100, deadline=None)
@given(
    lines=st.lists(
        st.tuples(st.sampled_from(FRAMED_LINES), st.sampled_from(["\n", "\n", "\r\n"])),
        min_size=1, max_size=12,
    ),
    last_newline=st.booleans(),
)
@example(lines=[(FRAMED_LINES[-2], "\n"), (FRAMED_LINES[-1], "\n")], last_newline=True)
def test_framed_blocks_match_line_blocks(tmp_path_factory, size, frame, lines, last_newline):
    path = tmp_path_factory.getbasetemp() / "framed-property.jsonl"
    text = "".join(line + end for line, end in lines)
    if not last_newline:
        text = text.removesuffix(lines[-1][1])
    path.write_bytes(text.encode("utf-8"))
    expected = list(oracle_framed_blocks(path, size, frame))
    assert list(framed_blocks(path, size, frame)) == expected


@pytest.mark.parametrize("frame", FRAMES.values(), ids=FRAMES.keys())
def test_framed_blocks_bad_line_before_invalid_utf8(tmp_path, frame):
    # A line neither frame matches at line 2, then more than one text-decoder
    # chunk of lines the frame matches, then bytes that are not UTF-8, all in
    # one block: the same lines come out as from the oracle, then the same error.
    good = FRAMED_LINES[0] if frame == _DATASET_LINE else FRAMED_LINES[3]
    lines = [good] * 400
    lines[1] = FRAMED_LINES[9]  # compact separators
    path = tmp_path / "utf8.jsonl"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8") + b'{"\xff"}\n')

    def until_error(blocks):
        seen = []
        with pytest.raises(DataError) as error:
            for item in blocks:
                seen.append(item)
        return seen, str(error.value)

    expected = until_error(oracle_framed_blocks(path, 1024, frame))
    assert expected[0] and expected[0][0][2] is None
    assert expected[1] == f"{path}: line 401: not valid UTF-8 (invalid start byte)"
    assert until_error(framed_blocks(path, 1024, frame)) == expected
