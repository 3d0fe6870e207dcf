"""Readers for the input formats: tables, JSON Lines and JSON documents.

Lines are numbered from 1 as written, blank and comment lines included, so a
message cites the line a user sees in an editor.  Bytes that are not UTF-8
raise a DataError naming the input: no line of it can be trusted.

A JSON Lines file is read one line at a time (``numbered_lines``) and
decoded line by line (``decode_records``): one ``raw_decode`` call, the C
scanner alone, and the line is accepted when only JSON whitespace follows the
value.  Any other line (blank, padded in front, led by a BOM, followed by
extra data, or not JSON) is handed to ``json.loads``, the same decoder, which
accepts or rejects it with its own exact message.  Required and typed fields
are then checked without building a list; the message lists are built only
for a line that fails.  A reader that knows its lines' exact layout may group
the numbered lines into blocks, decode a whole block at once and hand any
block it cannot take to ``decode_records`` (``training.read_examples`` does).
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path
from typing import Iterator

from .errors import DataError


def _not_utf8(name, exc: UnicodeDecodeError) -> DataError:
    return DataError(f"{name}: not valid UTF-8 ({exc.reason})")


_FLOAT_MAX = sys.float_info.max


def _is_number(value) -> bool:
    """A JSON number that converts to a float64; a bool is not a number here."""
    return type(value) is float or (type(value) is int and abs(value) <= _FLOAT_MAX)


def _is_numbers(value) -> bool:
    """A list of numbers; an all-float list, the usual row, takes one C-level pass."""
    return type(value) is list and (
        all(map(float.__instancecheck__, value)) or all(map(_is_number, value))
    )


# What a typed JSON Lines field must hold: kind -> (test, phrase for messages).
FIELD_KINDS = {
    "int": (lambda value: type(value) is int, "an integer"),
    "number": (_is_number, "a number"),
    "numbers": (_is_numbers, "a list of numbers"),
    "str": (lambda value: type(value) is str, "a string"),
}


def _read_text(source, what: str) -> str:
    if isinstance(source, str) and ("\t" in source or "\n" in source):
        return source
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8")
    if isinstance(source, bytes) or hasattr(source, "read"):
        data = source if isinstance(source, bytes) else source.read()
        return data.decode("utf-8") if isinstance(data, bytes) else data
    raise TypeError(f"cannot read {what} from {type(source).__name__}")


def table_lines(source, what: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line that is not blank or a '#' comment.

    ``source`` is a path (a ``Path``, or a string with no tab or newline), the
    text itself, bytes, or a readable stream.  ``what`` names the format
    ("lexicon", "taxonomy", "config") in error messages.
    """
    try:
        text = _read_text(source, what)
    except UnicodeDecodeError as exc:
        name = f"{what} {source}" if isinstance(source, (str, Path)) else what
        raise _not_utf8(name, exc) from None
    for lineno, line in enumerate(io.StringIO(text), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped


# One decoder, configured as json.loads' own; its raw_decode does one C scan.
_DECODER = json.JSONDecoder()
_JSON_SPACE = " \t\n\r"

def numbered_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, line) for every line of a UTF-8 text file, blank ones included.

    Bytes that are not UTF-8 raise a DataError naming the file when the
    reader reaches them.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def decode_records(numbered, fields=None) -> Iterator[tuple[int, dict | DataError]]:
    """(line number, object) for each non-blank line of ``numbered``, (line number, line) pairs.

    ``fields`` maps each required field to the kind of value it must hold (a
    key of FIELD_KINDS), or to None for any value.  A line that does not
    decode to an object, lacks a required field or holds a value of the wrong
    kind comes back as a DataError citing its line, so each caller keeps its
    own policy: collect it or raise it.
    """
    fields = fields or {}
    typed = [(key, *FIELD_KINDS[kind]) for key, kind in fields.items() if kind is not None]
    raw_decode = _DECODER.raw_decode
    for lineno, line in numbered:
        try:
            try:
                record, end = raw_decode(line)
            except json.JSONDecodeError:
                end = None
            if end is None or line[end:].strip(_JSON_SPACE):
                # Blank, padded, a BOM, extra data or bad JSON: json.loads
                # accepts or rejects exactly as before, with its own message.
                if not line.strip():
                    continue
                record = json.loads(line)
        except json.JSONDecodeError as exc:
            record = DataError(f"line {lineno}: invalid record ({exc.msg})")
        except RecursionError:
            record = DataError(f"line {lineno}: invalid record (nested too deeply)")
        except ValueError:
            # The only other ValueError: an integer past int_max_str_digits.
            record = DataError(f"line {lineno}: invalid record (integer too long)")
        else:
            if not isinstance(record, dict):
                record = DataError(f"line {lineno}: expected a JSON object")
            elif not fields.keys() <= record.keys():
                missing = [key for key in fields if key not in record]
                record = DataError(f"line {lineno}: missing field(s) {', '.join(missing)}")
            else:
                for key, test, _ in typed:
                    if not test(record[key]):
                        wrong = [
                            f"{name} must be {phrase}"
                            for name, check, phrase in typed
                            if not check(record[name])
                        ]
                        record = DataError(f"line {lineno}: {'; '.join(wrong)}")
                        break
        yield lineno, record


def jsonl_records(path, fields=None) -> Iterator[tuple[int, dict | DataError]]:
    """``decode_records`` over a JSON Lines file, read one line at a time."""
    return decode_records(numbered_lines(path), fields)


def json_document(path) -> dict:
    """The object a whole-file JSON document (a model file) holds."""
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise DataError(f"{path}: invalid JSON (nested too deeply)") from None
    except ValueError:
        raise DataError(f"{path}: invalid JSON (integer too long)") from None
    if not isinstance(document, dict):
        raise DataError(f"{path}: expected a JSON object")
    return document
