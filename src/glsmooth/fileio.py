"""Readers for the input formats: tables, JSON Lines and JSON documents.

Lines are numbered from 1 as written, blank and comment lines included, so a
message cites the line a user sees in an editor.  Bytes that are not UTF-8
raise a DataError naming the line that holds them in a JSON Lines file, and
naming the input in a table or JSON document.

A JSON Lines file is read in blocks of READ_BLOCK_LINES lines
(``framed_blocks``).  A reader that knows the exact layout its writer emits
passes that layout as a one-line regex, its frame; each block comes with
the frame's groups of every line when every line matches, and the reader
takes its values from those: ``training.read_examples`` for example files
(decoded as ``training._decode_block`` describes) and
``dataset.validate_dataset`` for dataset files.  A block with a line of
another layout, so every block of a file written some other way, is decoded
line by line (``decode_records``): a blank line is skipped and any other goes
to ``json.loads``, which accepts or rejects it with its own exact message.
Report files are read one line at a time (``jsonl_records``).
"""

from __future__ import annotations

import io
import json
import re
import sys
from pathlib import Path
from typing import Iterator

from .errors import DataError
from .smoothing import SCORE_LEVELS


def _not_utf8(name, exc: UnicodeDecodeError) -> DataError:
    return DataError(f"{name}: not valid UTF-8 ({exc.reason})")


_FLOAT_MAX = sys.float_info.max


def _is_number(value) -> bool:
    """A JSON number that converts to a float64; a bool is not a number here."""
    return type(value) is float or (type(value) is int and abs(value) <= _FLOAT_MAX)


# What a typed JSON Lines field must hold: kind -> (test, phrase for messages).
FIELD_KINDS = {
    "label": (lambda value: type(value) is int and value in (0, 1), "0 or 1"),
    "score": (lambda value: type(value) is int and value in SCORE_LEVELS, "an integer in {-3..3}"),
    "number": (_is_number, "a number"),
    # Each value a number that float64 holds finitely: NaN fails both comparisons.
    "finite numbers": (
        lambda value: type(value) is list and len(value) > 0
        and all(type(x) in (int, float) and -_FLOAT_MAX <= x <= _FLOAT_MAX for x in value),
        "a non-empty list of finite numbers",
    ),
    "str": (lambda value: type(value) is str, "a string"),
    "str or null": (lambda value: value is None or type(value) is str, "a string or null"),
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
    ("lexicon", "taxonomy", "config") in error messages.  A leading byte-order
    mark is dropped: an editor may save one, and it would join the first field.
    """
    try:
        text = _read_text(source, what)
    except UnicodeDecodeError as exc:
        name = f"{what} {source}" if isinstance(source, (str, Path)) else what
        raise _not_utf8(name, exc) from None
    for lineno, line in enumerate(io.StringIO(text.removeprefix("\ufeff")), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped


def numbered_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, line) for every line of a UTF-8 text file, blank ones included.

    A line holding bytes that are not UTF-8 raises a DataError naming the
    file and the line, after every line before it has been yielded.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise _not_utf8(f"{path}: line {lineno}", exc) from None
            yield lineno, line


# The number of lines a block reader takes at a time.  read_examples converts
# a block's rows to float64 at once, so a large file never sits in memory as
# lists: 128 to 1024 read a 20k-line example file at one speed, and the
# smaller the block, the less a train-and-eval pass of two such files peaks at
# (16.9 MB at 256, 17.4 at 512, 17.8 at 1024).  validate_dataset checks a
# 4k-line dataset at one speed from 256 to 1024 lines, 10-15% slower at 64 or
# 4096.
READ_BLOCK_LINES = 256


def _frame_groups(lines: list[str], frame: str) -> list[tuple] | None:
    """Each line's groups of ``frame``, or None when a line does not match it."""
    found = re.findall(frame, "".join(lines), re.MULTILINE)
    # A match never spans lines, so a line did not match when one is missing.
    return found if len(found) == len(lines) else None


def framed_blocks(
    path, size: int, frame: str
) -> Iterator[tuple[int, list[str], list[tuple] | None]]:
    """(number of the first line, lines, groups) for consecutive ``size``-line blocks of a file.

    ``frame`` is a regex of one whole line, ``^...$`` with at least two
    groups and nothing that matches a newline.  ``groups`` holds one tuple of
    its groups per line when every line of the block matches it, and is None
    otherwise.  A line that is not UTF-8 raises its DataError only after
    the block of lines before it, so a bad line there fails first, as line
    by line.
    """
    first, lines, error = 1, [], None
    try:
        for lineno, line in numbered_lines(path):
            lines.append(line)
            if len(lines) == size:
                yield first, lines, _frame_groups(lines, frame)
                first, lines = lineno + 1, []
    except DataError as exc:
        error = exc
    if lines:
        yield first, lines, _frame_groups(lines, frame)
    if error is not None:
        raise error


def decode_records(numbered, fields) -> Iterator[tuple[int, dict | DataError]]:
    """(line number, object) for each non-blank line of ``numbered``, (line number, line) pairs.

    ``fields`` maps each required field to the kind of value it must hold (a
    key of FIELD_KINDS), or to None for any value.  A line that does not
    decode to an object, lacks a required field or holds a value of the wrong
    kind comes back as a DataError citing its line, so each caller keeps its
    own policy: collect it or raise it.
    """
    typed = [(key, *FIELD_KINDS[kind]) for key, kind in fields.items() if kind is not None]
    for lineno, line in numbered:
        if not line.strip():
            continue
        try:
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
            elif wrong := [
                f"{key} must be {phrase}" for key, test, phrase in typed if not test(record[key])
            ]:
                record = DataError(f"line {lineno}: {'; '.join(wrong)}")
        yield lineno, record


def jsonl_records(path, fields) -> Iterator[tuple[int, dict | DataError]]:
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
