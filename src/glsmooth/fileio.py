"""Readers for the input formats: tables, JSON Lines and JSON documents.

Lines are numbered from 1 as written, blank and comment lines included, so a
message cites the line a user sees in an editor.  Bytes that are not UTF-8
raise a DataError naming the line that holds them in a JSON Lines file, and
naming the input in a table or JSON document.

A JSON Lines file is read in blocks of READ_BLOCK_LINES lines
(``framed_blocks``), each taken from the open file in one call and joined
once; a block whose text is ASCII needs no line's UTF-8 check.  A reader
that knows the exact layout its writer emits passes that layout as a
one-line regex, its frame; one ``findall`` over the block's text gives each
block with the frame's groups of every line when every line matches, and
the reader takes its values from those: ``training.read_examples`` for
example files (one ``orjson`` call per block, as
``training._decode_block`` describes) and ``dataset.validate_dataset`` for
dataset files.  A block with a line of
another layout, so every block of a file written some other way, is decoded
line by line (``decode_records``): a blank line is skipped and any other goes
to ``json.loads``, which accepts or rejects it with its own exact message.
Report files, which have no frame, are read in the same blocks and every
line is decoded so (``dataset.read_report_file``).
"""

from __future__ import annotations

import io
import json
import re
import sys
from itertools import islice
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


# The number of lines a block reader takes at a time.  read_examples converts
# a block's rows to float64 at once, so a large file never sits in memory as
# lists: 128 to 1024 read a 20k-line example file at one speed, and the
# smaller the block, the less a train-and-eval pass of two such files peaks at
# (16.9 MB at 256, 17.4 at 512, 17.8 at 1024).  validate_dataset checks a
# 4k-line dataset at one speed from 256 to 1024 lines, 10-15% slower at 64 or
# 4096.
READ_BLOCK_LINES = 256


def _frame_groups(text: str, count: int, frame: str) -> list[tuple] | None:
    """The groups of ``frame`` of each of the ``count`` lines of ``text``, else None."""
    found = re.findall(frame, text, re.MULTILINE)
    # Matches start at distinct line starts, and one that runs past a line
    # end covers the next line's start: ``count`` matches leave one to a line.
    return found if len(found) == count else None


def framed_blocks(
    path, size: int, frame: str | None
) -> Iterator[tuple[int, list[str], list[tuple] | None]]:
    """(number of the first line, lines, groups) for consecutive ``size``-line blocks of a file.

    ``frame`` is a regex of one whole line, ``^...$`` with at least two
    groups.  It may match across a newline, as ``[^]]*`` does: a match that
    spans lines leaves the block fewer matches than lines, and the block
    counts as framed only with one match to each line.  ``groups`` then holds
    one tuple of its groups per line, and is None otherwise.  With ``frame``
    None, no block is searched and ``groups`` is always None.  A block is
    checked for UTF-8 as a whole, and line by line only when it is not ASCII;
    a line that is not UTF-8 raises its DataError only after the lines of its
    block before it, so a bad line there fails first, as line by line.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        first = 1
        while lines := list(islice(fh, size)):
            text, error = "".join(lines), None
            if not text.isascii():
                for i, line in enumerate(lines):
                    try:
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeDecodeError as exc:
                        error = _not_utf8(f"{path}: line {first + i}", exc)
                        lines = lines[:i]
                        text = "".join(lines)
                        break
            if lines:
                groups = None if frame is None else _frame_groups(text, len(lines), frame)
                yield first, lines, groups
            if error is not None:
                raise error
            first += len(lines)


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
