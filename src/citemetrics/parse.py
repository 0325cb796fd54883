"""Input formats: citation counts from CSV or JSON bytes, and back to JSON.

CSV holds one count per line, or two columns under a ``paper_id,citations``
header; JSON holds a flat array. Only syntax is checked here: the counts
are judged by ``core.normalize_profile``.
"""

from __future__ import annotations

import json
import re


class ParseError(ValueError):
    """Malformed input, with the location that triggered it."""

    def __init__(self, location: str, reason: str):
        self.location = location
        self.reason = reason
        super().__init__(f"{location}: {reason}")


class DuplicatePaperId(ParseError):
    """The same paper_id appeared twice in a two-column CSV."""


def parse_citations(data: bytes, fmt: str) -> list:
    """Parse citation counts from raw bytes in the given format.

    fmt is "csv" or "json". Returns the values in file order, unjudged (a
    CSV "-3" or any JSON element): normalize_profile checks them. Raises
    ParseError on malformed input, DuplicatePaperId on a repeated paper_id.
    """
    if fmt == "csv":
        return _parse_csv(data)
    if fmt == "json":
        return _parse_json(data)
    raise ValueError(f"unknown input format: {fmt!r}")


# ASCII digits only: int() alone would also take "1_000" and non-ASCII digits.
_COUNT_CELL = re.compile(r"-?[0-9]+")
# The canonical single-column body: counts in ASCII digits, "\n" between them.
# It has no comma, so it cannot be the paper_id,citations header.
_PLAIN_BODY = re.compile(rb"[0-9\n]*")
_BOM = b"\xef\xbb\xbf"
# Bytes per slice of a plain body, each cut at a "\n": only one slice's
# worth of short byte strings is alive beside the counts parsed so far.
_SLICE = 1 << 16


def _excerpt(cell: str) -> str:
    """The cell as an error message quotes it: whole up to 40 characters,
    else its first 20 and its length, so one bad cell stays one short line."""
    if len(cell) <= 40:
        return repr(cell)
    return f"{cell[:20]!r}... ({len(cell)} characters)"


def _parse_count(cell: str, lineno: int) -> int:
    try:
        if not _COUNT_CELL.fullmatch(cell):
            raise ValueError(cell)
        return int(cell)  # raises past the interpreter's digit limit
    except ValueError:
        raise ParseError(f"line {lineno}", f"not an integer citation count: {_excerpt(cell)}") from None


def _parse_plain(data: bytes, start: int) -> list[int]:
    values: list[int] = []
    while start < len(data):
        end = data.find(b"\n", start + _SLICE - 1) + 1 or len(data)
        values.extend(map(int, data[start:end].split()))
        start = end
    return values


def _parse_csv(data: bytes) -> list[int]:
    # A plain body is parsed from the bytes, without the decoded text or a
    # list of its lines.
    start = len(_BOM) if data.startswith(_BOM) else 0
    if _PLAIN_BODY.fullmatch(data, start):
        try:
            return _parse_plain(data, start)
        except ValueError:
            pass  # a count past the digit limit: the loop below reports its line
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"offset {exc.start}", "input is not valid UTF-8") from None
    # Lines end at "\n" alone (strip() drops CRLF's "\r"); splitlines() would
    # also break at "\f", "\v", "\x85", "\u2028" and other characters.
    lines = text.split("\n")

    header = [cell.strip().lower() for cell in lines[0].split(",")]
    if header == ["paper_id", "citations"]:
        return _parse_two_column(lines[1:])

    values: list[int] = []
    for lineno, line in enumerate(lines, start=1):
        cell = line.strip()
        if not cell:
            continue
        if "," in cell:
            raise ParseError(
                f"line {lineno}",
                "expected one citation count per line "
                "(two-column input needs a paper_id,citations header)",
            )
        values.append(_parse_count(cell, lineno))
    return values


def _parse_two_column(body: list[str]) -> list[int]:
    seen: dict[str, int] = {}
    values: list[int] = []
    for lineno, line in enumerate(body, start=2):
        if not line.strip():
            continue
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != 2:
            raise ParseError(f"line {lineno}", f"expected paper_id,citations, got {len(cells)} column(s)")
        paper_id, count_cell = cells
        if not paper_id:
            raise ParseError(f"line {lineno}", "empty paper_id")
        if paper_id in seen:
            raise DuplicatePaperId(
                f"line {lineno}", f"paper_id {_excerpt(paper_id)} already appeared on line {seen[paper_id]}"
            )
        seen[paper_id] = lineno
        values.append(_parse_count(count_cell, lineno))
    return values


def _parse_json(data: bytes) -> list:
    try:
        parsed = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}", exc.msg) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"offset {exc.start}", "input is not valid UTF-8") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ParseError("document", str(exc)) from None
    except RecursionError:
        raise ParseError("document", "arrays nested too deeply") from None
    if not isinstance(parsed, list):
        raise ParseError("document", "expected a flat JSON array of citation counts")
    return parsed

