"""Input formats: citation counts from CSV or JSON bytes, and back to JSON.

CSV holds one count per line, or two columns under a ``paper_id,citations``
header; JSON holds a flat array of non-negative integers.
"""

from __future__ import annotations

import json
import re
from typing import Iterable

from .core import NegativeCitation


class ParseError(ValueError):
    """Malformed input, with the location that triggered it."""

    def __init__(self, location: str, reason: str):
        self.location = location
        self.reason = reason
        super().__init__(f"{location}: {reason}")


class DuplicatePaperId(ParseError):
    """The same paper_id appeared twice in a two-column CSV."""


def parse_citations(data: bytes, fmt: str) -> list[int]:
    """Parse citation counts from raw bytes in the given format.

    fmt is "csv" or "json". Returns counts in file order. Raises
    ParseError on malformed input, NegativeCitation on counts below zero,
    and DuplicatePaperId on repeated ids in the two-column CSV variant.
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
_PLAIN_BODY = re.compile(r"[0-9\n]*")


def _parse_count(cell: str, lineno: int, position: int) -> int:
    try:
        if not _COUNT_CELL.fullmatch(cell):
            raise ValueError(cell)
        value = int(cell)  # raises past the interpreter's digit limit
    except ValueError:
        raise ParseError(f"line {lineno}", f"not an integer citation count: {cell!r}") from None
    if value < 0:
        raise NegativeCitation(position, value)
    return value


def _parse_csv(data: bytes) -> list[int]:
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"offset {exc.start}", "input is not valid UTF-8") from None
    # Checked before splitlines(), so that no second list of lines is live.
    if _PLAIN_BODY.fullmatch(text):
        try:
            return list(map(int, text.split()))
        except ValueError:
            pass  # a count past the digit limit: the loop below reports its line
    lines = text.splitlines()
    if not lines:
        return []

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
        values.append(_parse_count(cell, lineno, len(values)))
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
                f"line {lineno}", f"paper_id {paper_id!r} already appeared on line {seen[paper_id]}"
            )
        seen[paper_id] = lineno
        values.append(_parse_count(count_cell, lineno, len(values)))
    return values


def _parse_json(data: bytes) -> list[int]:
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
    # The common case, in C-level passes: every element a plain int (type()
    # excludes bool), none negative. json.loads built the list; return it.
    if set(map(type, parsed)) <= {int} and (not parsed or min(parsed) >= 0):
        return parsed
    values: list[int] = []
    for i, item in enumerate(parsed):
        if isinstance(item, bool) or not isinstance(item, int):
            raise ParseError(f"element {i}", f"expected an integer citation count, got {item!r}")
        if item < 0:
            raise NegativeCitation(i, item)
        values.append(item)
    return values


def emit_citations_json(values: Iterable[int]) -> bytes:
    """Serialize counts in the JSON input format; parse_citations reverses this."""
    return (json.dumps(list(values)) + "\n").encode("utf-8")
