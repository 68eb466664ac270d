"""Plain-text helpers for the key-value document format and CSV payloads.

Documents are INI-style sections of ``key = value`` lines.  Numeric arrays
are whitespace- or comma-separated; groups of arrays (one per polynomial
piece) are joined with ``;``.  Floats are always written with ``repr``
round-trip precision so that identical inputs produce byte-identical files.
"""

from __future__ import annotations

import configparser
import hashlib
import math

import numpy as np

from .errors import PreconditionError


def parse_number(text: str, name: str, cast=float):
    """One finite scalar from a config value, by ``cast`` (float or int).

    Every scalar of a config document is read here, so a malformed or
    non-finite value ends in a ``PreconditionError`` naming ``name`` (the
    ``section.key`` it came from) and the text.
    """
    text = text.strip()
    try:
        value = cast(text)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise PreconditionError(f"{name} = {text!r} is not {kind}") from None
    if not math.isfinite(value):
        raise PreconditionError(f"{name} = {text!r} is not finite")
    return value


def parse_array(text: str, name: str) -> np.ndarray:
    """Finite numbers separated by whitespace or commas; a bad entry k is
    reported as ``name[k]``."""
    return np.array([parse_number(tok, f"{name}[{k}]")
                     for k, tok in enumerate(text.replace(",", " ").split())])


def parse_array_groups(text: str, name: str) -> list[np.ndarray]:
    """Parse ``;``-separated arrays, e.g. piecewise polynomial coefficients."""
    return [parse_array(part, name) for part in text.split(";")]


def parse_document(text: str) -> dict[str, dict[str, str]]:
    """Parse an INI-style document into ``{section: {key: value}}``.

    Parse failures carry the offending line; unknown sections are preserved
    for the caller to validate.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise PreconditionError(f"malformed config document: {exc}") from exc
    return {name: dict(parser[name]) for name in parser.sections()}


def format_document(sections: dict[str, dict[str, str]]) -> str:
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        for key, value in body.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def document_hash(text: str) -> str:
    """Stable hash of a config document, insensitive to comments and spacing."""
    sections = parse_document(text)
    canon = format_document({k: dict(sorted(v.items())) for k, v in sorted(sections.items())})
    return hashlib.sha256(canon.encode()).hexdigest()


def write_csv(path, header: list[str], rows, comments: list[str] | None = None) -> None:
    """Write rows of floats/ints/strings as CSV with optional ``#`` comments."""
    out = []
    for line in comments or []:
        out.append(f"# {line}")
    out.append(",".join(header))
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(repr(float(cell)))
            else:
                cells.append(str(cell))
        out.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
