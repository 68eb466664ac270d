"""Plain-text helpers for the key-value document format and CSV payloads.

Documents are INI-style sections of ``key = value`` lines.  Numeric arrays
are whitespace- or comma-separated; groups of arrays (one per polynomial
piece) are joined with ``;``.  Floats are always written with ``repr``
round-trip precision so that identical inputs produce byte-identical files;
a CSV cell that is already a str is written as given, so a caller may format
a column once and reuse it.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError


@dataclass(frozen=True)
class Interval:
    """The numbers from ``lo`` to ``hi``, each end closed (``[ ]``) or open
    (``( )``).  It prints to 12 digits, so that an end nudged by rounding
    prints as the end it stands for."""

    lo: float
    hi: float
    ends: str = "[]"

    def __contains__(self, value) -> bool:
        return ((self.lo < value or (value == self.lo and self.ends[0] == "["))
                and (value < self.hi or (value == self.hi and self.ends[1] == "]")))

    def __str__(self) -> str:
        return f"{self.ends[0]}{self.lo:.12g}, {self.hi:.12g}{self.ends[1]}"


def parse_number(text: str, name: str, cast=float, interval: Interval | None = None):
    """One finite scalar from a config value, by ``cast`` (float or int).

    Every scalar of a config document is read here, so a malformed,
    non-finite or out-of-range (off ``interval``) value ends in a
    ``PreconditionError`` naming ``name`` (its ``section.key``) and the text.
    """
    text = text.strip()
    try:
        value = cast(text)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise PreconditionError(f"{name} = {text!r} is not {kind}") from None
    if not math.isfinite(value):
        raise PreconditionError(f"{name} = {text!r} is not finite")
    if interval is not None and value not in interval:
        raise PreconditionError(f"{name} = {text!r} outside {interval}")
    return value


def parse_array(text: str, name: str, interval: Interval | None = None) -> np.ndarray:
    """Finite numbers separated by whitespace or commas, each inside
    ``interval`` if one is given; a bad entry k is reported as ``name[k]``."""
    return np.array([parse_number(tok, f"{name}[{k}]", float, interval)
                     for k, tok in enumerate(text.replace(",", " ").split())])


def parse_document(text: str, overrides: dict | None = None) -> dict[str, dict[str, str]]:
    """Parse an INI-style document into ``{section: {key: value}}``, then
    apply ``overrides`` (same layout), which replace or add keys.

    Parse failures carry the offending line; unknown sections are preserved
    for the caller to validate.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise PreconditionError(f"malformed config document: {exc}") from exc
    sections = {name: dict(parser[name]) for name in parser.sections()}
    for name, body in (overrides or {}).items():
        sections.setdefault(name, {}).update(body)
    return sections


def document_hash(text: str, overrides: dict | None = None) -> str:
    """Stable hash of a config document after ``overrides``, insensitive to
    comments, spacing and the order of sections and keys."""
    sections = parse_document(text, overrides)
    canon = "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in sorted(body.items()))
                      for name, body in sorted(sections.items()))
    return hashlib.sha256(canon.encode()).hexdigest()


def _cell(value) -> str:
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def _line(row) -> str:
    try:
        return ",".join(row)  # a row of str cells, written as given
    except TypeError:
        return ",".join(map(_cell, row))


def write_csv(path, header: list[str], rows, comments: list[str] | None = None) -> None:
    """Write rows as CSV with optional ``#`` comments: a str cell as given, a
    float by ``repr``, anything else by ``str``."""
    out = [f"# {line}" for line in comments or []]
    out.append(",".join(header))
    out.extend(map(_line, rows))
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
