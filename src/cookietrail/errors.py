"""Error types shared across the pipeline.

Fatal problems raise :class:`InputError` or :class:`InvariantError`; both
carry a stable machine-readable ``code`` so the CLI can emit structured
error records.  Recoverable problems found while parsing are collected as
:class:`ParseIssue` values instead of raising.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


class PipelineError(Exception):
    """Base class for all library errors."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message

    def as_record(self) -> dict:
        return {"error": self.code, "message": self.message}


class InputError(PipelineError):
    """Malformed or unusable input data (CLI exit code 1)."""


class InvariantError(PipelineError):
    """Structural invariant violated by otherwise well-formed input (CLI exit code 2)."""


def json_problem(exc: ValueError | RecursionError) -> str:
    """Why ``json.loads`` or its scanner rejected a text, for an error message.

    Besides a ``JSONDecodeError``, decoding raises ``RecursionError`` for
    nesting deeper than the interpreter's recursion limit, and a plain
    ``ValueError`` for an integer of more digits than ``int()`` converts
    (4,300 by default).
    """
    if isinstance(exc, json.JSONDecodeError):
        return exc.msg
    if isinstance(exc, RecursionError):
        return "nested too deeply"
    return "integer too long"


def not_utf8(path, code: str, exc: UnicodeDecodeError) -> InputError:
    """The error for an input file that is not UTF-8, under its reader's own ``code``."""
    return InputError(code, f"{path}: not UTF-8 ({exc.reason})")


def read_utf8(path, code: str) -> str:
    """The text of the UTF-8 file at ``path``; a file that is not UTF-8 is ``InputError(code)``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise not_utf8(path, code, exc) from None


@dataclass(frozen=True)
class ParseIssue:
    """A non-fatal problem collected during parsing.

    ``line`` is the 1-based line number in the source file when known.
    """

    code: str
    detail: str
    line: int | None = None

    def as_record(self) -> dict:
        record = {"error": self.code, "message": self.detail}
        if self.line is not None:
            record["line"] = self.line
        return record
