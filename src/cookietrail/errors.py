"""Error types shared across the pipeline, and the one way an input file is read.

Fatal problems raise :class:`InputError` or :class:`InvariantError`; both
carry a stable machine-readable ``code`` so the CLI can emit structured
error records.  Recoverable problems found while parsing are collected as
:class:`ParseIssue` values instead of raising.

Every input file is read inside :func:`reading`, the one place that starts an
error with its file's ``<path>: ``; :func:`json_object` is the one decoder
that words bad JSON, and :func:`quoted` shows an input value in a message.
"""

from __future__ import annotations

import contextlib
import json
import reprlib
from dataclasses import dataclass
from typing import Callable, Iterator


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


def json_object(text: str, code: str, where: str = "") -> dict:
    """The object a JSON text holds, as ``json.loads`` decodes it; else ``InputError(code)``.

    The message is ``<where>not a JSON object`` or ``<where>invalid JSON
    (<problem>)``, ``where`` being a line-framed file's ``line <n>: ``.  Past
    the recursion limit the problem is ``nested too deeply``, and for an
    integer of more digits than ``int()`` converts ``integer too long``.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        problem = exc.msg
    except RecursionError:
        problem = "nested too deeply"
    except ValueError:
        problem = "integer too long"
    else:
        if type(obj) is dict:
            return obj
        raise InputError(code, f"{where}not a JSON object")
    raise InputError(code, f"{where}invalid JSON ({problem})")


def quoted(value) -> str:
    """``repr(value)``, cut to about 60 characters: a string's first 60, or any other value's repr's."""
    if type(value) is str:
        return repr(value[:60])
    try:
        text = repr(value)
    except RecursionError:  # nested deeper than ``repr`` goes, as a JSON decoder may nest it
        text = reprlib.repr(value)
    return text if len(text) <= 60 else f"{text[:60]}..."


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


@contextlib.contextmanager
def reading(path, code: str) -> Iterator[Callable]:
    """Read the file at ``path`` in the block; each error it raises starts with ``<path>: ``.

    A ``PipelineError`` is raised again with that prefix, and a
    ``UnicodeDecodeError`` as ``InputError(code, "<path>: not UTF-8
    (<reason>)")``; an ``OSError`` names the file itself.  The block is handed
    a function that prefixes the issues collected from the file alike.
    """
    try:
        yield lambda issues: [ParseIssue(issue.code, f"{path}: {issue.detail}", issue.line) for issue in issues]
    except UnicodeDecodeError as exc:
        raise InputError(code, f"{path}: not UTF-8 ({exc.reason})") from None
    except PipelineError as exc:
        raise type(exc)(exc.code, f"{path}: {exc.message}") from None
