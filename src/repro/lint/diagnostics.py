"""Diagnostic records and their ruff-style rendering.

A :class:`Diagnostic` is one finding: rule code, location, message and an
optional fix hint.  Rendering follows the ``file:line:col: CODE message``
convention so editors and CI annotators that already understand ruff /
flake8 output pick fancylint findings up for free.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One static-analysis finding.

    Attributes:
        path: file the finding is in (as given to the engine).
        line: 1-based source line.
        col: 1-based source column (AST ``col_offset`` + 1).
        code: rule code, e.g. ``"FCY001"``.
        message: what is wrong, with the offending expression quoted.
        hint: how to fix it (rendered after the message).
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str = ""

    def render(self) -> str:
        """``path:line:col: CODE message (hint: ...)`` — one line."""
        text = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_json(self) -> dict[str, object]:
        """Machine-readable form for ``--format json``."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "hint": self.hint,
        }
