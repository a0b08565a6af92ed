"""Finding and severity primitives shared across the lint engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["Finding", "SEVERITIES"]

#: Recognised severities, most severe first.  ``error`` findings are meant
#: to gate CI; ``warning`` findings inform but still fail a clean run so
#: they cannot silently accumulate (suppress them with a justified pragma
#: instead).
SEVERITIES: Tuple[str, ...] = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``line``/``col`` are 1-based line and 0-based column, matching the
    ``ast`` node they came from.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"

    def render(self) -> str:
        """``file:line:col: severity RULE message`` (clickable in editors)."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity} {self.rule} {self.message}"
        )
