"""Inline suppression pragmas — the linter's only exception mechanism.

Two forms, both ordinary comments:

- ``# lint: disable=rule-id[,other-rule]`` suppresses those rules for
  one statement: put it at the end of the flagged line, or on its own
  comment line directly above (it then applies to the next code line).
  Put a short justification in the same comment — the pragma is a
  reviewed exception, not an off switch.
- ``# lint: disable-file=rule-id[,other-rule]`` anywhere in the file
  suppresses those rules for the whole module.

``all`` is accepted as a rule id and matches every rule.  Pragmas are
read from real comment tokens only: the same text inside a string
literal (a docstring quoting the syntax, say) suppresses nothing.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Set

__all__ = ["PragmaIndex"]

_LINE_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)")
_FILE_RE = re.compile(
    r"#\s*lint:\s*disable-file=([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
)


def _split(spec: str) -> Set[str]:
    return {part.strip() for part in spec.split(",") if part.strip()}


def _comments(source: str) -> Dict[int, tokenize.TokenInfo]:
    """``lineno -> COMMENT token`` for every comment the tokenizer sees."""
    comments: Dict[int, tokenize.TokenInfo] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments[tok.start[0]] = tok
    except (tokenize.TokenError, SyntaxError):
        pass  # keep the comments seen before the malformed tail
    return comments


class PragmaIndex:
    """Per-file index of suppression pragmas, built once per lint pass."""

    def __init__(self) -> None:
        self.by_line: Dict[int, Set[str]] = {}
        self.file_wide: Set[str] = set()

    @classmethod
    def from_source(cls, source: str) -> "PragmaIndex":
        index = cls()
        if "lint:" not in source:
            return index  # the common case: no pragma, no tokenize pass
        comments = _comments(source)
        # Rules from standalone pragma comment lines waiting for the next
        # code line to attach to.
        pending: Set[str] = set()
        for lineno, line in enumerate(source.splitlines(), start=1):
            stripped = line.strip()
            if not stripped:
                continue
            tok = comments.get(lineno)
            rules: Set[str] = set()
            if tok is not None and "lint:" in tok.string:
                file_match = _FILE_RE.search(tok.string)
                if file_match:
                    index.file_wide |= _split(file_match.group(1))
                line_match = _LINE_RE.search(tok.string)
                if line_match:
                    rules = _split(line_match.group(1))
            if tok is not None and tok.start[1] == len(line) - len(line.lstrip()):
                pending |= rules  # a comment-only line
                continue
            # A code line: same-line pragmas plus any pending from the
            # comment block directly above.
            if rules or pending:
                index.by_line.setdefault(lineno, set()).update(rules | pending)
            pending = set()
        return index

    def suppresses(self, rule_id: str, line: int) -> bool:
        if "all" in self.file_wide or rule_id in self.file_wide:
            return True
        rules = self.by_line.get(line)
        return bool(rules) and ("all" in rules or rule_id in rules)

    def suppresses_any(self, rule_id: str, lines) -> bool:
        """Suppressed on *any* candidate line (statement span, decorators)."""
        return any(self.suppresses(rule_id, line) for line in lines)
