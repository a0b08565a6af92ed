"""Rule registry: every lint rule self-registers with docs and scoping.

A rule is a function ``check(ctx) -> Iterator[Tuple[node, message]]``
decorated with :func:`register`.  The engine builds
:class:`~repro.lint.findings.Finding` objects from what it yields, so
rules stay tiny: walk ``ctx.tree``, yield the offending node and a
message.

Scoping: ``packages`` restricts a rule to modules whose dotted name
starts with one of the given prefixes (empty = everywhere), ``exclude``
carves out allowlisted subtrees (e.g. ``repro.obs`` may call
``time.time()``).  Modules whose name cannot be derived (ad-hoc
snippets) only run unscoped rules unless the caller supplies one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from .findings import SEVERITIES

__all__ = ["Rule", "register", "all_rules", "get_rule", "packs"]


@dataclass(frozen=True)
class Rule:
    """A registered lint rule plus its catalog metadata."""

    id: str
    pack: str
    severity: str
    summary: str
    description: str
    check: Callable
    packages: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ()

    def applies_to(self, module: str) -> bool:
        """Whether this rule runs on the dotted module name ``module``."""
        if any(module == p or module.startswith(p + ".") for p in self.exclude):
            return False
        if not self.packages:
            return True
        return any(
            module == p or module.startswith(p + ".") for p in self.packages
        )


_REGISTRY: Dict[str, Rule] = {}


def register(
    rule_id: str,
    *,
    pack: str,
    severity: str = "error",
    summary: str,
    description: str,
    packages: Tuple[str, ...] = (),
    exclude: Tuple[str, ...] = (),
) -> Callable:
    """Decorator registering ``check`` under ``rule_id``."""
    if severity not in SEVERITIES:
        raise ValueError(f"unknown severity '{severity}' for rule {rule_id}")

    def decorator(check: Callable) -> Callable:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate rule id '{rule_id}'")
        _REGISTRY[rule_id] = Rule(
            id=rule_id,
            pack=pack,
            severity=severity,
            summary=summary,
            description=description,
            check=check,
            packages=tuple(packages),
            exclude=tuple(exclude),
        )
        return check

    return decorator


def _ensure_loaded() -> None:
    # Importing the rules package executes every @register decorator.
    from . import rules  # noqa: F401  (import for side effect)


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by (pack, id) for stable output."""
    _ensure_loaded()
    return sorted(_REGISTRY.values(), key=lambda r: (r.pack, r.id))


def get_rule(rule_id: str) -> Rule:
    _ensure_loaded()
    return _REGISTRY[rule_id]


def packs() -> List[str]:
    """Sorted distinct pack names."""
    return sorted({rule.pack for rule in all_rules()})
