"""Syntax tree for ground propositional formulas.

Formulas are built from predicate atoms with constant arguments and the
connectives !, &, |, -> and <->.  Every node is an immutable dataclass so
formulas can live in sets and serve as dictionary keys.  The canonical
rendering is fully parenthesised, which makes it injective: two formulas
render to the same string only if they are structurally equal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class Formula:
    """Base class for all formula nodes.

    A node keeps its canonical text (_text) and sat keeps its compiled
    form and its negation's (_sat, _sat_negation) on it once computed.
    Each reads None here until then, so a cache is a plain attribute
    read and a node never needs its instance dict looked up.
    """

    __slots__ = ()
    _text: str | None = None
    _sat: object = None
    _sat_negation: object = None


@dataclass(frozen=True)
class Atom(Formula):
    """Ground atom: a predicate applied to zero or more constants."""

    predicate: str
    args: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not IDENT_RE.match(self.predicate):
            raise ValueError(f"bad predicate name: {self.predicate!r}")
        for arg in self.args:
            if not IDENT_RE.match(arg):
                raise ValueError(f"bad constant name: {arg!r}")


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


Valuation = Mapping[Atom, bool]

_BINARY_OPS: dict[type, str] = {And: "&", Or: "|", Implies: "->", Iff: "<->"}


def render_canonical(formula: Formula) -> str:
    """Render a formula in its canonical fully parenthesised form.

    Atoms render as ``Pred(a,b)`` with no interior spaces, negation as
    ``(! x)`` and binary connectives as ``(x op y)`` with single spaces.
    The text is kept on the formula, as sat keeps its compiled form
    there, so an instance is walked once however often it is rendered;
    equality, hashing and repr read only the fields.
    """
    text = formula._text
    if text is None:
        text = _render(formula)
        object.__setattr__(formula, "_text", text)
    return text


def _render(formula: Formula) -> str:
    """The canonical text of formula; a subformula's kept text is reused."""
    text = formula._text
    if text is not None:
        return text
    if isinstance(formula, Atom):
        if not formula.args:
            return formula.predicate
        return f"{formula.predicate}({','.join(formula.args)})"
    if isinstance(formula, Not):
        return f"(! {_render(formula.operand)})"
    op = _BINARY_OPS.get(type(formula))
    if op is not None:
        left = _render(formula.left)  # type: ignore[attr-defined]
        right = _render(formula.right)  # type: ignore[attr-defined]
        return f"({left} {op} {right})"
    raise TypeError(f"not a formula: {formula!r}")


def atoms_of(formula: Formula) -> frozenset[Atom]:
    """Collect the set of atoms occurring in a formula."""
    return frozenset(_iter_atoms(formula))


def _iter_atoms(formula: Formula) -> Iterator[Atom]:
    if isinstance(formula, Atom):
        yield formula
    elif isinstance(formula, Not):
        yield from _iter_atoms(formula.operand)
    elif isinstance(formula, (And, Or, Implies, Iff)):
        yield from _iter_atoms(formula.left)
        yield from _iter_atoms(formula.right)
    else:
        raise TypeError(f"not a formula: {formula!r}")


def evaluate(formula: Formula, valuation: Valuation) -> bool:
    """Evaluate a formula under a total assignment of its atoms."""
    if isinstance(formula, Atom):
        return valuation[formula]
    if isinstance(formula, Not):
        return not evaluate(formula.operand, valuation)
    if isinstance(formula, And):
        return evaluate(formula.left, valuation) and evaluate(formula.right, valuation)
    if isinstance(formula, Or):
        return evaluate(formula.left, valuation) or evaluate(formula.right, valuation)
    if isinstance(formula, Implies):
        return (not evaluate(formula.left, valuation)) or evaluate(formula.right, valuation)
    if isinstance(formula, Iff):
        return evaluate(formula.left, valuation) == evaluate(formula.right, valuation)
    raise TypeError(f"not a formula: {formula!r}")
