"""Operator-precedence parser for the propositional surface syntax.

Grammar, loosest binding first::

    formula := iff
    iff     := impl ("<->" impl)*      left associative
    impl    := or ("->" or)*           right associative
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "!" unary | "(" formula ")" | atom
    atom    := IDENT ["(" IDENT ("," IDENT)* ")"]

A text spelt as render_canonical spells an atom, a negated atom or a
binary connective over two atoms (``S1``, ``(! S1)``, ``(S1 -> S2)``),
the shapes a store holds for nearly every line, is read by one
anchored regex match.  The general route reads such a text, without
error and one connective deep at most, as exactly that tree, so the
match builds the tree directly and keeps the text as its canonical
one.  Every other text, other spacing or nesting included,
takes the general route: one regex scan (findall) turns the text into
token strings, whitespace absorbed into the token after it, and one
loop over them climbs the four binary levels with an explicit stack
(Pratt, "Top Down Operator Precedence", 1973), so no formula costs a
call per grammar level.  Token offsets are found only for an error,
by scanning the text again, so errors are the general route's alone.

Atoms come from a process-wide table keyed by their canonical text: a
spelling is validated once, by whichever route meets it first (both
register an atom through _register), and every compound formula
shares its atom instances, which are immutable leaves that keep their
text.  Every formula parse returns is a new instance, a bare atom a
fresh copy of its shared one, so the compiled form sat keeps on it
lives as long as that instance.  A session parses through its
justification graph's formula table (JustificationGraph.formula),
which keeps one parsed instance per distinct text, so there a formula
and its compiled form serve every later request for the text.

A formula may nest at most MAX_DEPTH connectives deep: every "!" and
every binary operator on the path from the root to an atom counts, and
parentheses do not.  parse refuses a deeper one with NestingLimitError,
a ParseError, so no recursive walk over a parsed formula (rendering,
atoms, clauses, evaluation, equality) can exhaust the interpreter's
stack.

``parse(render_canonical(f))`` returns a formula structurally equal to
``f`` for every formula ``f`` that nests at most MAX_DEPTH deep.
"""

from __future__ import annotations

import re
from string import ascii_letters

from .syntax import And, Atom, Formula, Iff, Implies, Not, Or

# One token per match, the whitespace before it absorbed: an identifier,
# an operator or punctuation, "" at the end of the text, or else the one
# character no token starts with.
_TOKEN_RE = re.compile(
    r"\s*([A-Za-z][A-Za-z0-9_]*|<->|->|[!&|(),]|\Z|.)", re.DOTALL
)
_LETTERS = frozenset(ascii_letters)
_PUNCTUATION = frozenset({"<->", "->", "!", "&", "|", "(", ")", ",", ""})

# Binary operator -> binding power; a larger one binds tighter.
_POWER = {"<->": 1, "->": 2, "|": 3, "&": 4}
_BUILD = {1: Iff, 2: Implies, 3: Or, 4: And}
_RIGHT_ASSOCIATIVE = 2
# Stack entries below every binding power.
_GROUP = 0
_NEGATION = -1

_FORMULA_START = frozenset({"NOT", "LPAREN", "IDENT"})

# The canonical text of an atom, and the canonical shapes parse reads
# with one match: (! A), (A op B) for each binary op, and a bare atom.
_CANONICAL_ATOM = (
    r"[A-Za-z][A-Za-z0-9_]*(?:\([A-Za-z][A-Za-z0-9_]*(?:,[A-Za-z][A-Za-z0-9_]*)*\))?"
)
_SHAPE_RE = re.compile(
    rf"\((?:! |({_CANONICAL_ATOM}) (&|\||->|<->) )({_CANONICAL_ATOM})\)"
    rf"|({_CANONICAL_ATOM})"
)
_SHAPE_BUILD = {"&": And, "|": Or, "->": Implies, "<->": Iff}

# The deepest nesting parse accepts; see the module docstring.  A
# recursive walk over a formula takes stack per connective: one frame
# for syntax._render, syntax._iter_atoms and syntax.evaluate, one for
# sat's clausifying walk (_Walk.clauses) or two at a <->, whose operand
# it names through _Walk._end, two for the dataclass __hash__, and
# three for its __eq__ and __repr__ on Python 3.10 and 3.11, against a
# default recursion limit of 1000 frames; on 3.12 __eq__ stops at 373
# connectives wherever it starts, at the interpreter's C recursion
# limit.  The command line enters these walks at most 23 frames deep
# and the test suite at most 89, and 3 * 256 = 768 frames fit below
# 1000 for a walk entered up to 229 deep.  Versions without the limit
# replayed up to 977 connectives from the command line, where the
# recursion limit stopped the clausifier; a ledger holding a formula
# nested deeper than 256 now reads as reaching a limit, not as damaged.
MAX_DEPTH = 256

# Canonical atom text -> the one shared instance of that atom.
_ATOMS: dict[str, Atom] = {}


class ParseError(ValueError):
    """Syntax error carrying the byte offset and the expected tokens."""

    def __init__(self, message: str, offset: int, expected: frozenset[str]):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = expected


class NestingLimitError(ParseError):
    """A formula nested deeper than MAX_DEPTH."""


class _Stuck(Exception):
    """The parse cannot go on at a token; _error turns this into a
    ParseError, which needs the text to find the token's offset."""

    def __init__(self, index: int, what: str, expected: frozenset[str]):
        self.index = index
        self.what = what
        self.expected = expected


def _error(text: str, tokens: list[str], stuck: _Stuck) -> ParseError:
    """The ParseError for stuck: at the first character no token starts
    with, wherever it stands, else at the token the parse stopped on."""
    offsets = [match.start(1) for match in _TOKEN_RE.finditer(text)]
    for token, offset in zip(tokens, offsets):
        if token not in _PUNCTUATION and token[0] not in _LETTERS:
            return ParseError(
                f"unexpected character {token!r}", offset, frozenset({"token"})
            )
    token = tokens[stuck.index]
    if stuck.what == "EOF":
        message = f"trailing input {token!r}"
    else:
        message = f"expected {stuck.what}, found {token or 'end of input'!r}"
    return ParseError(message, offsets[stuck.index], stuck.expected)


def _is_ident(token: str) -> bool:
    return token[:1] in _LETTERS


def _ident(tokens: list[str], index: int) -> str:
    token = tokens[index]
    if not _is_ident(token):
        raise _Stuck(index, "IDENT", frozenset({"IDENT"}))
    return token


def _rparen(tokens: list[str], index: int) -> int:
    """The index after tokens[index], which must close a parenthesis."""
    if tokens[index] != ")":
        raise _Stuck(index, "RPAREN", frozenset({"RPAREN"}))
    return index + 1


def _atom(tokens: list[str], index: int) -> tuple[Atom, int]:
    """The shared atom that the identifier at tokens[index] starts, and
    the index after it."""
    name = tokens[index]
    index += 1
    if tokens[index] != "(":
        key = name
        args = None
    else:
        args = [_ident(tokens, index + 1)]
        index += 2
        while tokens[index] == ",":
            args.append(_ident(tokens, index + 1))
            index += 2
        index = _rparen(tokens, index)
        key = f"{name}({','.join(args)})"
    atom = _ATOMS.get(key)
    if atom is None:
        atom = _register(key, name, args)
    return atom, index


def _register(key: str, name: str, args: list[str] | None) -> Atom:
    """The shared atom of canonical text key, validated and added to
    the table if it is new there."""
    atom = Atom(name, tuple(args)) if args else Atom(name)
    object.__setattr__(atom, "_text", key)
    return _ATOMS.setdefault(key, atom)


def _shared(key: str) -> Atom:
    """The shared atom of canonical text key, which _SHAPE_RE matched."""
    atom = _ATOMS.get(key)
    if atom is None:
        name, _, args = key.partition("(")
        atom = _register(key, name, args[:-1].split(",") if args else None)
    return atom


def _formula(tokens: list[str]) -> tuple[Formula, int]:
    """The formula that starts the tokens, and the index after it.

    stack holds the binding power of each binary operator still waiting
    for its right operand (its left one is on operands), _GROUP for an
    open parenthesis and _NEGATION for a pending "!".
    """
    operands: list[Formula] = []
    stack: list[int] = []
    index = 0
    while True:
        token = tokens[index]
        while token == "!" or token == "(":
            stack.append(_NEGATION if token == "!" else _GROUP)
            index += 1
            token = tokens[index]
        if not _is_ident(token):
            raise _Stuck(index, "formula", _FORMULA_START)
        node, index = _atom(tokens, index)
        while True:
            while stack and stack[-1] == _NEGATION:
                stack.pop()
                node = Not(node)
            power = _POWER.get(tokens[index])
            if power is not None:
                floor = power + 1 if power == _RIGHT_ASSOCIATIVE else power
                while stack and stack[-1] >= floor:
                    node = _BUILD[stack.pop()](operands.pop(), node)
                operands.append(node)
                stack.append(power)
                index += 1
                break
            while stack and stack[-1] > _GROUP:
                node = _BUILD[stack.pop()](operands.pop(), node)
            if not stack:
                return node, index
            index = _rparen(tokens, index)
            stack.pop()


def _end(tokens: list[str], index: int) -> None:
    if tokens[index]:
        raise _Stuck(index, "EOF", frozenset({"EOF"}))


def _depth(formula: Formula) -> int:
    """The connectives on the longest path from the root to an atom."""
    deepest = 0
    stack = [(formula, 0)]
    while stack:
        node, depth = stack.pop()
        kind = type(node)
        if kind is Atom:
            deepest = max(deepest, depth)
        elif kind is Not:
            stack.append((node.operand, depth + 1))
        else:
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))
    return deepest


def _fresh(atom: Atom) -> Atom:
    """A new instance equal to a shared atom, with its kept text; the
    shared one was validated when it joined the table."""
    fresh = object.__new__(Atom)
    object.__setattr__(fresh, "predicate", atom.predicate)
    object.__setattr__(fresh, "args", atom.args)
    object.__setattr__(fresh, "_text", atom._text)
    return fresh


def parse(text: str) -> Formula:
    """Parse surface syntax into a formula tree.

    Raises ParseError with the byte offset of the first offending token
    and the set of token kinds that would have been accepted there; a
    formula nested deeper than MAX_DEPTH raises NestingLimitError, at
    offset 0 and expecting nothing.
    """
    atom = _ATOMS.get(text)
    if atom is not None:
        return _fresh(atom)
    # Only a canonical compound starts with "(", and a bare atom has no
    # space and no "!": stream spellings such as "S1 -> S2" skip the match.
    shape = None
    if text[:1] == "(" or " " not in text and "!" not in text:
        shape = _SHAPE_RE.fullmatch(text)
    if shape is not None:
        left, op, right, bare = shape.groups()
        if bare is not None:
            return _fresh(_shared(bare))
        operand = _shared(right)
        if op is None:
            formula: Formula = Not(operand)
        else:
            formula = _SHAPE_BUILD[op](_shared(left), operand)
        object.__setattr__(formula, "_text", text)
        return formula
    tokens = _TOKEN_RE.findall(text)
    try:
        formula, index = _formula(tokens)
        _end(tokens, index)
    except _Stuck as stuck:
        raise _error(text, tokens, stuck) from None
    # Each connective is a token of its own, so a formula of fewer tokens
    # cannot nest too deep.
    if len(tokens) > MAX_DEPTH and _depth(formula) > MAX_DEPTH:
        raise NestingLimitError(
            f"formula nests deeper than {MAX_DEPTH}", 0, frozenset()
        )
    return _fresh(formula) if type(formula) is Atom else formula


def parse_atom(text: str) -> Atom:
    """Parse a bare atom such as ``At(Agent1,LocationA)``."""
    tokens = _TOKEN_RE.findall(text)
    try:
        _ident(tokens, 0)
        atom, index = _atom(tokens, 0)
        _end(tokens, index)
    except _Stuck as stuck:
        raise _error(text, tokens, stuck) from None
    return _fresh(atom)
