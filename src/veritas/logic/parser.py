"""Recursive-descent parser for the propositional surface syntax.

Grammar, loosest binding first::

    formula := iff
    iff     := impl ("<->" impl)*      left associative
    impl    := or ("->" or)*           right associative
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "!" unary | "(" formula ")" | atom
    atom    := IDENT ["(" IDENT ("," IDENT)* ")"]

``parse(render_canonical(f))`` returns a formula structurally equal to
``f`` for every formula ``f``.
"""

from __future__ import annotations

import re

from .syntax import And, Atom, Formula, Iff, Implies, Not, Or

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<IDENT>[A-Za-z][A-Za-z0-9_]*)
  | (?P<IFF><->)
  | (?P<ARROW>->)
  | (?P<NOT>!)
  | (?P<AND>&)
  | (?P<OR>\|)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
    """,
    re.VERBOSE,
)


class ParseError(ValueError):
    """Syntax error carrying the byte offset and the expected tokens."""

    def __init__(self, message: str, offset: int, expected: frozenset[str]):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = expected


# A token is (kind, text, offset); the last one is ("EOF", "", len(text)).
_Token = tuple[str, str, int]


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", pos, frozenset({"token"})
            )
        kind = match.lastgroup
        if kind != "WS":
            tokens.append((kind, match.group(), pos))
        pos = match.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


def _unexpected(token: _Token, what: str, expected: frozenset[str]) -> ParseError:
    return ParseError(
        f"expected {what}, found {token[1] or 'end of input'!r}", token[2], expected
    )


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0

    def _expect(self, kind: str) -> str:
        """The text of the next token, which must be of kind."""
        token = self.tokens[self.index]
        if token[0] != kind:
            raise _unexpected(token, kind, frozenset({kind}))
        self.index += 1
        return token[1]

    def _accept(self, kind: str) -> bool:
        if self.tokens[self.index][0] == kind:
            self.index += 1
            return True
        return False

    def expect_end(self) -> None:
        kind, text, offset = self.tokens[self.index]
        if kind != "EOF":
            raise ParseError(f"trailing input {text!r}", offset, frozenset({"EOF"}))

    def parse_iff(self) -> Formula:
        node = self.parse_impl()
        while self._accept("IFF"):
            node = Iff(node, self.parse_impl())
        return node

    def parse_impl(self) -> Formula:
        parts = [self.parse_or()]
        while self._accept("ARROW"):
            parts.append(self.parse_or())
        node = parts[-1]
        for part in reversed(parts[:-1]):
            node = Implies(part, node)
        return node

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while self._accept("OR"):
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Formula:
        node = self.parse_unary()
        while self._accept("AND"):
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Formula:
        kind = self.tokens[self.index][0]
        if kind == "IDENT":
            return self.parse_atom()
        if kind == "NOT":
            self.index += 1
            return Not(self.parse_unary())
        if kind == "LPAREN":
            self.index += 1
            node = self.parse_iff()
            self._expect("RPAREN")
            return node
        raise _unexpected(
            self.tokens[self.index], "formula", frozenset({"NOT", "LPAREN", "IDENT"})
        )

    def parse_atom(self) -> Atom:
        name = self._expect("IDENT")
        if not self._accept("LPAREN"):
            return Atom(name)
        args = [self._expect("IDENT")]
        while self._accept("COMMA"):
            args.append(self._expect("IDENT"))
        self._expect("RPAREN")
        return Atom(name, tuple(args))


def parse(text: str) -> Formula:
    """Parse surface syntax into a formula tree.

    Raises ParseError with the byte offset of the first offending token
    and the set of token kinds that would have been accepted there.
    """
    parser = _Parser(_tokenize(text))
    formula = parser.parse_iff()
    parser.expect_end()
    return formula


def parse_atom(text: str) -> Atom:
    """Parse a bare atom such as ``At(Agent1,LocationA)``."""
    parser = _Parser(_tokenize(text))
    atom = parser.parse_atom()
    parser.expect_end()
    return atom
