"""Parser, canonical rendering, and satisfiability checks.

The satisfiability tests compare the DPLL path against a truth-table
oracle implemented here from scratch, so the two routes share no code
beyond the formula classes themselves.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    cnf_satisfiable,
    deletion_core,
    pair_disjunction,
    random_cnf,
    random_formula,
    reference_compile,
    reference_parse,
    reference_parse_atom,
    tt_entails,
    tt_eval,
    tt_models,
    tt_satisfiable,
    two_pass_clausify,
    witness_valuations,
)

from veritas.logic import sat
from veritas.logic import (
    And,
    Atom,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    ResourceLimitError,
    atoms_of,
    entails,
    evaluate,
    is_consistent,
    is_tautology,
    parse,
    parse_atom,
    render_canonical,
)
from veritas.logic.parser import MAX_DEPTH


class TestParser:
    def test_conjunction_with_implication(self):
        """p & (p -> q) parses and renders fully parenthesised."""
        f = parse("p & (p -> q)")
        assert f == And(Atom("p"), Implies(Atom("p"), Atom("q")))
        assert render_canonical(f) == "(p & (p -> q))"

    def test_negated_predicate_atom(self):
        f = parse("!Locked(Room101)")
        assert f == Not(Atom("Locked", ("Room101",)))
        assert render_canonical(f) == "(! Locked(Room101))"

    def test_atom_arguments_render_without_spaces(self):
        f = parse("At( Agent1 , LocationA )")
        assert render_canonical(f) == "At(Agent1,LocationA)"

    def test_precedence_not_and_or_impl_iff(self):
        """! binds tightest, then &, |, ->, <-> loosest."""
        f = parse("!a & b | c -> d <-> e")
        expected = Iff(
            Implies(Or(And(Not(Atom("a")), Atom("b")), Atom("c")), Atom("d")),
            Atom("e"),
        )
        assert f == expected

    def test_implication_is_right_associative(self):
        assert parse("a -> b -> c") == Implies(
            Atom("a"), Implies(Atom("b"), Atom("c"))
        )

    def test_and_or_fold_left(self):
        assert parse("a & b & c") == And(And(Atom("a"), Atom("b")), Atom("c"))
        assert parse("a | b | c") == Or(Or(Atom("a"), Atom("b")), Atom("c"))

    def test_double_negation_nests(self):
        assert parse("!!p") == Not(Not(Atom("p")))

    def test_dangling_arrow_reports_offset(self):
        """p -> with nothing after it fails at byte offset 4."""
        with pytest.raises(ParseError) as err:
            parse("p ->")
        assert err.value.offset == 4

    def test_unbalanced_paren_reports_expected_tokens(self):
        with pytest.raises(ParseError) as err:
            parse("(p & q")
        assert "RPAREN" in err.value.expected

    def test_bad_character_rejected(self):
        with pytest.raises(ParseError):
            parse("p @ q")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse("")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse("p q")

    def test_parse_atom_helper_rejects_connectives(self):
        assert parse_atom("HasKey(Agent2,Room101)") == Atom(
            "HasKey", ("Agent2", "Room101")
        )
        with pytest.raises(ParseError):
            parse_atom("p & q")


FORMULA_START = frozenset({"NOT", "LPAREN", "IDENT"})


class TestParseErrors:
    """Every ParseError raise site: message, offset and expected kinds."""

    @pytest.mark.parametrize(
        "text, message, offset, expected",
        [
            ("p @ q", "unexpected character '@'", 2, {"token"}),
            ("p\tq\n;", "unexpected character ';'", 4, {"token"}),
            ("(p & q", "expected RPAREN, found 'end of input'", 6, {"RPAREN"}),
            ("(p q)", "expected RPAREN, found 'q'", 3, {"RPAREN"}),
            ("P(", "expected IDENT, found 'end of input'", 2, {"IDENT"}),
            ("P(a,)", "expected IDENT, found ')'", 4, {"IDENT"}),
            ("P(a b)", "expected RPAREN, found 'b'", 4, {"RPAREN"}),
            ("p q", "trailing input 'q'", 2, {"EOF"}),
            ("p)", "trailing input ')'", 1, {"EOF"}),
            ("p ->", "expected formula, found 'end of input'", 4, FORMULA_START),
            ("& p", "expected formula, found '&'", 0, FORMULA_START),
            ("", "expected formula, found 'end of input'", 0, FORMULA_START),
            ("a <-> (b | )", "expected formula, found ')'", 11, FORMULA_START),
        ],
    )
    def test_parse(self, text, message, offset, expected):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (str(err.value), err.value.offset, err.value.expected) == (
            f"{message} at offset {offset}",
            offset,
            frozenset(expected),
        )

    @pytest.mark.parametrize(
        "text, message, offset, expected",
        [
            ("P(a;b)", "unexpected character ';'", 3, {"token"}),
            ("!p", "expected IDENT, found '!'", 0, {"IDENT"}),
            ("", "expected IDENT, found 'end of input'", 0, {"IDENT"}),
            ("P(a", "expected RPAREN, found 'end of input'", 3, {"RPAREN"}),
            ("P(,a)", "expected IDENT, found ','", 2, {"IDENT"}),
            ("p & q", "trailing input '&'", 2, {"EOF"}),
            ("P(a)(b)", "trailing input '('", 4, {"EOF"}),
        ],
    )
    def test_parse_atom(self, text, message, offset, expected):
        with pytest.raises(ParseError) as err:
            parse_atom(text)
        assert (str(err.value), err.value.offset, err.value.expected) == (
            f"{message} at offset {offset}",
            offset,
            frozenset(expected),
        )


_ident = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,3}", fullmatch=True)
formulas = st.recursive(
    st.builds(Atom, _ident, st.lists(_ident, max_size=3).map(tuple)),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Iff, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(And, sub, sub),
    ),
    max_leaves=12,
)


def nested(depth: int, kind: str) -> str:
    """A formula over six atoms whose longest root-to-atom path has
    depth connectives."""
    atoms = [f"a{i % 6}" for i in range(depth + 1)]
    if kind == "not":
        return "!" * depth + "p"
    if kind == "and":  # left associative: the left spine is the long path
        return " & ".join(atoms)
    if kind == "implies":  # right associative
        return " -> ".join(atoms)
    # Parentheses nest on the right of each <->, which is left associative.
    return "(".join(f"{a} <-> " for a in atoms[:-1]) + atoms[-1] + ")" * (depth - 1)


class TestNestingLimit:
    """parse refuses a formula nested deeper than MAX_DEPTH, so no
    recursive walk over a parsed formula meets a deeper tree."""

    @pytest.mark.parametrize("kind", ["not", "and", "implies", "iff"])
    def test_limit_is_accepted_and_one_more_refused(self, kind):
        f = parse(nested(MAX_DEPTH, kind))
        # Every recursive walker handles the deepest accepted tree and
        # its negation: rendering, atoms, clauses and the truth table.
        assert parse(render_canonical(f)) == f
        assert is_consistent([f]) == tt_satisfiable([f])
        assert entails([f], Atom("a0")) == tt_entails([f], Atom("a0"))
        with pytest.raises(ParseError) as err:
            parse(nested(MAX_DEPTH + 1, kind))
        assert (str(err.value), err.value.offset, err.value.expected) == (
            f"formula nests deeper than {MAX_DEPTH} at offset 0",
            0,
            frozenset(),
        )

    def test_parentheses_do_not_count(self):
        text = "(" * 3 * MAX_DEPTH + "p & q" + ")" * 3 * MAX_DEPTH
        assert parse(text) == And(Atom("p"), Atom("q"))

    def test_thousands_deep_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse("!" * 3000 + "p")


class TestCanonicalRoundTrip:
    def test_random_asts_round_trip(self):
        """1000 random trees of depth at most 6 survive parse(render(f))."""
        rng = random.Random(20240817)
        atoms = [
            Atom("p"),
            Atom("q"),
            Atom("r"),
            Atom("At", ("Agent1", "LocationA")),
            Atom("Locked", ("Room101",)),
        ]
        seen: dict[str, Formula] = {}
        for _ in range(1000):
            f = random_formula(rng, atoms, 6)
            text = render_canonical(f)
            assert parse(text) == f
            if text in seen:
                assert seen[text] == f
            seen[text] = f

    @settings(max_examples=200, deadline=None)
    @given(formulas)
    def test_generated_formulas_round_trip(self, f):
        """Nested <->, -> and ! over atoms with arguments."""
        assert parse(render_canonical(f)) == f

    def test_rendering_distinguishes_association(self):
        left = And(And(Atom("a"), Atom("b")), Atom("c"))
        right = And(Atom("a"), And(Atom("b"), Atom("c")))
        assert render_canonical(left) != render_canonical(right)


# Separators the scanner must skip: \s treats the Unicode ones as
# whitespace too.
_SPACES = ["", " ", "  ", "\t", "\n", "\u00a0", "\u2003"]
# Operator and binding power of each connective, as the grammar gives
# them; only -> groups to the right.
_SPELLED = {Iff: ("<->", 1), Implies: ("->", 2), Or: ("|", 3), And: ("&", 4)}


def spell(formula: Formula, rng: random.Random) -> str:
    """Surface text of formula with random spacing, parenthesised only
    where the grammar needs it or where a coin says so."""

    def gap() -> str:
        return rng.choice(_SPACES)

    def wrap(text: str, needed: bool) -> str:
        if needed or rng.random() < 0.2:
            return f"({gap()}{text}{gap()})"
        return text

    def walk(f: Formula) -> tuple[str, int]:
        """The text of f and the binding power it ends up with."""
        if isinstance(f, Atom):
            if not f.args:
                return f.predicate, 9
            args = f",{gap()}".join(f.args)
            return f"{f.predicate}{gap()}({gap()}{args}{gap()})", 9
        if isinstance(f, Not):
            inner, power = walk(f.operand)
            return f"!{gap()}{wrap(inner, power < 5)}", 5
        op, power = _SPELLED[type(f)]
        left, left_power = walk(f.left)
        right, right_power = walk(f.right)
        to_right = op == "->"
        left = wrap(left, left_power < power or (left_power == power and to_right))
        right = wrap(right, right_power < power or (right_power == power and not to_right))
        return f"{left}{gap()}{op}{gap()}{right}", power

    return gap() + walk(formula)[0] + gap()


def outcome(parser, text: str):
    """The tree parser makes of text, or its error's message, offset and
    expected kinds."""
    try:
        return parser(text)
    except ParseError as err:
        return (str(err), err.offset, err.expected)


_SOUP = st.lists(
    st.sampled_from(
        [
            "p", "Q", "At", "a1", "x_y", "7", "0a", "<", "-", ">", "<-", "->",
            "<->", "!", "&", "|", "(", ")", ",", "é", "λx", "Ab\u00df",
            "@", ";", *_SPACES,
        ]
    ),
    max_size=14,
).map("".join)


class TestParserParity:
    """The operator-precedence parser against the recursive-descent one
    it replaced, kept in oracles as reference_parse."""

    @settings(max_examples=200, deadline=None)
    @given(formulas, st.randoms(use_true_random=False))
    def test_spelled_formulas_give_equal_trees(self, f, rng):
        text = spell(f, rng)
        assert parse(text) == reference_parse(text) == f

    @settings(max_examples=600, deadline=None)
    @given(_SOUP)
    def test_token_soup_gives_equal_trees_or_errors(self, text):
        assert outcome(parse, text) == outcome(reference_parse, text)
        assert outcome(parse_atom, text) == outcome(reference_parse_atom, text)

    @pytest.mark.parametrize(
        "text",
        [
            "p\u00a0&\u2003q",
            "\u2003At(\u00a0a ,b)",
            "p - > q",
            "p <- q",
            "p <-",
            "a & é",
            "é & (",
            "(p & q",
            "a b @",
            "P(a b",
            "!!(p)",
            "p -> q -> r <-> s | t & u",
        ],
    )
    def test_edge_spellings_agree(self, text):
        assert outcome(parse, text) == outcome(reference_parse, text)
        assert outcome(parse_atom, text) == outcome(reference_parse_atom, text)


class TestSatisfiability:
    def test_modus_ponens_entailment(self):
        base = [parse("p"), parse("p -> q")]
        assert entails(base, parse("q"))
        assert not is_consistent(base + [parse("!q")])

    def test_empty_base_entails_only_tautologies(self):
        assert entails([], parse("p | !p"))
        assert not entails([], parse("p"))
        assert is_tautology(parse("(p -> q) | (q -> p)"))

    def test_contradiction_entails_everything(self):
        assert entails([parse("p & !p")], parse("q"))

    def test_agreement_with_truth_table_on_random_sets(self):
        """DPLL and brute-force enumeration agree on 300 random bases."""
        rng = random.Random(99173)
        atoms = [Atom("p"), Atom("q"), Atom("r"), Atom("s")]
        for _ in range(300):
            base = [random_formula(rng, atoms, 4) for _ in range(rng.randrange(1, 4))]
            goal = random_formula(rng, atoms, 4)
            assert is_consistent(base) == bool(tt_models(base))
            assert entails(base, goal) == (not tt_models(base + [Not(goal)]))

    def test_entailment_is_monotone(self):
        rng = random.Random(5511)
        atoms = [Atom("p"), Atom("q"), Atom("r")]
        for _ in range(100):
            base = [random_formula(rng, atoms, 3) for _ in range(2)]
            extra = random_formula(rng, atoms, 3)
            goal = random_formula(rng, atoms, 3)
            if entails(base, goal):
                assert entails(base + [extra], goal)

    def test_evaluate_matches_oracle(self):
        rng = random.Random(730)
        atoms = [Atom("p"), Atom("q")]
        for _ in range(50):
            f = random_formula(rng, atoms, 4)
            for bits in range(4):
                env = {atoms[0]: bool(bits & 1), atoms[1]: bool(bits & 2)}
                assert evaluate(f, env) == tt_eval(f, env)

    def test_atom_budget_enforced(self):
        wide = [Atom(f"a{i}") for i in range(65)]
        big = wide[0]
        for atom in wide[1:]:
            big = And(big, atom)
        with pytest.raises(ResourceLimitError):
            is_consistent([big])
        assert is_consistent([big], max_atoms=65)

    def test_atoms_of_collects_duplicates_once(self):
        f = parse("p & (p -> q)")
        assert atoms_of(f) == frozenset({Atom("p"), Atom("q")})


def parity(atoms: list[Atom]) -> Formula:
    """a1 <-> a2 <-> ... : its CNF has 2^(n-1) clauses over n atoms."""
    formula: Formula = atoms[0]
    for atom in atoms[1:]:
        formula = Iff(formula, atom)
    return formula


@pytest.fixture()
def compilations(monkeypatch):
    """Record every formula the checker compiles."""
    compiled = []
    original = sat._compile

    def spy(formula):
        compiled.append(formula)
        return original(formula)

    monkeypatch.setattr(sat, "_compile", spy)
    return compiled


class TestCompiledConsistency:
    """Per-instance compiled clauses against the truth-table oracle."""

    def test_shared_instances_agree_with_truth_table(self):
        """Formulas compiled once answer every later query correctly."""
        rng = random.Random(40213)
        atoms = [Atom(name) for name in ("p", "q", "r", "s", "t")]
        pool = [random_formula(rng, atoms, 5) for _ in range(60)]
        for _ in range(400):
            base = rng.sample(pool, rng.randrange(0, 5))
            goal = rng.choice(pool)
            assert is_consistent(base) == tt_satisfiable(base)
            assert entails(base, goal) == tt_entails(base, goal)

    def test_every_connective_reaches_the_solver(self):
        p, q, r = Atom("p"), Atom("q"), Atom("r")
        cases = [
            Not(p), And(p, q), Or(p, q), Implies(p, q), Iff(p, q),
            Not(Iff(p, Or(q, Not(r)))), Iff(Implies(p, q), And(r, Not(p))),
            Or(p, Not(p)), And(p, Not(p)),
        ]
        for f in cases:
            for g in cases:
                assert is_consistent([f, g]) == tt_satisfiable([f, g])
                assert entails([f], g) == tt_entails([f], g)

    def test_deep_parity_agrees_with_truth_table(self):
        """14-atom parity, whose plain distribution has 2^13 clauses,
        compiles by naming subformulas."""
        atoms = [Atom(f"x{i}") for i in range(14)]
        odd = parity(atoms)
        assert sat._compiled(odd).fresh_ids
        assert is_consistent([odd]) == tt_satisfiable([odd])
        assert is_consistent([odd, Not(odd)]) is False
        flipped = Iff(Not(atoms[0]), parity(atoms[1:]))
        assert is_consistent([odd, flipped]) == tt_satisfiable([odd, flipped])
        assert entails([odd], Or(odd, atoms[3]))

    def test_joined_disjunctions_of_pairs_agree_with_truth_table(self):
        """Three formulas whose plain distributions hold 6,144 clauses
        together."""
        atoms = [Atom(f"y{i}") for i in range(12)]

        def disjunction_of_pairs(step: int) -> Formula:
            # 11 disjuncts of two atoms each: 2^11 = 2048 clauses.
            pairs = [And(atoms[i], atoms[(i + step) % 12]) for i in range(11)]
            formula = pairs[0]
            for pair in pairs[1:]:
                formula = Or(formula, pair)
            return formula

        parts = [disjunction_of_pairs(step) for step in (1, 3, 5)]
        for part in parts:
            assert is_consistent([part])
        assert is_consistent(parts) == tt_satisfiable(parts)
        negated = parts[:2] + [Not(parts[2])]
        assert is_consistent(negated) == tt_satisfiable(negated)

    def test_wide_disjunction_of_pairs_is_decided(self):
        """(a0 & b0) | ... | (a12 & b12), 2^13 clauses by plain
        distribution over 26 atoms: too many atoms for a truth table, so
        the witness is checked, and the refutation follows from each
        pair losing its a."""
        pairs = [And(Atom(f"a{i}"), Atom(f"b{i}")) for i in range(13)]
        wide = pairs[0]
        for pair in pairs[1:]:
            wide = Or(wide, pair)
        found: list[sat.Witness] = []
        assert is_consistent([wide], witnesses=found)
        for valuation in witness_valuations(found[0], [wide]):
            assert tt_eval(wide, valuation)
        blocked = [Not(Atom(f"a{i}")) for i in range(13)]
        assert not is_consistent([wide, *blocked])
        assert entails([wide, *blocked[:12]], Atom("b12"))

    def test_atom_limit_holds_for_a_compiled_formula(self):
        wide = [Atom(f"w{i}") for i in range(65)]
        big = wide[0]
        for atom in wide[1:]:
            big = And(big, atom)
        assert is_consistent([big], max_atoms=65)
        with pytest.raises(ResourceLimitError):
            is_consistent([big])
        with pytest.raises(ResourceLimitError):
            is_consistent([wide[0], And(wide[1], big)])

    def test_each_instance_compiles_once(self, compilations):
        first = parse("(a | b) -> !(c <-> d)")
        is_consistent([first])
        is_consistent([first, Atom("a")])
        entails([first], Atom("c"))
        assert sum(1 for f in compilations if f is first) == 1
        assert len(compilations) == 3  # first, a, and the negated goal

    def test_reparsing_compiles_a_fresh_instance(self, compilations):
        text = "(a & b) | (c -> !a)"
        first = parse(text)
        assert is_consistent([first])
        again = parse(text)
        assert again == first and again is not first
        assert is_consistent([again])
        assert [f is first for f in compilations] == [True, False]
        assert compilations[1] is again

    def test_compiled_state_leaves_equality_and_rendering_alone(self):
        first = parse("p -> (q | !r)")
        is_consistent([first])
        again = parse("p -> (q | !r)")
        assert first == again and hash(first) == hash(again)
        assert repr(first) == repr(again)
        assert render_canonical(first) == render_canonical(again)

    def test_complementary_pair_keys_match_the_structural_check(self):
        """The key-based pre-filter agrees with a tree comparison.

        Formulas are re-built from their rendering, so a match must come
        from equal structure, not from shared instances.
        """

        def structural(formulas: list[Formula]) -> bool:
            seen = set(formulas)
            return any(
                isinstance(f, Not) and f.operand in seen for f in formulas
            )

        rng = random.Random(90417)
        atoms = [Atom(name) for name in ("p", "q", "r")] + [Atom("P", ("a", "b"))]
        hits = 0
        for _ in range(600):
            pool = [random_formula(rng, atoms, 3) for _ in range(rng.randrange(1, 5))]
            for _ in range(rng.randrange(0, 3)):
                negated = rng.choice(pool)
                for _ in range(rng.randrange(1, 4)):
                    negated = Not(negated)
                pool.append(negated)
            formulas = [
                parse(render_canonical(f)) if rng.random() < 0.5 else f
                for f in pool
            ]
            rng.shuffle(formulas)
            expected = structural(formulas)
            hits += expected
            assert sat._has_complementary_pair(formulas) == expected
        assert 100 < hits < 500


_SHAPE_ATOMS = st.builds(
    Atom, st.sampled_from(["p", "q", "Rz"]), st.sampled_from([(), ("a",), ("a", "b")])
)
_SHAPE_LITERALS = _SHAPE_ATOMS | _SHAPE_ATOMS.map(Not)
# Literals, double negations and every binary connective over two
# literals, the same atom on both sides as often as not.
_SHAPES = st.one_of(
    _SHAPE_LITERALS,
    _SHAPE_LITERALS.map(Not),
    st.builds(
        lambda kind, left, right: kind(left, right),
        st.sampled_from([And, Or, Implies, Iff]),
        _SHAPE_LITERALS,
        _SHAPE_LITERALS,
    ),
)


def compile_with_table(compile_, formula: Formula, known: list[Atom]):
    """compile_(formula) over a fresh atom table that holds only known,
    given ids in that order: the formula's other atoms are new to it."""
    saved = sat._ATOM_IDS
    sat._ATOM_IDS = sat._AtomIds()
    try:
        for atom in known:
            sat._ATOM_IDS[atom]
        return compile_(formula)
    finally:
        sat._ATOM_IDS = saved


def is_shape(f: Formula) -> bool:
    """A literal, its negation, or a binary connective over two literals."""

    def literal(g: Formula) -> bool:
        return isinstance(g, Atom) or isinstance(g, Not) and isinstance(g.operand, Atom)

    if isinstance(f, Not):
        return literal(f) or literal(f.operand)
    if isinstance(f, (And, Or, Implies, Iff)):
        return literal(f.left) and literal(f.right)
    return isinstance(f, Atom)


class TestCompileParity:
    """The definitional walk against plain distribution, kept in oracles
    as reference_compile."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(_SHAPES, formulas), st.data())
    @example(parse("p -> p"), None)
    @example(parse("p | !p"), None)
    @example(parse("!!p"), None)
    @example(parse("p & p"), None)
    @example(parse("p <-> q"), None)
    @example(parse("!q -> !p"), None)
    def test_same_ids_clauses_and_key(self, f, data):
        """A shape names nothing.  A formula that names nothing has the
        same atom ids (new atoms numbered in sorted order, after the
        known ones) and the same clauses in the same order as plain
        distribution.  Every formula's clauses have the truth table's
        verdict."""
        known = []
        if data is not None:
            known = data.draw(st.permutations(sorted(atoms_of(f), key=repr)))
            known = known[: data.draw(st.integers(0, len(known)))]
        compiled = compile_with_table(sat._compile, f, known)
        if is_shape(f):
            assert compiled.fresh_ids == ()
        if not compiled.fresh_ids:
            assert compiled == compile_with_table(reference_compile, f, known)
        model = sat._dpll(
            list(compiled.clauses), [*compiled.atom_ids, *compiled.fresh_ids]
        )
        assert (model is not None) == tt_satisfiable([f])

    def test_new_atoms_join_the_process_table_in_sorted_order(self):
        """A shape whose atoms the process has never seen numbers them in
        sorted atom order, whichever side of the connective they sit on."""
        f = Implies(Not(Atom("Zz_never_seen")), Atom("Aa_never_seen"))
        compiled = sat._compiled(f)
        first, second = sat._ATOM_IDS[Atom("Aa_never_seen")], sat._ATOM_IDS[Atom("Zz_never_seen")]
        assert second == first + 1
        assert compiled.clauses == (frozenset({first, second}),)


class TestClausify:
    def test_one_walk_matches_the_two_pass_oracle(self):
        """A walk that names nothing gives the clauses, in order, of
        building the negation normal form and distributing it.  Every
        formula gets the truth table's verdict, and past 14 atoms a
        witness that models it."""
        rng = random.Random(5150)
        atoms = [Atom(name) for name in "pqrstu"] + [Atom("At", ("A", "B"))]
        formulas = [random_formula(rng, atoms, 5) for _ in range(3000)]
        # (x0 & y0) | ... | (x11 & y11) has 4096 clauses by plain
        # distribution, over 24 atoms.
        wide = And(Atom("x0"), Atom("y0"))
        for i in range(1, 12):
            wide = Or(And(Atom(f"x{i}"), Atom(f"y{i}")), wide)
        formulas += [wide, And(wide, atoms[0]), Or(wide, atoms[0]), Not(wide)]
        named = set()
        for f in formulas:
            compiled = sat._compiled(f)
            named.add(bool(compiled.fresh_ids))
            if not compiled.fresh_ids:
                assert compiled.clauses == two_pass_clausify(f)
            found: list[sat.Witness] = []
            verdict = is_consistent([f], witnesses=found)
            if len(compiled.atom_ids) <= 14:
                assert verdict == tt_satisfiable([f])
            else:
                assert verdict
            for valuation in witness_valuations(found[0], [f]) if verdict else ():
                assert tt_eval(f, valuation)
        assert named == {True, False}


_WALK_ATOMS = [Atom(name) for name in ("p", "q", "r", "s", "Tv")]


def formulas_to_depth(depth: int):
    """Formulas over _WALK_ATOMS nested at most depth connectives deep."""
    if depth == 0:
        return st.sampled_from(_WALK_ATOMS)
    sub = formulas_to_depth(depth - 1)
    return st.one_of(
        st.sampled_from(_WALK_ATOMS),
        st.builds(Not, sub),
        *(st.builds(kind, sub, sub) for kind in (And, Or, Implies, Iff)),
    )


def iff_chain(atoms: list[Atom], connectives: int, nesting: str) -> Formula:
    """atoms[0] <-> atoms[1] <-> ..., cycling through atoms, nested to
    the left or to the right."""
    chain: Formula = atoms[0]
    for i in range(1, connectives + 1):
        atom = atoms[i % len(atoms)]
        chain = Iff(chain, atom) if nesting == "left" else Iff(atom, chain)
    return chain


class TestDefinitionalWalk:
    """Named subformulas against truth tables and witnesses."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(formulas_to_depth(6), min_size=1, max_size=3), formulas_to_depth(6))
    def test_random_formulas_agree_with_truth_tables(self, base, goal):
        found: list[sat.Witness] = []
        verdict = is_consistent(base, witnesses=found)
        assert verdict == tt_satisfiable(base)
        for valuation in witness_valuations(found[0], base) if verdict else ():
            assert all(tt_eval(f, valuation) for f in base)
        assert entails(base, goal) == tt_entails(base, goal)

    @pytest.mark.parametrize("nesting", ["left", "right"])
    @pytest.mark.parametrize("atom_count", [2, 40])
    def test_deepest_iff_chain_compiles_and_solves(self, atom_count, nesting):
        """A chain as deep as the parser allows: at most 8 clauses per
        connective, and both it and its negation decided within 1 s."""
        atoms = [Atom(f"c{i}") for i in range(atom_count)]
        chain = iff_chain(atoms, MAX_DEPTH, nesting)
        start = time.perf_counter()
        compiled = sat._compiled(chain)
        verdicts, found = [], []
        for formula in (chain, Not(chain)):
            verdicts.append(is_consistent([formula], witnesses=found))
        elapsed = time.perf_counter() - start
        assert len(compiled.clauses) <= 8 * MAX_DEPTH
        assert elapsed < 1.0
        if atom_count <= 14:
            assert verdicts == [tt_satisfiable([chain]), tt_satisfiable([Not(chain)])]
        # Some atom occurs an odd number of times, so both are satisfiable.
        assert verdicts == [True, True]
        for witness, formula in zip(found, (chain, Not(chain))):
            for valuation in witness_valuations(witness, [formula]):
                assert tt_eval(formula, valuation)


class TestWitness:
    """Models kept from DPLL, and their one-formula extension."""

    def test_dpll_models_satisfy_their_formulas(self):
        rng = random.Random(61447)
        atoms = [Atom(name) for name in "pqrstu"]
        witnessed = 0
        for _ in range(400):
            formulas = [random_formula(rng, atoms, 4) for _ in range(rng.randrange(0, 6))]
            found: list[sat.Witness] = []
            verdict = is_consistent(formulas, witnesses=found)
            assert verdict == tt_satisfiable(formulas)
            assert len(found) == int(verdict)
            if not found:
                continue
            witnessed += 1
            witness = found[0]
            compiled = [sat._compiled(f) for f in formulas]
            assert witness.atom_ids == frozenset().union(*(c.atom_ids for c in compiled))
            assert not any(-lit in witness.literals for lit in witness.literals)
            for valuation in witness_valuations(witness, formulas):
                assert all(tt_eval(f, valuation) for f in formulas)
        assert 100 < witnessed < 400

    def test_extension_is_a_model_or_undecided(self):
        rng = random.Random(7121)
        atoms = [Atom(name) for name in "pqrstu"]
        extended = undecided = 0
        for _ in range(400):
            formulas = [random_formula(rng, atoms, 3) for _ in range(rng.randrange(0, 5))]
            found: list[sat.Witness] = []
            if not is_consistent(formulas, witnesses=found):
                continue
            incoming = random_formula(rng, atoms, 3)
            witness = sat.extend_witness(found[0], incoming)
            if witness is None:
                undecided += 1
                continue
            extended += 1
            joined = formulas + [incoming]
            assert found[0].literals <= witness.literals
            for valuation in witness_valuations(witness, joined):
                assert all(tt_eval(f, valuation) for f in joined)
        assert extended > 100 and undecided > 20

    def test_parity_verdicts_keep_a_witness(self):
        """A witness's literals may name fresh variables, but its atom
        ids are the formulas' atoms alone."""
        odd = parity([Atom(f"x{i}") for i in range(14)])
        found: list[sat.Witness] = []
        assert is_consistent([odd], witnesses=found)
        assert found[0].atom_ids == sat._compiled(odd).atom_ids
        for valuation in witness_valuations(found[0], [odd]):
            assert tt_eval(odd, valuation)

    def test_extension_past_the_atom_limit_is_undecided(self):
        wide = [Atom(f"w{i}") for i in range(65)]
        big = wide[0]
        for atom in wide[1:64]:
            big = And(big, atom)
        found: list[sat.Witness] = []
        assert is_consistent([big], witnesses=found)
        assert len(found[0].atom_ids) == 64
        assert sat.extend_witness(found[0], wide[64]) is None
        with pytest.raises(ResourceLimitError):
            is_consistent([big, wide[64]])
        assert sat.extend_witness(found[0], Or(wide[3], Not(wide[7]))) is not None

    def test_wide_disjunctions_are_extended_and_decided(self):
        """Two disjunctions of eleven pairs each, 4,096 clauses by plain
        distribution, and then z: 45 atoms, so witnesses are checked."""
        parts = [pair_disjunction("u"), pair_disjunction("v")]
        found: list[sat.Witness] = []
        assert is_consistent(parts, witnesses=found)
        joined = parts + [Atom("z")]
        witness = sat.extend_witness(found[0], Atom("z"))
        assert witness is not None
        for valuation in witness_valuations(witness, joined):
            assert all(tt_eval(f, valuation) for f in joined)
        assert is_consistent(joined)
        # The parts do not entail z: a witness models them with z false.
        refuting = parts + [Not(Atom("z"))]
        found.clear()
        assert is_consistent(refuting, witnesses=found)
        for valuation in witness_valuations(found[0], refuting):
            assert all(tt_eval(f, valuation) for f in refuting)
        assert not entails(parts, Atom("z"))

    def test_atom_ids_follow_sorted_atom_order(self):
        """New atoms get ids in sorted order, not set order.

        DPLL branches on the smallest id, so ids that followed the hash
        seed would give different witnesses, and different witness hit
        counts, in different processes.
        """
        formula = parse("Wq(x) | (Wa(y) & (Wm(x) -> Wa(x)))")
        sat._compiled(formula)
        ids = [sat._ATOM_IDS[parse_atom(text)] for text in ("Wa(x)", "Wa(y)", "Wm(x)", "Wq(x)")]
        assert ids == list(range(ids[0], ids[0] + 4))

    def test_negated_goal_compiles_once_per_goal(self, compilations):
        base = [parse("p"), parse("p -> q")]
        goal = parse("q")
        for _ in range(100):
            assert entails(base, goal)
        negations = [f for f in compilations if isinstance(f, Not) and f.operand is goal]
        assert len(negations) == 1
        assert len(compilations) == 3
        # The goal keeps the negation's compiled form, not the negation.
        assert not any(isinstance(v, Not) for v in vars(goal).values())


class TestWatchedLiteralSolver:
    """The iterative DPLL solver against brute force."""

    def test_verdicts_and_models_on_random_clause_sets(self):
        """Clauses of one to four literals over eight atoms, around the
        3-SAT threshold, so propagation, watch moves and backtracking all
        run; every model satisfies every clause."""
        rng = random.Random(52711)
        verdicts = []
        for _ in range(600):
            clauses = random_cnf(rng, 8, rng.randrange(1, 45), 4)
            atom_ids = {abs(lit) for clause in clauses for lit in clause}
            model = sat._dpll(clauses, atom_ids)
            verdicts.append(model is not None)
            assert verdicts[-1] == cnf_satisfiable(clauses, 8)
            if model is None:
                continue
            assert not any(-lit in model for lit in model)
            assert {abs(lit) for lit in model} == atom_ids
            picks = sat._picks(clauses, model)
            assert picks <= model
            assert all(not picks.isdisjoint(clause) for clause in clauses)
        assert 150 < sum(verdicts) < 450

    def test_witnesses_pick_literals_and_model_their_formulas(self):
        rng = random.Random(9203)
        atoms = [Atom(name) for name in "pqrstuvw"]
        witnessed = free = 0
        for _ in range(300):
            formulas = [random_formula(rng, atoms, 3) for _ in range(rng.randrange(1, 7))]
            found: list[sat.Witness] = []
            verdict = is_consistent(formulas, witnesses=found)
            assert verdict == tt_satisfiable(formulas)
            if not verdict:
                continue
            witnessed += 1
            witness = found[0]
            free += len(witness.atom_ids - {abs(lit) for lit in witness.literals})
            for valuation in witness_valuations(witness, formulas):
                assert all(tt_eval(f, valuation) for f in formulas)
        assert witnessed > 100
        # One pick per clause leaves atoms free that a full model would fix.
        assert free > witnessed

    def test_a_pick_is_reused_across_clauses(self):
        """Pa gets the smallest of these fresh ids, so the first clause
        picks it and the others, which it satisfies, pick nothing."""
        formulas = [parse("Pa | Pb"), parse("Pa | Pc"), parse("Pd | Pa")]
        found: list[sat.Witness] = []
        assert is_consistent(formulas, witnesses=found)
        assert found[0].literals == {sat._ATOM_IDS[Atom("Pa")]}

    def test_limits_still_raise(self):
        wide = [Atom(f"x{i}") for i in range(65)]
        with pytest.raises(ResourceLimitError):
            entails(wide[:64], wide[64])
        assert entails(wide[:63], wide[0])


def entailment_cases(rng: random.Random, count: int):
    """(formulas, goal) pairs over six atoms where the formulas entail the
    goal; some formula sets are inconsistent."""
    atoms = [Atom(name) for name in "pqrstu"]
    cases = []
    while len(cases) < count:
        formulas = list(
            {
                render_canonical(f): f
                for f in (random_formula(rng, atoms, 2) for _ in range(rng.randrange(1, 9)))
            }.values()
        )
        goal = random_formula(rng, atoms, 2)
        if tt_entails(formulas, goal):
            cases.append((formulas, goal))
    return cases


class TestPreferredConflict:
    """QuickXplain keeps exactly what the key-order deletion loop keeps."""

    def test_entailed_cases_match_the_deletion_loop(self):
        inconsistent = 0
        for formulas, goal in entailment_cases(random.Random(3301), 600):
            in_key_order = sorted(formulas, key=render_canonical)
            expected = deletion_core([], in_key_order, lambda fs: tt_entails(fs, goal))
            kept = sat.preferred_conflict(
                [], in_key_order[::-1], lambda fs: entails(fs, goal)
            )
            assert kept == expected[::-1]
            inconsistent += not tt_satisfiable(formulas)
        assert inconsistent > 30

    def test_cores_with_a_hard_part_match_the_deletion_loop(self):
        rng = random.Random(8812)
        atoms = [Atom(name) for name in "pqrs"]
        checked = 0
        while checked < 300:
            hard = [random_formula(rng, atoms, 2)]
            formulas = list(
                {
                    render_canonical(f): f
                    for f in (random_formula(rng, atoms, 2) for _ in range(rng.randrange(1, 8)))
                }.values()
            )
            if tt_satisfiable(hard + formulas):
                continue
            checked += 1
            expected = deletion_core(hard, formulas[::-1], lambda fs: not tt_satisfiable(fs))
            kept = sat.preferred_conflict(hard, formulas, lambda fs: not is_consistent(fs))
            assert kept == expected[::-1]

    @pytest.mark.parametrize(
        "needed, checks", [((0,), 7), ((40,), 9), ((63,), 13), ((3, 50), 17)]
    )
    def test_few_checks_for_a_small_conflict(self, needed, checks):
        """A conflict of one or two formulas out of 64 takes a number of
        checks logarithmic in 64, where the deletion loop takes 64; the
        counts are pinned, so no check is repeated or skipped."""
        atoms = [Atom(f"y{i}") for i in range(64)]
        checked = []

        def conflict(formulas):
            checked.append(len(formulas))
            return all(atoms[i] in formulas for i in needed)

        kept = sat.preferred_conflict([], atoms, conflict)
        assert kept == [atoms[i] for i in needed]
        assert len(checked) == checks

    def test_a_tautology_needs_no_support(self):
        assert sat.preferred_conflict(
            [], [parse("p"), parse("q")], lambda fs: entails(fs, parse("p | !p"))
        ) == []

    def test_limits_raise_through_the_test(self):
        wide = [Atom(f"z{i}") for i in range(65)]
        with pytest.raises(ResourceLimitError):
            sat.preferred_conflict(
                wide[:63], wide[63:], lambda fs: entails(fs, wide[64])
            )
