"""Typed STRIPS domains: ontology, action schemas, and world states.

An ontology is a concept set with an acyclic subsumption relation and a
typing map from entity and policy names to concepts.  Action schemas
carry positive and negative precondition literals plus disjoint add and
delete sets; states are closed-world sets of ground atoms.  Domains are
loaded from a line-oriented text format (``concept``, ``entity``,
``action``, ``init:``, ``goal:`` lines).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..logic import Atom, render_canonical
from ..logic import parse_atom as _parse_atom


class OntologyError(ValueError):
    """A typing declaration or subsumption edge is malformed."""


class DomainSyntaxError(ValueError):
    """A domain file line does not match the expected grammar."""


@dataclass(frozen=True)
class Literal:
    """A ground or schematic atom, possibly negated."""

    atom: Atom
    positive: bool = True

    def render(self) -> str:
        text = render_canonical(self.atom)
        return text if self.positive else f"!{text}"


def parse_literal(text: str) -> Literal:
    text = text.strip()
    if text.startswith("!"):
        return Literal(_parse_atom(text[1:].strip()), positive=False)
    return Literal(_parse_atom(text))


def parse_literal_list(text: str) -> tuple[Literal, ...]:
    """Parse a comma-joined literal list, respecting argument commas."""
    return tuple(parse_literal(part) for part in _split_top_level(text))


@dataclass(frozen=True)
class Ontology:
    """Concept lattice and typing map for entities and policies.

    Subsumption pairs run child to parent and must form a DAG; queries
    use the reflexive-transitive closure.
    """

    concepts: frozenset[str] = frozenset()
    subsumption: frozenset[tuple[str, str]] = frozenset()
    typing: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        for child, parent in self.subsumption:
            for end in (child, parent):
                if end not in self.concepts:
                    raise OntologyError(f"subsumption uses unknown concept {end!r}")
        for name, concept in self.typing:
            if concept not in self.concepts:
                raise OntologyError(
                    f"{name!r} is typed with unknown concept {concept!r}"
                )
        cycle = self._find_cycle()
        if cycle is not None:
            raise OntologyError(f"subsumption cycle through {cycle!r}")

    def _find_cycle(self) -> str | None:
        state: dict[str, int] = {}

        def visit(node: str) -> str | None:
            state[node] = 1
            for child, parent in self.subsumption:
                if child != node:
                    continue
                mark = state.get(parent)
                if mark == 1:
                    return parent
                if mark is None and visit(parent) is not None:
                    return parent
            state[node] = 2
            return None

        for concept in sorted(self.concepts):
            if concept not in state and visit(concept) is not None:
                return concept
        return None

    def concept_of(self, name: str) -> str | None:
        for entry, concept in self.typing:
            if entry == name:
                return concept
        return None

    def entities(self) -> tuple[str, ...]:
        return tuple(sorted(name for name, _ in self.typing))

    def is_subtype(self, child: str, parent: str) -> bool:
        """Reflexive-transitive reachability along subsumption edges."""
        if child == parent:
            return True
        frontier = [child]
        seen = {child}
        while frontier:
            node = frontier.pop()
            for lower, upper in self.subsumption:
                if lower != node or upper in seen:
                    continue
                if upper == parent:
                    return True
                seen.add(upper)
                frontier.append(upper)
        return False

    def with_edge(self, child: str, parent: str) -> Ontology:
        """A copy with one more subsumption edge; refuses cycles."""
        concepts = self.concepts | {child, parent}
        edge = (child, parent)
        if edge in self.subsumption:
            return self
        return replace(
            self, concepts=concepts, subsumption=self.subsumption | {edge}
        )


@dataclass(frozen=True)
class ActionSchema:
    """A STRIPS operator over typed parameters.

    pre holds literals, add and del hold atoms; atom arguments are
    either parameter names or constants.  The add and delete sets must
    not overlap.
    """

    name: str
    params: tuple[tuple[str, str], ...]
    pre: tuple[Literal, ...] = ()
    add: tuple[Atom, ...] = ()
    delete: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        overlap = set(self.add) & set(self.delete)
        if overlap:
            names = ", ".join(sorted(render_canonical(a) for a in overlap))
            raise DomainSyntaxError(
                f"action {self.name}: add and del share {names}"
            )

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.params)


@dataclass(frozen=True)
class GroundAction:
    """An action schema with every parameter bound to an entity.

    Its ground preconditions, add set and delete set are computed on
    first use and kept on the instance, as formulas keep their text, so
    an action is grounded once however often it is tested or applied;
    equality, hashing and repr read only the fields.
    """

    schema: ActionSchema
    args: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.args) != len(self.schema.params):
            raise DomainSyntaxError(
                f"{self.schema.name} expects {len(self.schema.params)} "
                f"arguments, got {len(self.args)}"
            )

    @property
    def name(self) -> str:
        return self.schema.name

    def render(self) -> str:
        if not self.args:
            return self.schema.name
        return f"{self.schema.name}({','.join(self.args)})"

    def _ground(self, atom: Atom, binding: dict[str, str]) -> Atom:
        return Atom(atom.predicate, tuple(binding.get(a, a) for a in atom.args))

    def _grounding(
        self,
    ) -> tuple[tuple[Literal, ...], frozenset[Atom], frozenset[Atom]]:
        """The ground preconditions, add set and delete set, kept."""
        kept = self.__dict__.get("_kept")
        if kept is None:
            binding = dict(zip(self.schema.param_names, self.args))
            kept = (
                tuple(
                    Literal(self._ground(lit.atom, binding), lit.positive)
                    for lit in self.schema.pre
                ),
                frozenset(self._ground(a, binding) for a in self.schema.add),
                frozenset(self._ground(a, binding) for a in self.schema.delete),
            )
            object.__setattr__(self, "_kept", kept)
        return kept

    def preconditions(self) -> tuple[Literal, ...]:
        return self._grounding()[0]

    def add_atoms(self) -> frozenset[Atom]:
        return self._grounding()[1]

    def delete_atoms(self) -> frozenset[Atom]:
        return self._grounding()[2]


@dataclass(frozen=True)
class WorldState:
    """Closed world: an atom is true exactly when present."""

    atoms: frozenset[Atom] = frozenset()

    def holds(self, atom: Atom) -> bool:
        return atom in self.atoms

    def satisfies(self, literal: Literal) -> bool:
        return self.holds(literal.atom) == literal.positive

    def satisfies_all(self, literals: tuple[Literal, ...]) -> bool:
        return all(self.satisfies(lit) for lit in literals)

    def render(self) -> str:
        return render_atom_set(self.atoms)


def render_atom_set(atoms: frozenset[Atom]) -> str:
    return "{" + ",".join(sorted(render_canonical(a) for a in atoms)) + "}"


@dataclass(frozen=True)
class TypeViolation:
    """One argument whose concept is not below the required concept."""

    action: str
    argument: str
    required: str
    actual: str | None

    def render(self) -> str:
        if self.actual is None:
            return f"{self.action}: {self.argument} has no declared type"
        return (
            f"{self.action}: {self.argument} is {self.actual}, "
            f"not below {self.required}"
        )


def type_check(action: GroundAction, ontology: Ontology) -> TypeViolation | None:
    """First argument whose type fails its parameter, or None when ok.

    An untyped entity is a violation, never a silent pass.
    """
    for (param, required), arg in zip(action.schema.params, action.args):
        del param
        actual = ontology.concept_of(arg)
        if actual is None:
            return TypeViolation(action.render(), arg, required, None)
        if not ontology.is_subtype(actual, required):
            return TypeViolation(action.render(), arg, required, actual)
    return None


def preconditions_met(action: GroundAction, state: WorldState) -> bool:
    return state.satisfies_all(action.preconditions())


def missing_preconditions(
    action: GroundAction, state: WorldState
) -> tuple[Literal, ...]:
    """Unmet precondition literals, in declaration order."""
    return tuple(
        lit for lit in action.preconditions() if not state.satisfies(lit)
    )


def apply_effects(action: GroundAction, state: WorldState) -> WorldState:
    if not preconditions_met(action, state):
        unmet = missing_preconditions(action, state)[0]
        raise ValueError(
            f"{action.render()} applied with unmet precondition {unmet.render()}"
        )
    return WorldState((state.atoms - action.delete_atoms()) | action.add_atoms())


@dataclass(frozen=True)
class Domain:
    """A parsed planning problem: types, operators, start, and goal."""

    ontology: Ontology
    schemas: tuple[ActionSchema, ...]
    init: WorldState = WorldState()
    goal: tuple[Literal, ...] = ()

    def schema(self, name: str) -> ActionSchema:
        for candidate in self.schemas:
            if candidate.name == name:
                return candidate
        raise KeyError(name)


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not inside parentheses."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return [p for p in parts if p]


def _parse_action_line(body: str, line_no: int) -> ActionSchema:
    head, _, rest = body.partition(")")
    name, _, params_text = head.partition("(")
    name = name.strip()
    if not name:
        raise DomainSyntaxError(f"line {line_no}: action needs a name")
    params = []
    for item in _split_top_level(params_text):
        pname, sep, concept = item.partition(":")
        if not sep:
            raise DomainSyntaxError(
                f"line {line_no}: parameter {item!r} needs name:concept"
            )
        params.append((pname.strip(), concept.strip()))
    sections = {"pre": "", "add": "", "del": ""}
    current: str | None = None
    for token in rest.split():
        key = token.rstrip(":")
        if token.endswith(":") and key in sections:
            current = key
        elif current is None:
            raise DomainSyntaxError(
                f"line {line_no}: expected pre:/add:/del:, got {token!r}"
            )
        else:
            sections[current] += token
    pre = tuple(parse_literal(t) for t in _split_top_level(sections["pre"]))
    add = tuple(_parse_atom(t) for t in _split_top_level(sections["add"]))
    delete = tuple(_parse_atom(t) for t in _split_top_level(sections["del"]))
    return ActionSchema(name, tuple(params), pre, add, delete)


def parse_domain(text: str) -> Domain:
    """Parse the line-oriented domain format.

    Lines: ``concept <name> [<parent>]``, ``entity <name> : <concept>``,
    ``action <name>(<p>:<concept>,...) pre: ... add: ... del: ...``,
    ``init: <atom>,...``, ``goal: <lit>,...``.  Blank lines and ``#``
    comments are ignored.
    """
    concepts: set[str] = set()
    edges: set[tuple[str, str]] = set()
    typing: list[tuple[str, str]] = []
    schemas: list[ActionSchema] = []
    init_atoms: list[Atom] = []
    goal: list[Literal] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, body = line.partition(" ")
        if keyword == "concept":
            names = body.split()
            if not names or len(names) > 2:
                raise DomainSyntaxError(
                    f"line {line_no}: concept takes a name and optional parent"
                )
            concepts.add(names[0])
            if len(names) == 2:
                if names[1] not in concepts:
                    raise DomainSyntaxError(
                        f"line {line_no}: unknown parent concept {names[1]!r}"
                    )
                edges.add((names[0], names[1]))
        elif keyword == "entity":
            name, sep, concept = body.partition(":")
            if not sep:
                raise DomainSyntaxError(
                    f"line {line_no}: entity needs name : concept"
                )
            typing.append((name.strip(), concept.strip()))
        elif keyword == "action":
            schemas.append(_parse_action_line(body, line_no))
        elif keyword == "init:" or line.startswith("init:"):
            payload = line.partition(":")[2]
            init_atoms.extend(_parse_atom(t) for t in _split_top_level(payload))
        elif keyword == "goal:" or line.startswith("goal:"):
            payload = line.partition(":")[2]
            goal.extend(parse_literal(t) for t in _split_top_level(payload))
        else:
            raise DomainSyntaxError(
                f"line {line_no}: unknown directive {keyword!r}"
            )
    ontology = Ontology(frozenset(concepts), frozenset(edges), tuple(typing))
    return Domain(
        ontology=ontology,
        schemas=tuple(schemas),
        init=WorldState(frozenset(init_atoms)),
        goal=tuple(goal),
    )


def load_domain(path: str) -> Domain:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_domain(handle.read())
