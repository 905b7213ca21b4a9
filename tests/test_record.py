"""The records every cold ledger line builds, and the formula caches.

Block, Provenance, JustificationNode, BeliefEntry and BeliefBase are
frozen, slotted dataclasses whose __init__ fills each slot directly:
they must behave as frozen dataclasses do and carry no instance dict.
A formula keeps its caches as plain attributes that read None on the
class until set.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import FrozenInstanceError, field, fields, replace

import pytest

from veritas.belief import (
    BeliefBase,
    BeliefEntry,
    Provenance,
    StatusTag,
    classify_confidence,
)
from veritas.justify import JustificationNode
from veritas.ledger import ZERO_HASH, Block, Op
from veritas.logic import Formula, parse, render_canonical
from veritas.logic.sat import _compiled, entails
from veritas.record import record

PROVENANCE = Provenance("sensor", 7, 0.9)
ENTRY = BeliefEntry(parse("p -> q"), 0.97, PROVENANCE, StatusTag.APPROXIMATE, "n1")
RECORDS = {
    "Block": Block(1, 7, Op.INSERT, "p", b"\x01" * 32, ZERO_HASH, b"\x02" * 32),
    "Provenance": PROVENANCE,
    "JustificationNode": JustificationNode(
        "n1", parse("p -> q"), "observation", (), PROVENANCE
    ),
    "BeliefEntry": ENTRY,
    "BeliefBase": BeliefBase.from_entries([ENTRY]),
}


@pytest.fixture(params=sorted(RECORDS))
def rec(request):
    return RECORDS[request.param]


class TestRecordContract:
    def test_assignment_and_del_raise_frozen_instance_error(self, rec):
        name = fields(rec)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(rec, name, getattr(rec, name))
        with pytest.raises(FrozenInstanceError):
            delattr(rec, name)

    def test_replace_gives_an_equal_record_with_the_same_hash(self, rec):
        copy = replace(rec)
        assert copy is not rec
        assert copy == rec
        assert hash(copy) == hash(rec)

    def test_keyword_construction_from_the_init_fields_is_equal(self, rec):
        kwargs = {f.name: getattr(rec, f.name) for f in fields(rec) if f.init}
        assert type(rec)(**kwargs) == rec

    def test_a_record_has_no_instance_dict(self, rec):
        assert not hasattr(rec, "__dict__")
        with pytest.raises(TypeError):
            vars(rec)

    def test_each_empty_base_gets_its_own_index_and_trail(self):
        first, second = BeliefBase(), BeliefBase()
        assert first._by_key is not second._by_key
        assert first.history is not second.history
        assert first == second and first.epoch == second.epoch == 0
        assert first.witness is None

    def test_an_entry_still_derives_tier_and_key(self):
        assert ENTRY.tier == classify_confidence(0.97)
        assert ENTRY.key == render_canonical(ENTRY.formula) == "(p -> q)"
        lowered = replace(ENTRY, probability=0.5)
        assert lowered.tier == classify_confidence(0.5)
        assert lowered.key == ENTRY.key

    def test_post_init_still_validates(self):
        with pytest.raises(ValueError):
            Provenance("sensor", -1, 0.9)
        with pytest.raises(ValueError):
            BeliefEntry(parse("p"), 1.5, PROVENANCE)

    def test_init_false_fields_are_refused_as_arguments(self):
        with pytest.raises(TypeError):
            BeliefEntry(parse("p"), 0.9, PROVENANCE, tier=None)
        with pytest.raises(ValueError):
            replace(ENTRY, key="q")


class TestRecordHelper:
    def test_init_matches_the_dataclass_signature_and_defaults(self):
        def shape(cls):
            @cls
            class Shape:
                a: int
                b: list = field(default_factory=list)
                c: str = "c"
                d: int = field(default=4, init=False)
                e: list = field(default_factory=lambda: [5], init=False)
                f: int = field(default=6, kw_only=True)

            return Shape

        plain = shape(dataclasses.dataclass(frozen=True))
        slotted = shape(record)

        def params(cls):
            return [
                (p.name, p.kind)
                for p in inspect.signature(cls.__init__).parameters.values()
            ]

        assert params(slotted) == params(plain)
        for args, kwargs in (((1,), {}), ((1, [2], "x"), {"f": 9})):
            made, want = slotted(*args, **kwargs), plain(*args, **kwargs)
            assert [getattr(made, f.name) for f in fields(made)] == [
                getattr(want, f.name) for f in fields(want)
            ]
        assert slotted(1).b is not slotted(1).b
        assert slotted(1).e is not slotted(1).e
        with pytest.raises(TypeError):
            slotted(1, [], "c", 9)


class TestFormulaCaches:
    def test_the_class_reads_none_for_every_cache(self):
        assert Formula._text is None
        assert Formula._sat is None
        assert Formula._sat_negation is None

    def test_a_parsed_rendered_and_compiled_formula_keeps_its_caches(self):
        formula = parse("(p & q) -> r")
        assert formula._sat is None
        assert render_canonical(formula) == "((p & q) -> r)"
        assert formula._text == "((p & q) -> r)"
        compiled = _compiled(formula)
        assert formula._sat is compiled
        assert _compiled(formula) is compiled
        assert entails([formula, parse("p"), parse("q")], parse("r"))

    def test_a_parsed_atom_is_fresh_and_keeps_its_text(self):
        first, second = parse("At(Drone1,SiteAlpha)"), parse("At(Drone1,SiteAlpha)")
        assert first is not second and first == second
        assert first._text == "At(Drone1,SiteAlpha)"
        assert first._sat is None
