"""Frozen, slotted dataclasses whose __init__ fills each slot directly.

A frozen dataclass's own __init__ sets each field through
object.__setattr__, one call that looks the attribute up again per
field.  record makes the class a frozen, slotted dataclass and replaces
that __init__ with one that hands each value to its slot's member
descriptor.  The new __init__ is generated from dataclasses.fields, as
dataclasses generates its own: positional and keyword-only parameters,
defaults, default_factory, init=False fields and __post_init__ behave as
they do there, and equality, hashing, repr, FrozenInstanceError and
dataclasses.replace are the dataclass's own.  A slotted record has no
instance dict, so vars() does not apply to it.  The readers that build
one record per stored line pass its fields positionally, because a
keyword call to a class packs the keywords into a dict.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import Callable, TypeVar

T = TypeVar("T")


def record(cls: type[T]) -> type[T]:
    """cls as a frozen, slotted dataclass built slot by slot."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__init__ = _slot_init(cls)  # type: ignore[misc]
    return cls


def _slot_init(cls: type) -> Callable[..., None]:
    """An __init__ for dataclass cls that sets each field's slot through
    its member descriptor, in field order, then calls __post_init__."""
    names: dict[str, object] = {"_MISSING": MISSING}
    positional: list[str] = []
    keyword: list[str] = []
    body: list[str] = []
    for f in fields(cls):
        name = f.name
        names[f"_set_{name}"] = cls.__dict__[name].__set__
        value = name
        if f.default_factory is not MISSING:
            names[f"_factory_{name}"] = f.default_factory
            default = "=_MISSING"
            value = f"_factory_{name}()"
            if f.init:
                value = f"{value} if {name} is _MISSING else {name}"
        elif f.default is not MISSING:
            names[f"_default_{name}"] = f.default
            default = f"=_default_{name}"
            if not f.init:
                value = f"_default_{name}"
        elif f.init:
            default = ""
        else:
            continue  # set by __post_init__
        if f.init:
            (keyword if f.kw_only else positional).append(name + default)
        body.append(f"    _set_{name}(self, {value})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    params = ["self", *positional, *(["*", *keyword] if keyword else [])]
    exec(f"def __init__({', '.join(params)}):\n" + ("\n".join(body) or "    pass"), names)
    init = names["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"  # type: ignore[attr-defined]
    return init  # type: ignore[return-value]
