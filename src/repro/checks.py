"""The checks every configuration knob and user-facing name goes through.

A knob is checked once, where it is declared: each config's
``__post_init__`` (or constructor) calls one of these helpers, which raise a
``ValueError`` naming the field.  Two traps motivate them.  NaN compares
false against every bound, so a plain ``value < 0`` check lets it through.
A bool is an int to Python, and a float such as ``2.0`` compares like one,
so a ``<= 0`` check accepts ``True`` as a count of 1.

A name — a device, an IOS variant, a zoo model, a framework, a pass, a
router or an admission policy — is resolved by one :class:`Registry` per
kind, with one normalisation and one error, :class:`UnknownNameError`.

This module imports nothing from the rest of the package, so any layer —
hardware, serving, cluster, observability — can use it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, MutableMapping
from typing import Any, Generic, TypeVar

__all__ = [
    "Registry", "UnknownNameError", "normalize_name", "require_int", "require_number",
]

T = TypeVar("T")


def require_int(field: str, value: object, minimum: int = 1) -> None:
    """Raise a ``ValueError`` naming ``field`` unless ``value`` is an int >= ``minimum``.

    Bools and floats are rejected: a count that is not an int would be
    compared and summed as one far from where it was declared.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{field} must be an int >= {minimum}, got {value!r}")


def require_number(field: str, value: object, *, positive: bool = False) -> None:
    """Raise a ``ValueError`` naming ``field`` unless ``value`` is a finite number.

    The number must be ``> 0`` when ``positive``, ``>= 0`` otherwise.  Bools
    and non-numbers are rejected.
    """
    if not (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and (value > 0 if positive else value >= 0)
    ):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{field} must be a finite number {bound}, got {value!r}")


class UnknownNameError(KeyError, ValueError):
    """A name no :class:`Registry` entry or alias matches.

    Both a :class:`KeyError` (a failed catalog lookup) and a
    :class:`ValueError` (a bad user-supplied knob), so either idiom catches it.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


def normalize_name(name: str) -> str:
    """The lookup key of a spelling: casefolded, without ``-``, ``_`` or spaces."""
    return name.strip().casefold().replace("-", "").replace("_", "").replace(" ", "")


class Registry(MutableMapping[str, T], Generic[T]):
    """Canonical name -> object for one kind of user-facing name.

    Any spelling that normalises (:func:`normalize_name`) to a registered name
    or to an entry of the kind's ``aliases`` table resolves to it; anything
    else raises :class:`UnknownNameError` naming the kind and listing every
    registered name.  Two spellings that normalise alike may not name two
    different entries.  Iteration, ``len`` and ``in`` see the canonical names
    in registration order.
    """

    def __init__(self, kind: str, aliases: Mapping[str, str] | None = None,
                 instance_of: type | tuple[type, ...] = ()):
        self.kind = kind
        #: Alias spelling -> canonical name, for spellings normalising cannot reach.
        self.aliases = dict(aliases or {})
        #: Already-built objects :meth:`create` passes through unchanged.
        self.instance_of = instance_of
        self._entries: dict[str, T] = {}
        self._keys: dict[str, str] = {}
        for alias, name in self.aliases.items():
            self._claim(alias, name)

    def _claim(self, spelling: str, name: str) -> None:
        owner = self._keys.setdefault(normalize_name(spelling), name)
        if owner != name:
            raise ValueError(
                f"duplicate {self.kind} name {spelling!r}: it normalises like {owner!r}"
            )

    def __setitem__(self, name: str, value: T) -> None:
        """Register ``value`` under ``name``; registering it again is a no-op."""
        if self._entries.get(name, value) is not value:
            raise ValueError(f"duplicate {self.kind} name {name!r}")
        self._claim(name, name)
        self._entries[name] = value

    def canonical(self, name: Any) -> str:
        """The registered name ``name`` spells; raises :class:`UnknownNameError`."""
        canonical = self._keys.get(normalize_name(name)) if isinstance(name, str) else None
        if canonical not in self._entries:
            raise UnknownNameError(
                f"unknown {self.kind} {name!r}; registered {self.kind} names: "
                f"{', '.join(self.names())}"
            )
        return canonical

    def __getitem__(self, name: Any) -> T:
        return self._entries[self.canonical(name)]

    def create(self, name: Any) -> Any:
        """A fresh object from the factory ``name`` spells, or ``name`` itself
        when it is already an ``instance_of`` this kind."""
        if isinstance(name, self.instance_of):
            return name
        return self[name]()

    def __delitem__(self, name: str) -> None:
        canonical = self.canonical(name)
        del self._entries[canonical], self._keys[normalize_name(canonical)]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        """Every registered name, sorted."""
        return sorted(self._entries)
