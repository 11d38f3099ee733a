"""The numeric checks every configuration knob goes through.

A knob is checked once, where it is declared: each config's
``__post_init__`` (or constructor) calls one of these helpers, which raise a
``ValueError`` naming the field.  Two traps motivate them.  NaN compares
false against every bound, so a plain ``value < 0`` check lets it through.
A bool is an int to Python, and a float such as ``2.0`` compares like one,
so a ``<= 0`` check accepts ``True`` as a count of 1.

This module imports nothing from the rest of the package, so any layer —
hardware, serving, cluster, observability — can use it.
"""

from __future__ import annotations

import math

__all__ = ["require_int", "require_number"]


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
