"""Typed parameter schemas: key -> (default or REQUIRED, check).

A check takes (value, key), raises ValidationError on a malformed value and
returns the value to use (numbers as float); a None default admits None.
"""
from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError

REQUIRED = object()
MAX_SIZE = 2 ** 24


class Family(NamedTuple):                # one named family of a map kind
    schema: dict                         # key -> (default or REQUIRED, check)
    call: Callable                       # the family's evaluator, or its builder
    inverse: Callable | None = None


def take(cfg: dict, allowed: dict, where: str) -> dict:
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown keys {sorted(unknown)} in {where}; "
                              f"allowed: {sorted(allowed)}")
    out = {}
    for key, default in allowed.items():
        if default is REQUIRED and key not in cfg:
            raise ValidationError(f"missing required key {key!r} in {where}")
        out[key] = cfg.get(key, default)
    return out


def number(value, name: str, positive: bool = False) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not np.isfinite(value))
            or (positive and value <= 0)):
        raise ValidationError(f"{name} must be a {'positive' if positive else 'finite'} "
                              f"number, got {value!r}")
    return float(value)


def integer(value, name: str, least: int | None = None, most: int | None = None) -> int:
    number(value, name)
    if value != int(value) or (least is not None and value < least):
        raise ValidationError(f"{name} must be an integer"
                              f"{'' if least is None else f' >= {least}'}, got {value!r}")
    if most is not None and value > most:
        raise ValidationError(f"{name} must be at most {most}, got {value!r}")
    return int(value)


positive = partial(number, positive=True)
size = partial(integer, least=1, most=MAX_SIZE)
span = partial(integer, least=2, most=MAX_SIZE)      # a grid with a node at each end
# pieces an invariant arc adds to its first, 200 samples each: MAX_SIZE samples in all
count = partial(integer, least=0, most=MAX_SIZE // 200 - 1)


def sign(value, name: str) -> int:                   # an orientation: +1 or -1
    if value not in (1, -1) or isinstance(value, bool):
        raise ValidationError(f"{name} must be +1 or -1, got {value!r}")
    return int(value)


def fraction(value, name: str, top: float = 1.0) -> float:     # strictly between 0 and top
    if not 0.0 < number(value, name) < top:
        raise ValidationError(f"{name} must be in (0,{top:g}), got {value!r}")
    return float(value)


margin = partial(fraction, top=0.5)                  # truncation margin of (0,1)


def config(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{name} must be a config object, got {value!r}")
    return value


def numbers(value, name: str, length: int | None = None) -> np.ndarray:
    """A non-empty list of finite numbers (of the given length), as a float array."""
    try:
        arr = np.asarray(value)
    except ValueError:                                  # ragged nesting
        arr = np.asarray(None)
    if (arr.ndim != 1 or not arr.size or arr.dtype.kind not in "iuf"
            or not np.isfinite(arr).all() or length not in (None, arr.size)):
        raise ValidationError(f"{name} must be a list of {length or 'finite'} numbers, "
                              f"got {value!r}")
    return arr.astype(float)


pair = partial(numbers, length=2)


def band(value, name: str) -> tuple[float, float]:  # a sub-interval (a, b) of (0, 1)
    a, b = pair(value, name)
    if not 0.0 < a < b < 1.0:
        raise ValidationError(f"{name} must be two numbers 0 < a < b < 1, got {value}")
    return float(a), float(b)
