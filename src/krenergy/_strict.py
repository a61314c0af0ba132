"""Strict readers for integers, from the JSON formats and from the public
constructors: a float, a bool or a string is rejected, never truncated or
parsed, so no floating point value gets in."""

from __future__ import annotations


def json_int(value, what: str) -> int:
    """An integer given as a JSON integer."""
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def json_decimal(value, what: str) -> int:
    """An integer given as a decimal string such as ``"-3"``."""
    if type(value) is not str:
        raise ValueError(f"{what} must be a decimal string, got {value!r}")
    return int(value)


def ints(values, what: str) -> tuple[int, ...]:
    """The values as a tuple; anything but an int, bools included, raises
    ``TypeError``."""
    values = tuple(values)
    if any(type(v) is not int for v in values):
        raise TypeError(f"{what} must be ints, got {values!r}")
    return values
