"""Strict readers for integers, from the JSON formats, the public
constructors and the command line: a float, a bool or a string is
rejected, never truncated or parsed, so no floating point value gets in,
and a decimal string is ASCII digits alone (``int`` would also take
spaces, underscores, a '+' and the digits of other scripts)."""

from __future__ import annotations


def decimal(text: str, what: str, signed: bool = True) -> int:
    """The int of ``text`` written as ASCII digits, after an optional '-'
    when ``signed``; anything else raises ``ValueError``."""
    digits = text[1:] if signed and text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what} must be ASCII digits, got {text!r}")
    return int(text)


def json_int(value, what: str) -> int:
    """An integer given as a JSON integer."""
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def json_decimal(value, what: str) -> int:
    """An integer given as a decimal string such as ``"-3"``."""
    if type(value) is not str:
        raise ValueError(f"{what} must be a decimal string, got {value!r}")
    return decimal(value, what)


def ints(values, what: str) -> tuple[int, ...]:
    """The values as a tuple; anything but an int, bools included, raises
    ``TypeError``."""
    values = tuple(values)
    if any(type(v) is not int for v in values):
        raise TypeError(f"{what} must be ints, got {values!r}")
    return values
