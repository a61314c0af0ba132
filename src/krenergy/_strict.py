"""Strict readers for the integers of the JSON formats: a float or a bool
is rejected, never truncated, so no floating point value gets in."""

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
