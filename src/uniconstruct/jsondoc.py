"""The integer checks every reader of a JSON input document shares, and
the mark that lets a writer skip them on a group's own table.

``json`` reads ``true`` as a bool, which Python counts as an int, and
``2.0`` as a float; ``int()`` would take both, and ``"1"`` too.  A reader
takes an integer field only where these checks pass, so nothing is coerced.
"""

from __future__ import annotations


def is_int(value) -> bool:
    """Whether ``value`` is a JSON integer: an int that is not a bool."""
    return type(value) is int


def is_int_list(value) -> bool:
    """Whether ``value`` is a JSON list of JSON integers."""
    return isinstance(value, list) and all(type(v) is int for v in value)


class _TableDocument(dict):
    """A group document whose ``table`` value, while it is still ``rows``,
    is a checked group's own table: tuples of ints below ``len(rows)``,
    which a writer may write with no per-cell type check."""

    __slots__ = ("rows",)
