"""Search bounds with environment-variable overrides.

Every exhaustive search in the library is guarded by one of these bounds so
that a typo in an input file fails fast instead of running for hours.  Each
value can be overridden by an environment variable (read once at import) or
per call via keyword arguments.
"""

from __future__ import annotations

import math
import os

from .errors import BoundExceededError
from .records import Record

_ENV_PREFIX = "UNICONSTRUCT_"


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"environment override {_ENV_PREFIX}{name}={raw!r} is not an integer")


class Bounds(Record):
    __slots__ = _fields = ("aut_elements", "section_candidates", "matched_triples", "table_cells")

    def __init__(self, aut_elements: int, section_candidates: int, matched_triples: int, table_cells: int):
        self.aut_elements = aut_elements
        self.section_candidates = section_candidates
        self.matched_triples = matched_triples
        self.table_cells = table_cells


DEFAULT = Bounds(
    # total element count for exhaustive automorphism / isomorphism search
    aut_elements=_env_int("AUT_BOUND", 12),
    # nodes the section search (classify_sections) may visit
    section_candidates=_env_int("SECTION_BOUND", 10**6),
    # matched triples built: only frame 0's, |K|^(n-1) * |B| for n copies
    # (|X| itself is a closed form, uniform.TripleSpace.size)
    matched_triples=_env_int("TRIPLES_BOUND", 10**5),
    # cells of any n x n Cayley table, checked before it is allocated
    table_cells=_env_int("TABLE_CELLS_BOUND", 10**7),
)


def check_table_cells(order: int) -> None:
    """Refuse an order x order Cayley table over the ``table_cells`` bound;
    called before the table is allocated."""
    bound = DEFAULT.table_cells
    if order > math.isqrt(bound):
        # an order past 64 bits (a factorial or power of a large parameter)
        # may be too long to print, so it is named by its bit length
        bits = order.bit_length()
        size = f"{order} has {order * order} cells," if bits <= 64 else f"over 2**{bits - 1} is"
        raise BoundExceededError(f"a Cayley table of order {size} over the bound {bound}")


def _check_table_log2(log2_order: float) -> None:
    """Refuse, before a factorial or power of a huge parameter is formed, a
    table whose order has the float estimate ``log2_order`` of its log2:
    allowing for float error, the order is at least 2**n, and when that
    alone is past 64 bits and over the bound, the message is
    :func:`check_table_cells`'s.  Any other order is left to that check."""
    n = math.floor(log2_order * (1 - 2**-40))
    bound = DEFAULT.table_cells
    if n >= 64 and n >= math.isqrt(bound).bit_length():
        raise BoundExceededError(f"a Cayley table of order over 2**{n} is over the bound {bound}")


def check_elements(total: int, max_elements: int | None = None) -> None:
    """Refuse an isomorphism search over a structure of ``total`` elements
    past ``max_elements`` (default: the ``aut_elements`` bound)."""
    bound = max_elements if max_elements is not None else DEFAULT.aut_elements
    if total > bound:
        raise BoundExceededError(f"structure has {total} elements, search bound is {bound}")
