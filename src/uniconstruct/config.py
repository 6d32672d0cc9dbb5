"""Search bounds with environment-variable overrides.

Every exhaustive search in the library is guarded by one of these bounds so
that a typo in an input file fails fast instead of running for hours.  Each
value can be overridden by an environment variable (read once at import) or
per call via keyword arguments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import BoundExceededError

_ENV_PREFIX = "UNICONSTRUCT_"


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"environment override {_ENV_PREFIX}{name}={raw!r} is not an integer")


@dataclass
class Bounds:
    # total element count for exhaustive automorphism / isomorphism search
    aut_elements: int = 12
    # nodes the section search (classify_sections) may visit
    section_candidates: int = 10**6
    # order cap k * |G2|**k for the finite cyclic skew analogue
    cyclic_skew_order: int = 10**4
    # matched-triple enumeration cap
    matched_triples: int = 10**5
    # largest X whose twist equivalence is decided on (frame, thread) keys,
    # used only when the transports break the cocycle law (spaces that obey
    # it are not capped)
    x_pairwise: int = 2000
    # relabeling families enumerated by canonical_copies (build_family makes
    # only the n - 1 it uses, one at a time, so it is not bounded by this)
    relabelings: int = 10**6
    # cells of any n x n Cayley table, checked before it is allocated
    table_cells: int = 10**7


DEFAULT = Bounds(
    aut_elements=_env_int("AUT_BOUND", 12),
    section_candidates=_env_int("SECTION_BOUND", 10**6),
    cyclic_skew_order=_env_int("SKEW_ORDER_BOUND", 10**4),
    matched_triples=_env_int("TRIPLES_BOUND", 10**5),
    x_pairwise=_env_int("X_BOUND", 2000),
    relabelings=_env_int("RELABEL_BOUND", 10**6),
    table_cells=_env_int("TABLE_CELLS_BOUND", 10**7),
)


def check_table_cells(order: int) -> None:
    """Refuse an order x order Cayley table over the ``table_cells`` bound;
    called before the table is allocated."""
    bound = DEFAULT.table_cells
    if order * order > bound:
        raise BoundExceededError(
            f"a Cayley table of order {order} has {order * order} cells, over the bound {bound}"
        )


def check_elements(total: int, max_elements: int | None = None) -> None:
    """Refuse an isomorphism search over a structure of ``total`` elements
    past ``max_elements`` (default: the ``aut_elements`` bound)."""
    bound = max_elements if max_elements is not None else DEFAULT.aut_elements
    if total > bound:
        raise BoundExceededError(f"structure has {total} elements, search bound is {bound}")
