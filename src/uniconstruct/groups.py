"""Finite groups as Cayley tables, homomorphisms, and splitting search.

Identity is always element 0.  Group multiplication for automorphism groups
is map composition (apply the right factor first).  Everything is exact and
deterministic: the section search reports its finds in lexicographic order
of fiber representatives, so the first witness found is reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import config
from .errors import BoundExceededError, GroupError
from .structures import SortedMap, SortedStructure, automorphisms

__all__ = [
    "FiniteGroup",
    "GroupHom",
    "Section",
    "SectionSearch",
    "center",
    "quotient_by_subgroup",
    "quotient_by_center",
    "is_hom",
    "is_surjective",
    "classify_section",
    "classify_sections",
    "cyclic",
    "dihedral",
    "dicyclic",
    "symmetric",
    "alternating",
    "direct_product",
    "catalog",
    "catalog_search_weak_not_strong",
    "find_isomorphism",
    "subgroups",
    "normal_subgroups",
    "surjective_homs",
    "AutomorphismGroup",
    "aut_group",
    "group_to_json",
    "group_from_json",
    "hom_to_json",
    "hom_from_json",
]


class FiniteGroup:
    """A finite group given by its full multiplication table.

    The table (nested sequences or a 2-d array) is copied into a fresh int64
    array and validated: row/column 0 must be the identity row, every row and
    column must be a permutation, and associativity is decided exactly by
    Light's test on the greedy generating set (run on a copy in the smallest
    unsigned dtype that holds the order).  The group stores that one
    read-only array as ``table``, its inverses as a read-only int64 array and
    the generating set as ``gens``; ``mul``, ``inv`` and ``element_order``
    read them and return plain ints.  A table of more than
    ``config.DEFAULT.table_cells`` cells is refused before it is copied.
    """

    __slots__ = ("order", "table", "names", "name", "gens", "_inv", "_center")

    def __init__(
        self,
        table: Sequence[Sequence[int]] | np.ndarray,
        names: Sequence[str] | None = None,
        name: str | None = None,
    ):
        try:
            config.check_table_cells(len(table))
        except TypeError:
            pass  # not a sequence: the conversion below reports it
        try:
            arr = np.array(table, dtype=np.int64)  # a copy: never the caller's array
        except (TypeError, ValueError, OverflowError) as exc:
            raise GroupError(f"multiplication table is not a square integer table: {exc}") from exc
        n = len(arr) if arr.ndim else 0
        if arr.ndim and n == 0:
            raise GroupError("group order must be at least 1")
        if arr.shape != (n, n):
            raise GroupError("multiplication table is not square")
        if arr.min() < 0 or arr.max() >= n:
            raise GroupError("table entries out of range")
        ident = np.arange(n)
        if not (np.array_equal(arr[0], ident) and np.array_equal(arr[:, 0], ident)):
            raise GroupError("element 0 is not an identity")
        bad = ~(
            (np.sort(arr, axis=1) == ident).all(axis=1)
            & (np.sort(arr, axis=0) == ident[:, None]).all(axis=0)
        )
        if bad.any():
            raise GroupError(f"row/column {int(np.argmax(bad))} is not a permutation")
        small = arr.astype(np.min_scalar_type(n))
        gens = _generators(n, lambda a, b: small[a, b])
        if not _is_associative(small, gens):
            raise GroupError("multiplication table is not associative")
        # each row is a permutation, so its minimum 0 sits at the inverse
        inv = arr.argmin(axis=1).astype(np.int64)
        arr.flags.writeable = inv.flags.writeable = False
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "table", arr)
        object.__setattr__(self, "names", tuple(names) if names is not None else None)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "gens", tuple(gens))
        object.__setattr__(self, "_inv", inv)
        object.__setattr__(self, "_center", None)  # filled by center() on first use

    def __setattr__(self, key, value):  # pragma: no cover
        raise AttributeError("FiniteGroup is immutable")

    def mul(self, a: int, b: int) -> int:
        return self.table.item(a, b)

    def inv(self, a: int) -> int:
        return self._inv.item(a)

    def products(self, a, b) -> np.ndarray:
        """a * b elementwise over int arrays (broadcast together)."""
        return self.table[a, b]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        item = self.table.item
        x, k = a, 1
        while x != 0:
            x = item(x, a)
            k += 1
        return k

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def element_name(self, a: int) -> str:
        return self.names[a] if self.names else str(a)

    def label(self) -> str:
        return self.name or f"group_of_order_{self.order}"

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self is other or bool(np.array_equal(self.table, other.table))

    def __hash__(self):
        return hash(self.table.tobytes())

    def __repr__(self):
        return f"FiniteGroup({self.label()}, order={self.order})"


class GroupHom:
    """Total map between groups satisfying the homomorphism law everywhere."""

    __slots__ = ("domain", "codomain", "map")

    def __init__(self, domain: FiniteGroup, codomain: FiniteGroup, mapping: Sequence[int]):
        m = tuple(int(v) for v in mapping)
        if len(m) != domain.order:
            raise GroupError("hom map is not total")
        if any(v < 0 or v >= codomain.order for v in m):
            raise GroupError("hom map has out-of-range values")
        if m[0] != 0:
            raise GroupError("hom does not fix the identity")
        if not _hom_law_holds(np.array(m, dtype=np.int64), domain, codomain):
            raise GroupError("map violates the homomorphism law")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "map", m)

    def __setattr__(self, key, value):  # pragma: no cover
        raise AttributeError("GroupHom is immutable")

    def __call__(self, a: int) -> int:
        return self.map[a]

    def compose(self, first: "GroupHom") -> "GroupHom":
        """self after first."""
        if first.codomain != self.domain:
            raise GroupError("hom composition domains do not match")
        return GroupHom(first.domain, self.codomain, tuple(self.map[v] for v in first.map))

    def kernel(self) -> tuple[int, ...]:
        return tuple(a for a, v in enumerate(self.map) if v == 0)

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.map)))

    def __eq__(self, other):
        if not isinstance(other, GroupHom):
            return NotImplemented
        return (
            self.map == other.map
            and self.domain == other.domain
            and self.codomain == other.codomain
        )

    def __hash__(self):
        return hash(self.map)


def _hom_law_holds(m: np.ndarray, domain, codomain) -> bool:
    """m(xg) == m(x)m(g) for every x and every generator g of the domain; m
    is in range.  Every element is a word in the generators, so by induction
    on its length this is the law for every pair, at O(|domain|·|gens|) cost.
    Either group may be a FiniteGroup or an AutomorphismGroup."""
    xs = np.arange(domain.order)
    return all(
        np.array_equal(m[domain.products(xs, g)], codomain.products(m, m[g]))
        for g in domain.gens
    )


def is_hom(mapping: Sequence[int], domain, codomain) -> bool:
    """Exact check of the homomorphism law for a candidate map, between
    FiniteGroups or AutomorphismGroups."""
    m = tuple(int(v) for v in mapping)
    if len(m) != domain.order or any(v < 0 or v >= codomain.order for v in m):
        return False
    return _hom_law_holds(np.array(m, dtype=np.int64), domain, codomain)


def is_surjective(h: GroupHom) -> bool:
    return len(set(h.map)) == h.codomain.order


def center(g) -> list[int]:
    """All elements commuting with every generator, hence with the whole
    group; always contains 0.  ``g`` is a FiniteGroup or an
    AutomorphismGroup; the centre is computed once per group and kept on it."""
    if g._center is None:
        xs = np.arange(g.order)[:, None]
        gens = np.array(g.gens, dtype=np.int64)
        commute = (g.products(xs, gens) == g.products(gens, xs)).all(axis=1)
        object.__setattr__(g, "_center", tuple(np.flatnonzero(commute).tolist()))
    return list(g._center)


def quotient_by_subgroup(g: FiniteGroup, sub: Iterable[int]) -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a normal subgroup, with the natural projection.

    Cosets are numbered by their minimal element, so the identity coset is
    element 0 of the quotient.
    """
    n_set = set(int(x) for x in sub)
    if any(x < 0 or x >= g.order for x in n_set):
        raise GroupError("subgroup element out of range")
    if 0 not in n_set:
        raise GroupError("subgroup must contain the identity")
    rows, inv = g.table.tolist(), g._inv.tolist()
    for a in n_set:
        for b in n_set:
            if rows[a][b] not in n_set:
                raise GroupError("subset is not closed under multiplication")
    for x in g.elements():
        for a in n_set:
            if rows[rows[x][a]][inv[x]] not in n_set:
                raise GroupError("subgroup is not normal")

    coset_of = [-1] * g.order
    reps: list[int] = []
    for x in g.elements():
        if coset_of[x] >= 0:
            continue
        members = sorted(rows[x][a] for a in n_set)
        ci = len(reps)
        reps.append(members[0])
        for m in members:
            coset_of[m] = ci
    k = len(reps)
    table = [[coset_of[rows[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    q = FiniteGroup(table, name=f"{g.label()}/N")
    return q, GroupHom(g, q, coset_of)


def quotient_by_center(g: FiniteGroup) -> tuple[FiniteGroup, GroupHom]:
    return quotient_by_subgroup(g, center(g))


# ---------------------------------------------------------------------------
# Sections of a surjection and their classification

SPLITTING = "splitting"
WEAK_SPLITTING = "weak-splitting"
SECTION_ONLY = "section-only"


@dataclass(frozen=True)
class Section:
    """A set-theoretic section of a surjection, with its classification.

    classification is the strongest label that applies:
    ``splitting`` (the section is a homomorphism), ``weak-splitting``
    (identity/inverse preservation plus homomorphism modulo the center of the
    big group), else ``section-only``.
    """

    of: GroupHom
    map: tuple[int, ...]
    classification: str

    def is_splitting(self) -> bool:
        return self.classification == SPLITTING

    def is_weak_splitting(self) -> bool:
        return self.classification in (SPLITTING, WEAK_SPLITTING)


def classify_section(phi: GroupHom, sec: Sequence[int]) -> Section:
    """Classify a candidate section; raises if it is not a section at all.

    Every check runs on the int64 tables at once.
    """
    h, g = phi.domain, phi.codomain
    m = tuple(int(v) for v in sec)
    if len(m) != g.order or any(v < 0 or v >= h.order for v in m):
        raise GroupError("map is not a section of the given surjection")
    psi = np.array(m, dtype=np.int64)
    if not np.array_equal(np.array(phi.map)[psi], np.arange(g.order)):
        raise GroupError("map is not a section of the given surjection")
    products = h.table[psi[:, None], psi[None, :]]  # psi(x) psi(y)
    psi_xy = psi[g.table]  # psi(xy)
    if np.array_equal(products, psi_xy):
        return Section(phi, m, SPLITTING)
    h_inv = h._inv
    central = np.zeros(h.order, dtype=bool)
    central[center(h)] = True
    weak = (
        m[0] == 0
        and np.array_equal(psi[g._inv], h_inv[psi])
        and central[h.table[products, h_inv[psi_xy]]].all()
    )
    return Section(phi, m, WEAK_SPLITTING if weak else SECTION_ONLY)


@dataclass
class SectionSearch:
    """Result of classify_sections.

    ``n_candidates`` is the number of sections, the product of the fiber
    sizes; it is counted, not enumerated.  ``splittings`` holds every
    splitting and ``weak_splittings`` every other weak splitting, each in
    lexicographic order.  ``nodes`` is the number of partial assignments the
    search visited.
    """

    phi: GroupHom
    n_candidates: int
    nodes: int = 0
    splittings: list[Section] = field(default_factory=list)
    weak_splittings: list[Section] = field(default_factory=list)

    @property
    def has_splitting(self) -> bool:
        return bool(self.splittings)

    @property
    def has_weak_splitting(self) -> bool:
        return bool(self.weak_splittings) or bool(self.splittings)

    def summary(self) -> str:
        parts = [
            f"{self.n_candidates} candidates, {self.nodes} search nodes",
            "splitting: " + ("yes" if self.has_splitting else "no"),
            "weak splitting: " + ("yes" if self.has_weak_splitting else "no"),
        ]
        return "; ".join(parts)


def _fibers(phi: GroupHom) -> list[list[int]]:
    fibers: list[list[int]] = [[] for _ in range(phi.codomain.order)]
    for a, v in enumerate(phi.map):
        fibers[v].append(a)
    return fibers


def classify_sections(phi: GroupHom, *, max_candidates: int | None = None) -> SectionSearch:
    """Find every splitting and weak splitting of a surjective homomorphism.

    Both kinds fix 1 and commute with inverses, so the search assigns
    psi(x) and psi(x^-1) = psi(x)^-1 together: one level per inverse pair,
    led by its smaller element x, whose fiber is tried in increasing order.
    Position x^-1 comes after x and is fixed by it, so depth-first order is
    lexicographic order of the whole section.  A node checks the
    center-defect condition only on the triples (a, b, ab) that contain a
    newly assigned element, so every complete assignment is a weak
    splitting; classify_section labels it.  ``max_candidates`` (default
    ``config.DEFAULT.section_candidates``) caps the nodes visited, and going
    over it raises BoundExceededError.
    """
    if not is_surjective(phi):
        raise GroupError("classify_sections requires a surjective homomorphism")
    bound = max_candidates if max_candidates is not None else config.DEFAULT.section_candidates
    fibers = _fibers(phi)
    result = SectionSearch(phi=phi, n_candidates=math.prod(len(f) for f in fibers))

    g, h = phi.codomain, phi.domain
    g_mul, g_inv = g.table.tolist(), g._inv.tolist()
    h_mul, h_inv = h.table.tolist(), h._inv.tolist()
    central = [False] * h.order
    for z in center(h):
        central[z] = True
    leaders = [x for x in g.elements() if 0 < x <= g_inv[x]]
    assign = [-1] * g.order
    assign[0] = 0
    assigned = [0]

    def defect_ok(c: int) -> bool:
        # the triples (a, c), (c, a) and (a, a^-1 c) over every assigned a
        pc = assign[c]
        for a in assigned:
            pa = assign[a]
            p = assign[g_mul[a][c]]
            if p >= 0 and not central[h_mul[h_mul[pa][pc]][h_inv[p]]]:
                return False
            p = assign[g_mul[c][a]]
            if p >= 0 and not central[h_mul[h_mul[pc][pa]][h_inv[p]]]:
                return False
            p = assign[g_mul[g_inv[a]][c]]
            if p >= 0 and not central[h_mul[h_mul[pa][p]][h_inv[pc]]]:
                return False
        return True

    def extend(i: int):
        if i == len(leaders):
            sec = classify_section(phi, assign)
            if sec.classification == SPLITTING:
                result.splittings.append(sec)
            elif sec.classification == WEAK_SPLITTING:
                result.weak_splittings.append(sec)
            return
        x = leaders[i]
        xi = g_inv[x]
        new = [x] if x == xi else [x, xi]
        for v in fibers[x]:
            vi = h_inv[v]
            if x == xi and v != vi:
                continue
            result.nodes += 1
            if result.nodes > bound:
                raise BoundExceededError(f"section search exceeds node bound {bound}")
            assign[x] = v
            assign[xi] = vi
            assigned.extend(new)
            if all(defect_ok(c) for c in new):
                extend(i + 1)
            del assigned[-len(new):]
            assign[x] = -1
            assign[xi] = -1

    extend(0)
    return result


# ---------------------------------------------------------------------------
# Named families and the small-group catalog

def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("cyclic group order must be positive")
    config.check_table_cells(n)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, name=f"C{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n, elements encoded as j*n + k for r^k s^j."""
    if n < 1:
        raise GroupError("dihedral parameter must be positive")
    config.check_table_cells(2 * n)

    def mul(a, b):
        k1, j1 = a % n, a // n
        k2, j2 = b % n, b // n
        if j1 == 0:
            return ((k1 + k2) % n) + n * j2
        return ((k1 - k2) % n) + n * ((j1 + j2) % 2)

    table = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    return FiniteGroup(table, name=f"D{n}")


def dicyclic(n: int) -> FiniteGroup:
    """Dicyclic (generalized quaternion) group of order 4n; Q8 is n=2."""
    if n < 1:
        raise GroupError("dicyclic parameter must be positive")
    config.check_table_cells(4 * n)
    m = 2 * n

    def mul(x, y):
        k1, j1 = x % m, x // m
        k2, j2 = y % m, y // m
        if j1 == 0:
            return ((k1 + k2) % m) + m * j2
        if j2 == 0:
            return ((k1 - k2) % m) + m
        return (k1 - k2 + n) % m

    table = [[mul(a, b) for b in range(4 * n)] for a in range(4 * n)]
    return FiniteGroup(table, name=f"Q{4 * n}" if n >= 2 else "C4")


def _perm_group(perms: list[tuple[int, ...]], name: str) -> FiniteGroup:
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(len(q)))] for q in perms] for p in perms
    ]
    return FiniteGroup(table, names=[str(list(p)) for p in perms], name=name)


def symmetric(n: int) -> FiniteGroup:
    config.check_table_cells(math.factorial(n))
    perms = [tuple(p) for p in itertools.permutations(range(n))]
    return _perm_group(perms, f"S{n}")


def _parity(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    sign = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        sign ^= (length - 1) & 1
    return sign


def alternating(n: int) -> FiniteGroup:
    config.check_table_cells(math.factorial(n) // 2)
    perms = [tuple(p) for p in itertools.permutations(range(n)) if _parity(tuple(p)) == 0]
    return _perm_group(perms, f"A{n}")


def direct_product(g1: FiniteGroup, g2: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """g1 x g2 with (a, b) encoded as a * |g2| + b."""
    n = g1.order * g2.order
    config.check_table_cells(n)
    table = (g1.table[:, None, :, None] * g2.order + g2.table[None, :, None, :]).reshape(n, n)
    return FiniteGroup(table, name=name or f"{g1.label()}x{g2.label()}")


def _invariant_key(g: FiniteGroup):
    orders = sorted(g.element_order(a) for a in g.elements())
    return (g.order, tuple(orders), g.is_abelian(), len(center(g)))


def _generators(order: int, products) -> list[int]:
    """Greedy generating set of a table with identity 0: the smallest element
    not yet reached, then the closure of the reached set under right
    multiplication by every generator so far.  ``products(a, b)`` gives a*b
    elementwise over broadcast int arrays.  On a group table each closure is
    the subgroup the generators so far generate, and when the loop ends every
    element has been multiplied by every generator."""
    reached = np.zeros(order, dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while frontier.size:
            step = products(frontier[:, None], np.array(gens)).ravel()
            fresh = np.zeros(order, dtype=bool)
            fresh[step] = True
            fresh &= ~reached
            reached |= fresh
            frontier = np.flatnonzero(fresh)
    return gens


def _is_associative(arr: np.ndarray, gens: Sequence[int]) -> bool:
    """Light's test: (x*g)*y == x*(g*y) for every x, y and every g in the
    generating set ``gens``.  The elements g that pass are closed under the
    product (Clifford & Preston, vol. 1, section 1.2), and every element is a
    product of generators, so the check is exact at O(n^2 |gens|) cost."""
    return all(np.array_equal(arr[arr[:, g]], arr[:, arr[g]]) for g in gens)


def _close_hom(
    t1: list[list[int]], t2: list[list[int]], m: dict[int, int]
) -> dict[int, int] | None:
    """Extend a partial map, in place, to the subgroup its keys generate by
    the homomorphism law of the tables ``t1`` -> ``t2`` (row lists); None if
    the law forces two images for one element."""
    frontier = list(m)
    while frontier:
        nxt = []
        for a in list(m):
            for b in frontier:
                for x, y in ((a, b), (b, a)):
                    c = t1[x][y]
                    w = t2[m[x]][m[y]]
                    if c in m:
                        if m[c] != w:
                            return None
                    else:
                        m[c] = w
                        nxt.append(c)
        frontier = nxt
    return m


def find_isomorphism(g1: FiniteGroup, g2: FiniteGroup) -> tuple[int, ...] | None:
    """First group isomorphism g1 -> g2 found, or None.

    Backtracks over images of a small generating set, extending each partial
    choice to the generated subgroup and pruning on conflicts.
    """
    if _invariant_key(g1) != _invariant_key(g2):
        return None
    gens = g1.gens
    t1, t2 = g1.table.tolist(), g2.table.tolist()
    orders2: dict[int, list[int]] = {}
    for a in g2.elements():
        orders2.setdefault(g2.element_order(a), []).append(a)

    def extend(i: int, mapping: dict[int, int]) -> dict[int, int] | None:
        if i == len(gens):
            if len(mapping) == g1.order:
                return mapping
            return None
        gen = gens[i]
        if gen in mapping:
            return extend(i + 1, mapping)
        for img in orders2[g1.element_order(gen)]:
            if img in mapping.values():
                continue
            closed = _close_hom(t1, t2, {**mapping, gen: img})
            if closed is None or len(set(closed.values())) != len(closed):
                continue
            found = extend(i + 1, closed)
            if found is not None:
                return found
        return None

    result = extend(0, {0: 0})
    if result is None:
        return None
    return tuple(result[a] for a in g1.elements())


def catalog(max_order: int) -> list[FiniteGroup]:
    """Named small groups up to isomorphism: cyclic, symmetric, alternating,
    dihedral, quaternion (dicyclic) families plus the closure under binary
    direct products, deduplicated by exhaustive isomorphism search within
    buckets of equal isomorphism invariants."""
    if max_order > 32:
        raise BoundExceededError("catalog supports max_order <= 32")
    raw: list[FiniteGroup] = []
    raw.extend(cyclic(n) for n in range(1, max_order + 1))
    n = 3
    while math.factorial(n) <= max_order:
        raw.append(symmetric(n))
        n += 1
    n = 3
    while math.factorial(n) // 2 <= max_order:
        raw.append(alternating(n))
        n += 1
    raw.extend(dihedral(k) for k in range(3, max_order // 2 + 1))
    raw.extend(dicyclic(k) for k in range(2, max_order // 4 + 1))

    kept: list[FiniteGroup] = []
    buckets: dict[tuple, list[FiniteGroup]] = {}

    def keep_if_new(g: FiniteGroup) -> None:
        bucket = buckets.setdefault(_invariant_key(g), [])
        if not any(find_isomorphism(g, other) is not None for other in bucket):
            bucket.append(g)
            kept.append(g)

    for g in raw:
        keep_if_new(g)

    # Close under binary direct products.  g1 x g2 is isomorphic to g2 x g1
    # and a product once known stays known, so each unordered pair is tried
    # once, in the round where its later factor is first present; the pairs
    # skipped are exactly those the full ordered sweep would find known.
    paired = 0  # kept[:paired] have been tried against each other
    while paired < len(kept):
        current = len(kept)
        for i in range(current):
            for j in range(max(i, paired), current):
                g1, g2 = kept[i], kept[j]
                if g1.order * g2.order > max_order or g1.order == 1 or g2.order == 1:
                    continue
                prod_name = "x".join(sorted([g1.label(), g2.label()]))
                keep_if_new(direct_product(g1, g2, name=prod_name))
        paired = current
    kept.sort(key=lambda g: (g.order, g.label()))
    return kept


def subgroups(g: FiniteGroup) -> list[frozenset[int]]:
    """All subgroups, discovered by closing generator sets."""
    rows = g.table.tolist()

    def closure(seed: set[int]) -> frozenset[int]:
        current = set(seed)
        changed = True
        while changed:
            changed = False
            items = list(current)
            for a in items:
                for b in items:
                    c = rows[a][b]
                    if c not in current:
                        current.add(c)
                        changed = True
        return frozenset(current)

    trivial = frozenset({0})
    found = {trivial}
    queue = [trivial]
    while queue:
        h = queue.pop()
        for x in g.elements():
            if x in h:
                continue
            bigger = closure(h | {x})
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def normal_subgroups(g: FiniteGroup) -> list[frozenset[int]]:
    rows, inv = g.table.tolist(), g._inv.tolist()
    out = []
    for h in subgroups(g):
        if all(rows[rows[x][a]][inv[x]] in h for x in g.elements() for a in h):
            out.append(h)
    return out


@dataclass
class WeakNotStrongWitness:
    group: FiniteGroup
    normal: tuple[int, ...]
    phi: GroupHom
    search: SectionSearch


def catalog_search_weak_not_strong(
    max_order: int, *, max_candidates: int | None = None
) -> list[WeakNotStrongWitness]:
    """Search every quotient surjection of every catalog group for a weak
    splitting without a splitting.  An empty list is a valid outcome."""
    witnesses = []
    for g in catalog(max_order):
        for nsub in normal_subgroups(g):
            _, phi = quotient_by_subgroup(g, nsub)
            search = classify_sections(phi, max_candidates=max_candidates)
            if search.has_weak_splitting and not search.has_splitting:
                witnesses.append(
                    WeakNotStrongWitness(g, tuple(sorted(nsub)), phi, search)
                )
    return witnesses


def surjective_homs(
    domain: FiniteGroup, codomain: FiniteGroup, limit: int | None = None
) -> list[GroupHom]:
    """All surjective homomorphisms domain -> codomain (deterministic order)."""
    if codomain.order > domain.order or domain.order % codomain.order != 0:
        return []
    gens = domain.gens
    t1, t2 = domain.table.tolist(), codomain.table.tolist()
    out: list[GroupHom] = []

    def extend(i: int, mapping: dict[int, int]):
        if limit is not None and len(out) >= limit:
            return
        if i == len(gens):
            if len(mapping) == domain.order and len(set(mapping.values())) == codomain.order:
                out.append(GroupHom(domain, codomain, tuple(mapping[a] for a in domain.elements())))
            return
        gen = gens[i]
        if gen in mapping:
            extend(i + 1, mapping)
            return
        gen_order = domain.element_order(gen)
        for img in codomain.elements():
            if gen_order % codomain.element_order(img) != 0:
                continue
            closed = _close_hom(t1, t2, {**mapping, gen: img})
            if closed is not None:
                extend(i + 1, closed)

    extend(0, {0: 0})
    return out


# ---------------------------------------------------------------------------
# Automorphism groups of structures

class AutomorphismGroup:
    """The automorphisms of a structure as a permutation group.

    ``maps[i]`` realizes group element i; multiplication is composition
    (apply the right factor first); element 0 is the identity map.  From
    :func:`aut_group` the maps come in canonical order; on a copy made by
    :meth:`conjugate` they keep the order of the group conjugated.

    ``perms`` stacks the maps into one read-only int array of shape |Aut|×N
    (N the total element count): row i holds ``maps[i]``'s per-sort images
    concatenated, each offset by its sort's start.  A product is one
    vectorised composition of rows, looked up by the composite row's bytes,
    so the key is the whole row.  Construction finds the greedy generating
    set ``gens``, which multiplies every element by every generator; a
    composite missing from the list raises GroupError, so closure is checked
    exactly at O(|Aut|·|gens|·N) cost.  Order, centre and homomorphism laws
    are decided from the rows and ``gens``.  The Cayley table ``group`` is
    built on first access, at most once, and conjugate copies share it.
    """

    def __init__(
        self,
        structure: SortedStructure,
        maps: list[SortedMap],
        *,
        _table_source: "AutomorphismGroup | None" = None,
    ):
        self.structure = structure
        self.maps = maps
        self.index = {m.key(): i for i, m in enumerate(maps)}
        width = structure.total_elements
        offsets = np.repeat(np.cumsum((0,) + structure.sort_sizes)[:-1], structure.sort_sizes)
        perms = np.array([m.image_seq() for m in maps], dtype=np.min_scalar_type(width))
        perms += offsets.astype(perms.dtype)
        perms.flags.writeable = False
        self.perms = perms
        # One bytes key per row; numpy strips trailing NULs from every key
        # alike, which keeps keys of equal-width rows distinct.
        self._as_keys = np.dtype((np.bytes_, width * perms.itemsize))
        self._row_of = {key: i for i, key in enumerate(perms.view(self._as_keys).ravel().tolist())}
        self._source = _table_source or self  # the group whose rows build the table
        self._group: FiniteGroup | None = None
        self._center: tuple[int, ...] | None = None  # filled by center() on first use
        self.gens = tuple(_generators(len(maps), self.products))

    @property
    def order(self) -> int:
        return len(self.maps)

    def row_indices(self, rows: np.ndarray) -> np.ndarray:
        """The element whose ``perms`` row each row of ``rows`` is, or -1."""
        keys = np.ascontiguousarray(rows, dtype=self.perms.dtype).view(self._as_keys).ravel().tolist()
        return np.fromiter(map(self._row_of.get, keys, itertools.repeat(-1)), np.int64, len(keys))

    def products(self, a, b) -> np.ndarray:
        """maps[a] . maps[b] elementwise over int arrays (broadcast together)."""
        a, b = np.broadcast_arrays(a, b)
        rows = np.take_along_axis(self.perms[a.ravel()], self.perms[b.ravel()], axis=1)
        out = self.row_indices(rows)
        if (out < 0).any():
            raise GroupError("automorphism list is not closed under composition")
        return out.reshape(a.shape)

    @property
    def group(self) -> FiniteGroup:
        """The Cayley table, built on first access row by row from
        :meth:`products`; a conjugate copy reads the table of the group it
        was conjugated from.  Over ``config.DEFAULT.table_cells`` cells it
        raises BoundExceededError before allocating."""
        src = self._source
        if src._group is None:
            n = src.order
            config.check_table_cells(n)
            xs = np.arange(n)
            table = np.empty((n, n), dtype=np.int64)
            for i in range(n):
                table[i] = src.products(i, xs)
            s = src.structure
            src._group = FiniteGroup(table, name=f"Aut({len(s.sort_sizes)}-sorted,{s.total_elements}el)")
        return src._group

    def conjugate(self, f: SortedMap) -> "AutomorphismGroup":
        """The automorphism group of f's codomain, for an isomorphism f from
        this group's structure: element j is f . maps[j] . f^-1.

        Conjugation by f is a group isomorphism, so the copy has this
        group's generators and shares its table, and no search runs.
        """
        f_inv = f.inverse()
        maps = [f.compose(m.compose(f_inv)) for m in self.maps]
        return AutomorphismGroup(f.codomain, maps, _table_source=self._source)

    def index_of(self, m: SortedMap) -> int:
        try:
            return self.index[m.key()]
        except KeyError:
            raise GroupError("map is not an automorphism of the structure") from None


def aut_group(s: SortedStructure, *, max_elements: int | None = None) -> AutomorphismGroup:
    maps = automorphisms(s, max_elements=max_elements)
    ident = tuple(tuple(range(n)) for n in s.sort_sizes)
    if maps[0].key() != ident:
        raise GroupError("canonical order does not start with the identity")
    return AutomorphismGroup(s, maps)


# ---------------------------------------------------------------------------
# JSON serialization

def group_to_json(g: FiniteGroup) -> dict:
    # rows hold one shared int object per element, not one per cell
    shared = np.arange(g.order).astype(object)
    doc = {"order": g.order, "table": [shared[row].tolist() for row in g.table]}
    if g.names is not None:
        doc["names"] = list(g.names)
    return doc


def group_from_json(doc: Mapping) -> FiniteGroup:
    try:
        table = doc["table"]
        names = doc.get("names")
        g = FiniteGroup(table, names=names)
        if g.order != int(doc["order"]):
            raise GroupError("declared order does not match table size")
    except (KeyError, TypeError, ValueError) as exc:
        raise GroupError(f"malformed group document: {exc}") from exc
    return g


def hom_to_json(h: GroupHom) -> dict:
    return {
        "domain": group_to_json(h.domain),
        "codomain": group_to_json(h.codomain),
        "map": list(h.map),
    }


def hom_from_json(doc: Mapping) -> GroupHom:
    try:
        return GroupHom(
            group_from_json(doc["domain"]),
            group_from_json(doc["codomain"]),
            doc["map"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GroupError(f"malformed hom document: {exc}") from exc
