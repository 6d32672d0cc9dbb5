"""Finite groups, homomorphisms, and splitting search.

Identity is always element 0.  Group multiplication for automorphism groups
is map composition (apply the right factor first).  Everything is exact and
deterministic: the section search reports its finds in lexicographic order
of fiber representatives, so the first witness found is reproducible.  Both
group kinds answer one protocol, which is all the algorithms read: ``order``,
``gens``, ``mul(a, b)``, ``inverses()``, ``element_order(a)`` and ``right(q)``
(the list x -> x*q).  No algorithm reads a whole Cayley table of an
automorphism group.  The module runs on plain Python ints and tuples.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from . import config
from .errors import BoundExceededError, GroupError
from .jsondoc import _TableDocument, is_int, is_int_list
from .records import FrozenRecord, Record

# the structure layer is loaded only when aut_group runs, so the group-level
# commands never load it
if TYPE_CHECKING:
    from .structures import SortedMap, SortedStructure

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
    "decide_splittings",
    "first_weak_splitting",
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
    "group_document",
    "group_to_json",
    "group_from_json",
    "hom_to_json",
    "hom_from_json",
]


class FiniteGroup:
    """A finite group given by its full multiplication table.

    The table (equally long rows of ints) is read once into ``table``, a
    tuple of int tuples, through ``{i: i}``: a cell out of range or not an
    integer (1.7, "1") is refused, one equal to an index (True, an array
    integer) reads as that index, and every cell is its element's one
    shared int.  A table over ``config.DEFAULT.table_cells`` cells is
    refused before it is read.  Rows the library has just made from its own
    index arithmetic, tuples whose cells are drawn from ``range(order)``
    (``_adopt``), are kept as they are, with no second read and no copy;
    every check below still runs on them.

    The checks: the identity row and column; a 0, a right inverse, in every
    row, at the place :func:`_inverses` finds along the generator columns;
    Light's test (:func:`_is_associative`) on the :func:`_irredundant`
    subset of ``gens``.  In any magma the g with (x*g)*y == x*(g*y) for all
    x, y are closed under products and include the identity (Clifford &
    Preston, vol. 1, section 1.2), so the table is associative.  An
    associative table with an identity and right inverses is a group, so
    its columns are permutations and need no check.  A refusal is named by
    :func:`_fault`, which replays the checks one by one as they were always
    made.
    """

    __slots__ = ("order", "table", "names", "name", "gens", "_inv", "_center", "_hash")

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        names: Sequence[str] | None = None,
        name: str | None = None,
        *,
        _adopt: bool = False,
    ):
        try:
            n = len(table)
        except TypeError as exc:
            raise GroupError(f"multiplication table is not a square integer table: {exc}") from exc
        config.check_table_cells(n)
        index = {i: i for i in range(n)}
        ident = tuple(index)
        try:
            rows = tuple(table) if _adopt else tuple(_getter(row)(index) for row in table)
        except (KeyError, TypeError):
            rows = ()
        column = functools.cache(lambda q: [row[q] for row in rows])
        if not (n and set(map(len, rows)) == {n} and rows[0] == ident and tuple(column(0)) == ident):
            raise GroupError(_fault(table))
        gens = _generators(n, column)
        inv = _inverses(rows, gens, column)
        if inv is None or not _is_associative(rows, _irredundant(n, gens, column)):
            raise GroupError(_fault(table))
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "table", rows)
        object.__setattr__(self, "names", tuple(names) if names is not None else None)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "gens", tuple(gens))
        object.__setattr__(self, "_inv", inv)
        object.__setattr__(self, "_center", None)  # filled by center() on first use
        object.__setattr__(self, "_hash", None)  # filled by __hash__ on first use

    def __setattr__(self, key, value):  # pragma: no cover
        raise AttributeError("FiniteGroup is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the checked constructor
        return FiniteGroup, (self.table, self.names, self.name)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def inverses(self) -> list[int]:
        return list(self._inv)

    def right(self, q: int) -> list[int]:
        """x * q for every x: the table's column q."""
        return list(map(itemgetter(q), self.table))

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        return _element_order(self.table[a].__getitem__)

    def is_abelian(self) -> bool:
        # generators that commute pairwise generate an abelian group
        return all(self.mul(a, b) == self.mul(b, a) for a, b in itertools.combinations(self.gens, 2))

    def element_name(self, a: int) -> str:
        return self.names[a] if self.names else str(a)

    def label(self) -> str:
        return self.name or f"group_of_order_{self.order}"

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self is other or self.table == other.table

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.table))
        return self._hash

    def __repr__(self):
        return f"FiniteGroup({self.label()}, order={self.order})"


def _fault(table: Sequence[Sequence]) -> str:
    """Why a table is not a group: the first check it fails, in the order
    they were always made, rows and columns before associativity."""
    n = len(table)
    if n == 0:
        return "group order must be at least 1"
    if not all(hasattr(row, "__len__") and len(row) == n for row in table):
        return "multiplication table is not square"
    if not all(hasattr(v, "__index__") for row in table for v in row):
        return "multiplication table is not a square integer table: an entry is not an integer"
    if not all(0 <= v < n for row in table for v in row):
        return "table entries out of range"
    ident = list(range(n))
    if list(table[0]) != ident or [row[0] for row in table] != ident:
        return "element 0 is not an identity"
    for i, row in enumerate(table):
        if sorted(row) != ident or sorted(r[i] for r in table) != ident:
            return f"row/column {i} is not a permutation"
    return "multiplication table is not associative"


def _getter(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """s -> the tuple of s[i] for i in ``indices``: an itemgetter, except
    that an itemgetter of one index returns the item, not a 1-tuple."""
    if len(indices) == 1:
        (i,) = indices
        return lambda s: (s[i],)
    return itemgetter(*indices)


def _as_indices(values: Iterable, what: str) -> tuple[int, ...]:
    """``values`` read by ``operator.index``: 1.9 or "1" raises GroupError."""
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise GroupError(f"{what} must hold integers: {exc}") from None


class GroupHom:
    """Total map between groups satisfying the homomorphism law everywhere;
    either group may be a FiniteGroup or an AutomorphismGroup."""

    __slots__ = ("domain", "codomain", "map")

    def __init__(self, domain, codomain, mapping: Sequence[int]):
        m = _as_indices(mapping, "hom map")
        if len(m) != domain.order:
            raise GroupError("hom map is not total")
        if any(v < 0 or v >= codomain.order for v in m):
            raise GroupError("hom map has out-of-range values")
        if m[0] != 0:
            raise GroupError("hom does not fix the identity")
        if not _hom_law_holds(m, domain, codomain):
            raise GroupError("map violates the homomorphism law")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "map", m)

    def __setattr__(self, key, value):  # pragma: no cover
        raise AttributeError("GroupHom is immutable")

    def __reduce__(self):
        return GroupHom, (self.domain, self.codomain, self.map)

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


def _hom_law_holds(m: Sequence[int], domain, codomain) -> bool:
    """m(1) == 1 and m(xg) == m(x)m(g) for every x and every generator g of
    the domain; m is in range.  Every element is a word in the generators, so
    by induction on its length this is the law for every pair, at
    O(|domain|·|gens|) cost: the two sides are the column of g read through m
    and m read through the column of m(g).  Either group may be a FiniteGroup
    or an AutomorphismGroup."""
    return m[0] == 0 and all(
        list(map(m.__getitem__, domain.right(g))) == list(map(codomain.right(m[g]).__getitem__, m))
        for g in domain.gens
    )


def is_hom(mapping: Sequence[int], domain, codomain) -> bool:
    """Exact check of the homomorphism law for a candidate map, between
    FiniteGroups or AutomorphismGroups."""
    m = _as_indices(mapping, "hom map")
    if len(m) != domain.order or any(v < 0 or v >= codomain.order for v in m):
        return False
    return _hom_law_holds(m, domain, codomain)


def is_surjective(h: GroupHom) -> bool:
    return len(set(h.map)) == h.codomain.order


def center(g) -> list[int]:
    """All elements commuting with every generator, hence with the whole
    group; always contains 0.  ``g`` is a FiniteGroup or an
    AutomorphismGroup: x*q is read from q's column and q*x from ``mul``,
    and each x stops at its first mismatch.  The centre is computed once per
    group and kept on it."""
    if g._center is None:
        columns = [(q, g.right(q)) for q in g.gens]
        mul = g.mul
        commuting = (x for x in range(g.order) if all(col[x] == mul(q, x) for q, col in columns))
        object.__setattr__(g, "_center", tuple(commuting))
    return list(g._center)


def quotient_by_subgroup(g: FiniteGroup, sub: Iterable[int]) -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a normal subgroup, with the natural projection.

    Cosets are numbered by their minimal element, so the identity coset is
    element 0 of the quotient.
    """
    n_set = set(_as_indices(sub, "subgroup"))
    if any(x < 0 or x >= g.order for x in n_set):
        raise GroupError("subgroup element out of range")
    if 0 not in n_set:
        raise GroupError("subgroup must contain the identity")
    rows = g.table
    for a in n_set:
        for b in n_set:
            if rows[a][b] not in n_set:
                raise GroupError("subset is not closed under multiplication")
    if not _is_normal(g, n_set):
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


def _is_normal(g: FiniteGroup, sub: set[int] | frozenset[int]) -> bool:
    """Whether the subgroup ``sub`` is closed under conjugation by every element."""
    rows, inv = g.table, g.inverses()
    return all(rows[rows[x][a]][inv[x]] in sub for x in g.elements() for a in sub)


def quotient_by_center(g: FiniteGroup) -> tuple[FiniteGroup, GroupHom]:
    return quotient_by_subgroup(g, center(g))


# ---------------------------------------------------------------------------
# Sections of a surjection and their classification

SPLITTING = "splitting"
WEAK_SPLITTING = "weak-splitting"
SECTION_ONLY = "section-only"


class Section(FrozenRecord):
    """A set-theoretic section of a surjection, with its classification.

    classification is the strongest label that applies:
    ``splitting`` (the section is a homomorphism), ``weak-splitting``
    (identity/inverse preservation plus homomorphism modulo the center of the
    big group), else ``section-only``.
    """

    __slots__ = _fields = ("of", "map", "classification")

    def __init__(self, of: GroupHom, map: tuple[int, ...], classification: str):
        object.__setattr__(self, "of", of)
        object.__setattr__(self, "map", map)
        object.__setattr__(self, "classification", classification)

    def is_splitting(self) -> bool:
        return self.classification == SPLITTING

    def is_weak_splitting(self) -> bool:
        return self.classification in (SPLITTING, WEAK_SPLITTING)


def _center_cosets(h) -> list[int]:
    """x -> the smallest element of x Z(H), filled from it by |Z(H)| products
    once per coset: u v^-1 is central exactly when u and v get one id."""
    ids, central = [-1] * h.order, center(h)
    for x in range(h.order):
        for z in central if ids[x] < 0 else ():
            ids[h.mul(x, z)] = x
    return ids


def _labeller(phi: GroupHom) -> Callable[[Sequence[int]], str]:
    """The classifier of sections psi of ``phi``: H -> G, on the defects
    psi(x) psi(q) psi(xq)^-1 for every x and every generator q of G.

    Both labels need psi(1) = 1.  psi is a splitting iff every defect is 1,
    by the induction of :func:`_hom_law_holds`; otherwise a weak splitting
    iff psi(x^-1) = psi(x)^-1 for every x and every defect is central.  That
    is the definition with y restricted to generators, so it is necessary.
    It suffices: central defects make pi.psi, for pi: H -> H/Z(H), obey the
    law on generators, so pi.psi is a homomorphism by the same induction, and
    then every defect psi(x) psi(y) psi(xy)^-1 lies in the kernel Z(H).
    A defect is 1 (central) when its sides psi(x) psi(q), column psi(q) of H
    read through psi, and psi(xq), psi read through column q of G, are equal
    (in one Z(H)-coset, :func:`_center_cosets`).  The cosets and both
    inverse tables are built on the first psi that is not a splitting.
    """
    h, g = phi.domain, phi.codomain
    h_right = functools.cache(h.right)
    gens, through_g = g.gens, [_getter(g.right(q)) for q in g.gens]

    @functools.cache
    def weak_tables():
        coset = _center_cosets(h)
        coset_right = functools.cache(lambda v: list(map(coset.__getitem__, h_right(v))))
        return coset, coset_right, _getter(g.inverses()), h.inverses()

    def label(psi: Sequence[int]) -> str:
        if psi[0] != 0:
            return SECTION_ONLY
        through_psi = _getter(psi)
        if [through_psi(h_right(psi[q])) for q in gens] == [t(psi) for t in through_g]:
            return SPLITTING
        coset, h_coset_right, g_inv, h_inv = weak_tables()
        cosets = through_psi(coset)
        weak = [through_psi(h_coset_right(psi[q])) for q in gens] == [t(cosets) for t in through_g]
        return WEAK_SPLITTING if weak and g_inv(psi) == through_psi(h_inv) else SECTION_ONLY

    return label


def classify_section(phi: GroupHom, sec: Sequence[int]) -> Section:
    """Classify a candidate section; raises if it is not a section at all.

    This is the classifier :func:`classify_sections` labels its leaves with
    (:func:`_labeller`), so both apply the same splitting and weak-splitting
    rules.
    """
    h, g = phi.domain, phi.codomain
    label = _labeller(phi)
    m = _as_indices(sec, "section")
    if len(m) != g.order or any(v < 0 or v >= h.order or phi.map[v] != x for x, v in enumerate(m)):
        raise GroupError("map is not a section of the given surjection")
    return Section(phi, m, label(m))


class SectionSearch(Record):
    """Result of classify_sections.

    ``n_candidates`` is the number of sections, the product of the fiber
    sizes; it is counted, not enumerated.  ``splittings`` holds every
    splitting and ``weak_splittings`` every other weak splitting, each in
    lexicographic order (fresh lists when none are given).  ``nodes`` is the
    number of partial assignments the search visited.
    """

    __slots__ = _fields = ("phi", "n_candidates", "nodes", "splittings", "weak_splittings")

    def __init__(
        self,
        phi: GroupHom,
        n_candidates: int,
        nodes: int = 0,
        splittings: list[Section] | None = None,
        weak_splittings: list[Section] | None = None,
    ):
        self.phi = phi
        self.n_candidates = n_candidates
        self.nodes = nodes
        self.splittings = [] if splittings is None else splittings
        self.weak_splittings = [] if weak_splittings is None else weak_splittings

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


class _NodeBudget:
    """The nodes a section search has visited, against its bound."""

    __slots__ = ("bound", "used")

    def __init__(self, max_candidates: int | None):
        default = config.DEFAULT.section_candidates
        self.bound = max_candidates if max_candidates is not None else default
        self.used = 0

    def take(self) -> None:
        self.used += 1
        if self.used > self.bound:
            raise BoundExceededError(f"section search exceeds node bound {self.bound}")


def _weak_splittings(
    phi: GroupHom, fibers: list[list[int]], budget: _NodeBudget
) -> Iterator[list[int]]:
    """Every weak splitting of ``phi``, each as a fresh list, in
    lexicographic order; ``fibers`` is :func:`_fibers` of ``phi``.

    Both kinds of splitting fix 1 and commute with inverses, so the search
    assigns psi(x) and psi(x^-1) = psi(x)^-1 together: one level per inverse
    pair, led by its smaller element x, whose fiber is tried in increasing
    order.  Position x^-1 comes after x and is fixed by it, so depth-first
    order is lexicographic order of the whole section.  A node checks the
    center-defect condition on the triples (a, b, ab) that contain a newly
    assigned element, so every complete assignment (a leaf) is a weak
    splitting.  Each node visited is taken from ``budget``; the generator
    runs only as far as its consumer reads.

    The node reads them as triangles: psi(u) psi(v) psi(w) for uvw = 1 is
    the defect of (u, v), as psi((uv)^-1) = psi(uv)^-1 where assigned.
    Rotating a triangle conjugates its value and reversing it with every
    entry inverted inverts the value, so neither changes whether it is
    central, and the assigned set is closed under inverses.  So every
    triangle holding x or x^-1 is central iff all those holding x in the
    middle are: the node checks (a, x) for every assigned a, on column x of
    G and column psi(x) of H, by the Z(H)-cosets (:func:`_center_cosets`)
    of psi(a) psi(x) and psi(ax).
    """
    g, h = phi.codomain, phi.domain
    config.check_table_cells(h.order)  # the search may read every column of H
    g_right, h_right = functools.cache(g.right), functools.cache(h.right)
    g_inv, h_inv = g.inverses(), h.inverses()
    coset = _center_cosets(h)
    leaders = [x for x in range(g.order) if 0 < x <= g_inv[x]]
    assign = [0] + [-1] * (g.order - 1)
    assigned = [0]

    def defect_ok(x: int) -> bool:
        g_x, h_x = g_right(x), h_right(assign[x])
        for a in assigned:
            p = assign[g_x[a]]
            if p >= 0 and coset[h_x[assign[a]]] != coset[p]:
                return False
        return True

    def extend(i: int) -> Iterator[list[int]]:
        if i == len(leaders):
            yield assign[:]
            return
        x = leaders[i]
        xi = g_inv[x]
        new = [x] if x == xi else [x, xi]
        for v in fibers[x]:
            vi = h_inv[v]
            if x == xi and v != vi:
                continue
            budget.take()
            assign[x], assign[xi] = v, vi
            assigned.extend(new)
            if defect_ok(x):
                yield from extend(i + 1)
            del assigned[-len(new):]
            assign[x] = assign[xi] = -1

    return extend(0)


def classify_sections(phi: GroupHom, *, max_candidates: int | None = None) -> SectionSearch:
    """Find every splitting and weak splitting of a surjective homomorphism.

    The weak splittings come from the one section search,
    :func:`_weak_splittings`, in lexicographic order, and each is labelled
    by the classifier :func:`classify_section` applies.  ``max_candidates``
    (default ``config.DEFAULT.section_candidates``) caps the nodes visited,
    and going over it raises BoundExceededError.
    """
    if not is_surjective(phi):
        raise GroupError("classify_sections requires a surjective homomorphism")
    fibers = _fibers(phi)
    result = SectionSearch(phi=phi, n_candidates=math.prod(len(f) for f in fibers))
    budget = _NodeBudget(max_candidates)
    label = _labeller(phi)
    for m in _weak_splittings(phi, fibers, budget):
        classification = label(m)
        if classification == SPLITTING:
            result.splittings.append(Section(phi, tuple(m), classification))
        elif classification == WEAK_SPLITTING:
            result.weak_splittings.append(Section(phi, tuple(m), classification))
    result.nodes = budget.used
    return result


def _first_splitting(
    phi: GroupHom, fibers: list[list[int]], budget: _NodeBudget
) -> tuple[int, ...] | None:
    """The lexicographically first splitting of ``phi``, or None when there
    is none, decided on the generators of its codomain G.

    A splitting psi is a homomorphism, so its values on ``G.gens`` fix it,
    and psi(q) has the order of q: that order divides |q| because psi is a
    homomorphism, and |q| divides it because phi(psi(q)) = q.  The search
    (:func:`_homs_on_generators`) picks psi(q) in the fiber of q among
    elements of that order, generator by generator, and extends each choice
    by the homomorphism law, dropping it on a conflict.  A choice on every
    generator that extends without conflict is a homomorphism psi: G -> H
    with phi(psi(q)) = q on every generator; then phi . psi is an
    endomorphism of G that is the identity on a generating set, so it is the
    identity, and psi is a section that is a homomorphism: a splitting.
    Conversely a splitting's own values on the generators are such a choice,
    so the leaves are exactly the splittings.

    They come in lexicographic order.  Each greedy generator is the smallest
    element outside the subgroup the earlier ones generate, so every position
    before it is fixed by the earlier choices: two splittings first differ at
    a generator, and the fiber is tried there in increasing order.  Each
    choice tried is taken from ``budget``.  Orders come from each group's own
    ``element_order`` and the law from its columns, so no table is built.
    """
    g, h = phi.codomain, phi.domain
    order_in_h = functools.cache(h.element_order)

    def same_order(q: int, m: list[int]) -> Iterator[int]:
        k = g.element_order(q)
        return (v for v in fibers[q] if order_in_h(v) == k)

    return next(_homs_on_generators(g, h, same_order, budget=budget), None)


def _first_section(phi: GroupHom, max_candidates: int | None) -> tuple[Sequence[int] | None, str]:
    """The section :func:`classify_sections` lists first and its label: the
    first splitting, else the first leaf of :func:`_weak_splittings` (a weak
    splitting, and no splitting as none exists), else None.  Both searches
    take their nodes from one ``max_candidates`` budget (default
    ``config.DEFAULT.section_candidates``); going over it raises
    BoundExceededError."""
    fibers = _fibers(phi)
    budget = _NodeBudget(max_candidates)
    first = _first_splitting(phi, fibers, budget)
    if first is not None:
        return first, SPLITTING
    return next(_weak_splittings(phi, fibers, budget), None), WEAK_SPLITTING


def decide_splittings(phi: GroupHom, *, max_candidates: int | None = None) -> tuple[bool, bool]:
    """``(has_splitting, has_weak_splitting)`` of a surjective homomorphism,
    as :func:`classify_sections` reports them, read off the first section
    it lists (:func:`_first_section`) without listing the rest.
    """
    if not is_surjective(phi):
        raise GroupError("decide_splittings requires a surjective homomorphism")
    first, label = _first_section(phi, max_candidates)
    return label == SPLITTING, first is not None


def first_weak_splitting(phi: GroupHom, *, max_candidates: int | None = None) -> Section | None:
    """The section :func:`classify_sections` lists first: its first
    splitting if there is one, else its first weak splitting, else None
    (:func:`_first_section`), found without listing the rest.
    """
    if not is_surjective(phi):
        raise GroupError("first_weak_splitting requires a surjective homomorphism")
    first, label = _first_section(phi, max_candidates)
    return None if first is None else Section(phi, tuple(first), label)


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
    config._check_table_log2(_log2_factorial(n))
    config.check_table_cells(math.factorial(n))
    perms = [tuple(p) for p in itertools.permutations(range(n))]
    return _perm_group(perms, f"S{n}")


def _log2_factorial(n: int) -> float:
    # n clamped to [0, 2**64] so a float holds it: a lower bound is enough
    return math.lgamma(min(max(n, 0), 2**64) + 1) / math.log(2)


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
    config._check_table_log2(_log2_factorial(n) - 1)
    config.check_table_cells(math.factorial(n) // 2)
    perms = [tuple(p) for p in itertools.permutations(range(n)) if _parity(tuple(p)) == 0]
    return _perm_group(perms, f"A{n}")


def direct_product(g1: FiniteGroup, g2: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """g1 x g2 with (a, b) encoded as a * |g2| + b."""
    n = g1.order * g2.order
    config.check_table_cells(n)
    table = [[u * g2.order + v for u in r1 for v in r2] for r1 in g1.table for r2 in g2.table]
    return FiniteGroup(table, name=name or f"{g1.label()}x{g2.label()}")


def _invariant_key(g: FiniteGroup):
    orders = sorted(g.element_order(a) for a in g.elements())
    return (g.order, tuple(orders), g.is_abelian(), len(center(g)))


def _generators(order: int, right: Callable[[int], Sequence[int]]) -> list[int]:
    """Greedy generating set of a table with identity 0: the smallest element
    not yet reached, then the subgroup the generators so far generate, closed
    by :func:`_close` on the identity map along the columns ``right(q)``
    (x -> x*q).  The closure does not depend on the order its elements are
    visited in, and each generator's whole column is read, so every element
    is multiplied by every generator."""
    right = functools.cache(right)
    reached = [0] + [-1] * (order - 1)
    gens: list[int] = []
    while -1 in reached:
        q = reached.index(-1)
        gens.append(q)
        reached[q] = q
        _close(reached, gens, right, right)
    return gens


def _irredundant(order: int, gens: Sequence[int], right: Callable[[int], Sequence[int]]) -> list[int]:
    """``gens`` less each generator, in turn, without which the rest still
    reach every element from 0 along their columns ``right(q)`` (closed by
    :func:`_close`): in any magma, each element is a product of the subset."""
    kept = list(gens)
    for q in gens:
        rest = [p for p in kept if p != q]
        reached = [p if p == 0 or p in rest else -1 for p in range(order)]
        _close(reached, rest, right, right)
        if -1 not in reached:
            kept = rest
    return kept


def _inverses(
    rows: Sequence[Sequence[int]], gens: Sequence[int], right: Callable[[int], Sequence[int]],
) -> tuple[int, ...] | None:
    """x -> x^-1 in a table with identity 0 that ``gens`` generate along
    their columns ``right(q)``: each generator's inverse is the 0 in its
    row, and :func:`_close` carries inv(x*q) = inv(q)*inv(x) from there,
    reading row inv(q), at O(n |gens|) cost.  None unless every row x then
    holds its 0 at inv(x): some row has no right inverse, or the table is
    not associative.  In a group neither happens."""
    ident = rows[0]
    inv = [0] + [-1] * (len(rows) - 1)
    for q in gens:
        if 0 not in rows[q]:
            return None
        inv[q] = ident[rows[q].index(0)]
    if _close(inv, gens, right, rows.__getitem__) is None:
        return None
    if not all(row[v] == 0 for row, v in zip(rows, inv)):
        return None
    return tuple(inv)


def _is_associative(rows: Sequence[Sequence[int]], gens: Sequence[int]) -> bool:
    """Light's test: (x*g)*y == x*(g*y) for every x, y and g in ``gens``, row
    x*g against row x read through row g, at O(n^2 |gens|) cost.  Exact when
    every element is a product of ``gens`` (see :class:`FiniteGroup`)."""
    for g in gens:
        through_g = _getter(rows[g])
        if not all(rows[row[g]] == through_g(row) for row in rows):
            return False
    return True


def _element_order(times_a: Callable[[int], int]) -> int:
    """The order of a, given x -> a*x: the steps from the identity back to it."""
    x, k = times_a(0), 1
    while x != 0:
        x, k = times_a(x), k + 1
    return k


def _close(
    m: list[int], gens: Sequence[int], right: Callable[[int], Sequence[int]],
    image_right: Callable[[int], Sequence[int]],
) -> list[int] | None:
    """Extend the partial map m (-1 where unmapped; 0 and ``gens`` mapped)
    in place along generator columns, m(x*q) = m(x)*m(q) for every mapped x
    and q in ``gens``, reading ``right(q)`` of the domain and
    ``image_right(m[q])`` of the codomain; None on a conflict.  The
    constructive twin of :func:`_hom_law_holds`: each mapped element is read
    once against each column, so m ends on the subgroup S that ``gens``
    generate (when it starts inside S), obeying the law there, which makes it
    a homomorphism on S.  On the identity map it closes a subgroup."""
    columns = [(right(q), image_right(m[q])) for q in gens]
    frontier = [x for x, v in enumerate(m) if v >= 0]
    while frontier:
        fresh = []
        for col, image_col in columns:
            for x in frontier:
                y, w = col[x], image_col[m[x]]
                v = m[y]
                if v < 0:
                    m[y] = w
                    fresh.append(y)
                elif v != w:
                    return None
        frontier = fresh
    return m


def _homs_on_generators(
    g, h, images: Callable[[int, list[int]], Iterable[int]], *,
    injective: bool = False, budget: _NodeBudget | None = None,
) -> Iterator[tuple[int, ...]]:
    """Every homomorphism g -> h whose value at each greedy generator q of g
    is drawn from ``images(q, m)``, m being the map closed on the generators
    before q (-1 where unmapped); each as its tuple of images, depth first in
    the order the streams give.

    Each choice is closed along the columns of the generators so far
    (:func:`_close`) and dropped on a conflict, or, when ``injective`` is
    set, when two elements get one image.  Each greedy generator lies
    outside the subgroup the earlier ones generate, so it is never mapped
    yet, and the map is total once every generator has a value.  Each
    candidate tried is taken from ``budget`` when one is given.  Either group
    may be a FiniteGroup or an AutomorphismGroup; the search runs only as far
    as its consumer reads.
    """
    gens = g.gens
    right, image_right = functools.cache(g.right), functools.cache(h.right)

    def extend(i: int, m: list[int]) -> Iterator[tuple[int, ...]]:
        if i == len(gens):
            yield tuple(m)
            return
        q = gens[i]
        for v in images(q, m):
            if budget is not None:
                budget.take()
            closed = m[:]
            closed[q] = v
            if _close(closed, gens[: i + 1], right, image_right) is None:
                continue
            if injective:
                mapped = [w for w in closed if w >= 0]
                if len(set(mapped)) < len(mapped):
                    continue
            yield from extend(i + 1, closed)

    return extend(0, [0] + [-1] * (g.order - 1))


def find_isomorphism(g1: FiniteGroup, g2: FiniteGroup) -> tuple[int, ...] | None:
    """First group isomorphism g1 -> g2 found, or None: the first injective
    homomorphism of :func:`_homs_on_generators` that sends each generator to
    an element of its order not yet used as an image.
    """
    if _invariant_key(g1) != _invariant_key(g2):
        return None
    by_order: dict[int, list[int]] = {}
    for a in g2.elements():
        by_order.setdefault(g2.element_order(a), []).append(a)

    def unused(q: int, m: list[int]) -> Iterator[int]:
        return (v for v in by_order[g1.element_order(q)] if v not in m)

    return next(_homs_on_generators(g1, g2, unused, injective=True), None)


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
    """All subgroups: from the trivial one, each subgroup H found (kept with
    its generators) grows by each element x outside it into the subgroup its
    generators and x generate, closed by :func:`_close` on the identity map.
    Every element of the coset xH grows H into that same subgroup, so each
    coset is grown from once."""
    right = functools.cache(g.right)
    found = {frozenset({0}): ()}
    queue = list(found)
    while queue:
        h = queue.pop()
        seen = set(h)
        for x in g.elements():
            if x in seen:
                continue
            seen.update(right(y)[x] for y in h)
            grown = (*found[h], x)
            m = [y if y == 0 or y in grown else -1 for y in g.elements()]
            _close(m, grown, right, right)
            bigger = frozenset(y for y, v in enumerate(m) if v >= 0)
            if bigger not in found:
                found[bigger] = grown
                queue.append(bigger)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def normal_subgroups(g: FiniteGroup) -> list[frozenset[int]]:
    return [h for h in subgroups(g) if _is_normal(g, h)]


class WeakNotStrongWitness(Record):
    __slots__ = _fields = ("group", "normal", "phi", "search")

    def __init__(self, group: FiniteGroup, normal: tuple[int, ...], phi: GroupHom, search: SectionSearch):
        self.group = group
        self.normal = normal
        self.phi = phi
        self.search = search


def catalog_search_weak_not_strong(
    max_order: int, *, max_candidates: int | None = None
) -> list[WeakNotStrongWitness]:
    """Search every quotient surjection of every catalog group for a weak
    splitting without a splitting.  An empty list is a valid outcome.

    Each quotient's two verdicts are decided by :func:`decide_splittings`;
    only a witness gets the full :func:`classify_sections` search it
    carries.  ``max_candidates`` bounds each search's nodes."""
    witnesses = []
    for g in catalog(max_order):
        for nsub in normal_subgroups(g):
            _, phi = quotient_by_subgroup(g, nsub)
            split, weak = decide_splittings(phi, max_candidates=max_candidates)
            if weak and not split:
                search = classify_sections(phi, max_candidates=max_candidates)
                witnesses.append(WeakNotStrongWitness(g, tuple(sorted(nsub)), phi, search))
    return witnesses


def surjective_homs(
    domain: FiniteGroup, codomain: FiniteGroup, limit: int | None = None
) -> list[GroupHom]:
    """All surjective homomorphisms domain -> codomain (deterministic order),
    or the first ``limit`` of them: the onto results of
    :func:`_homs_on_generators` over images whose order divides the
    generator's."""
    if codomain.order > domain.order or domain.order % codomain.order != 0:
        return []
    orders = [codomain.element_order(v) for v in codomain.elements()]

    def dividing(q: int, m: list[int]) -> Iterator[int]:
        k = domain.element_order(q)
        return (v for v, j in enumerate(orders) if k % j == 0)

    homs = _homs_on_generators(domain, codomain, dividing)
    onto = (m for m in homs if len(set(m)) == codomain.order)
    return [GroupHom(domain, codomain, m) for m in itertools.islice(onto, limit)]


# ---------------------------------------------------------------------------
# Automorphism groups of structures

class AutomorphismGroup:
    """The automorphisms of a structure as a permutation group.

    ``perms[i]`` is element i as a row (:meth:`SortedMap.row`), the group's
    one copy of it; ``row_index`` maps a row back to its element, and
    :meth:`map` makes element i as a SortedMap on request.  Multiplication
    is composition (apply the right factor first), so a product is two rows
    composed and looked up; row 0 is the identity.  From :func:`aut_group`
    the rows come in the search's order.

    The group protocol is answered from the rows in pure Python:
    ``right(q)`` is q's column, made once and kept; ``inverses()`` inverts
    every row, and ``element_order(a)`` multiplies by a until the identity.
    Construction finds the greedy generating set ``gens`` by composing every
    row with each generator's row, and a composite missing from the rows
    raises GroupError, so closure is checked exactly at O(|Aut|·|gens|·N)
    cost for N elements.  Two groups are equal when they have the same
    structure and the same rows.
    """

    def __init__(self, structure: SortedStructure, perms: list[tuple[int, ...]]):
        self.structure = structure
        self.perms = perms
        self.row_index = {row: i for i, row in enumerate(perms)}
        self._inverses: list[int] | None = None
        self._center: tuple[int, ...] | None = None  # filled by center() on first use
        self._tree: tuple[list[int], list[int]] | None = None  # filled by right() on first use
        self._columns = {0: list(range(len(perms)))}
        self.gens = tuple(_generators(len(perms), self._composed))

    @property
    def order(self) -> int:
        return len(self.perms)

    def map(self, i: int) -> SortedMap:
        """Element i as a SortedMap, made on request."""
        from .structures import SortedMap

        return SortedMap.from_row(self.structure, self.structure, self.perms[i])

    def _lookup(self, row: tuple[int, ...]) -> int:
        try:
            return self.row_index[row]
        except KeyError:
            raise GroupError("automorphism list is not closed under composition") from None

    def mul(self, a: int, b: int) -> int:
        return self._lookup(_compose_rows(self.perms[a], self.perms[b]))

    def element_order(self, a: int) -> int:
        return _element_order(functools.partial(self.mul, a))

    def inverses(self) -> list[int]:
        if self._inverses is None:
            self._inverses = [self._lookup(_invert_row(p)) for p in self.perms]
        return self._inverses

    def _composed(self, q: int) -> list[int]:
        """Column q, kept: every row composed with ``perms[q]``."""
        compose = _getter(self.perms[q])
        try:
            col = list(map(self.row_index.__getitem__, map(compose, self.perms)))
        except KeyError:
            raise GroupError("automorphism list is not closed under composition") from None
        self._columns[q] = col
        return col

    def right(self, q: int) -> list[int]:
        """x * q for every x, made once per q and kept: q = j*g on a Schreier
        tree (:func:`_schreier_tree`), so column q is column g read through
        column j, and the missing columns on q's path are made top down."""
        columns = self._columns
        if q not in columns:
            if self._tree is None:
                self._tree = _schreier_tree(self.order, [(g, columns[g]) for g in self.gens])
            parent, via = self._tree
            path = [q]
            while parent[path[-1]] not in columns:
                path.append(parent[path[-1]])
            for p in reversed(path):
                columns[p] = list(map(columns[via[p]].__getitem__, columns[parent[p]]))
        return columns[q]

    def index_of(self, m: SortedMap) -> int:
        """The element whose row is m's."""
        i = self.row_index.get(m.row()) if m.domain.sort_sizes == self.structure.sort_sizes else None
        if i is None:
            raise GroupError("map is not an automorphism of the structure")
        return i

    def __eq__(self, other):
        if not isinstance(other, AutomorphismGroup):
            return NotImplemented
        return self is other or (self.structure == other.structure and self.perms == other.perms)

    def __hash__(self):
        return hash(self.structure)


def _compose_rows(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """The row of x after y (apply y, then x)."""
    return tuple(map(x.__getitem__, y))


def _invert_row(p: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of a permutation row: its positions sorted by their images."""
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def _schreier_tree(order: int, steps: list[tuple[int, list[int]]]) -> tuple[list[int], list[int]]:
    """(parent, via) with q = parent[q] * via[q] for every q but 0: the
    breadth-first tree from 0 along ``steps``, (generator, column) pairs."""
    parent, via = [0] + [-1] * (order - 1), [-1] * order
    reached = [0]
    for j in reached:  # grows as it is read, in breadth-first order
        for q, col in steps:
            jq = col[j]
            if parent[jq] < 0:
                parent[jq], via[jq] = j, q
                reached.append(jq)
    return parent, via


def aut_group(s: SortedStructure, *, max_elements: int | None = None) -> AutomorphismGroup:
    from .structures import isomorphism_rows

    perms = isomorphism_rows(s, s, max_elements=max_elements)
    if perms[0] != tuple(range(s.total_elements)):
        raise GroupError("canonical order does not start with the identity")
    return AutomorphismGroup(s, perms)


# ---------------------------------------------------------------------------
# JSON serialization

def group_document(g: FiniteGroup, table) -> dict:
    """The group document of ``g`` with ``table`` as its ``table`` value:
    the list of rows :func:`group_to_json` makes, or ``g.table`` itself for
    a writer that takes int tuples.  With ``g.table`` the document is
    marked as holding a checked table, so the CLI writes it with no
    per-cell type check.  This function alone names the keys."""
    doc = {"order": g.order, "table": table}
    if table is g.table:
        doc = _TableDocument(doc)
        doc.rows = table
    if g.names is not None:
        doc["names"] = list(g.names)
    return doc


def group_to_json(g: FiniteGroup) -> dict:
    # the rows keep the table's one shared int object per element
    return group_document(g, list(map(list, g.table)))


def group_from_json(doc: Mapping) -> FiniteGroup:
    """The group of an ``{"order": n, "table": [[...]], "names": [...]}``
    document.  ``order`` and every cell must be JSON integers (not bools or
    floats), and ``names``, when present, a list of exactly ``order``
    strings; anything else raises GroupError("malformed group document: …").
    """
    if not isinstance(doc, Mapping):
        raise _malformed(f"expected a JSON object, not {type(doc).__name__}")
    try:
        order, table, names = doc["order"], doc["table"], doc.get("names")
    except KeyError as exc:
        raise _malformed(f"missing field {exc}") from exc
    if not is_int(order):
        raise _malformed(f"order must be an integer, not {order!r}")
    if not isinstance(table, list) or not all(is_int_list(row) for row in table):
        raise _malformed("table must be a list of lists of integers")
    if names is not None and not (
        isinstance(names, list) and len(names) == order and all(isinstance(x, str) for x in names)
    ):
        raise _malformed(f"names must be a list of {order} strings")
    g = FiniteGroup(table, names=names)
    if g.order != order:
        raise _malformed("declared order does not match table size")
    return g


def _malformed(why: str) -> GroupError:
    return GroupError(f"malformed group document: {why}")


def hom_to_json(h: GroupHom) -> dict:
    return {
        "domain": group_to_json(h.domain),
        "codomain": group_to_json(h.codomain),
        "map": list(h.map),
    }


def hom_from_json(doc: Mapping) -> GroupHom:
    """The homomorphism of a ``{"domain": …, "codomain": …, "map": [...]}``
    document; ``map`` must be a list of JSON integers, and anything else
    raises GroupError("malformed hom document: …")."""
    try:
        if not is_int_list(doc["map"]):
            raise ValueError(f"map must be a list of integers, not {doc['map']!r}")
        return GroupHom(
            group_from_json(doc["domain"]),
            group_from_json(doc["codomain"]),
            doc["map"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GroupError(f"malformed hom document: {exc}") from exc
