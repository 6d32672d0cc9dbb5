"""Independent brute-force oracles.

These deliberately avoid the library's search code paths: isomorphisms by
filtering all permutation families, skew multiplication by string rewriting,
cyclic skew tables and direct products cell by cell, the homomorphism law
over every pair, homomorphisms by extending every tuple of generator images
along words, skew projection defects by sampling pairs, random skew
elements through ``Random.randrange`` and ``Random.sample``, sections by raw
fiber products, the section search and its labeller on whole Cayley tables
made through ``mul``, matched triples by enumerating full commutative matrices
and by listing every frame of a triple space, twist-equivalence classes by
pairwise comparison, thread sets by scanning every triple once per
element, the uniform construction's output by relabelling the base member
along one isomorphism, restriction maps by looking each cut-down
automorphism up as a map.  The family oracle
assembles each relabelled copy's problem again and carries the weak
splitting across map by map.  The catalog
oracle keeps the library's isomorphism search but re-tries every ordered
product pair in every round.  A construction map F is modelled as an
explicit lookup table (:class:`Solver`) from the reducts of a catalog of
copies back to the copies, composed and reduced table by table.
Expected values in the tests are frozen from these.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from uniconstruct import config
from uniconstruct.errors import (
    BoundExceededError,
    SignatureMismatchError,
    StructureError,
    UniconstructError,
    VerificationError,
)
from uniconstruct.groups import (
    SECTION_ONLY,
    SPLITTING,
    WEAK_SPLITTING,
    FiniteGroup,
    GroupHom,
    _NodeBudget,
    _compose_rows,
    _invert_row,
    alternating,
    center,
    cyclic,
    dicyclic,
    dihedral,
    find_isomorphism,
    symmetric,
)
from uniconstruct.groups import aut_group
from uniconstruct.jsondoc import is_int_list
from uniconstruct.skew import (
    _RANDOM_MAX_SHIFT,
    _RANDOM_MAX_SUPPORT,
    _RANDOM_POSITIONS,
    SkewElement,
    phi23,
    random_skew_element,
    skew_mul,
)
from uniconstruct.structures import (
    SortedMap,
    SortedSignature,
    SortedStructure,
    identity_map,
    isomorphisms,
    reduct,
    relabel,
    relabel_map,
    structure_from_json,
    structure_to_json,
)
from uniconstruct.ucp import _ordinals, assemble_ucp
from uniconstruct.uniform import MatchedTriple, TripleSpace


def canonical_copies(s: SortedStructure, cap: int | None = None) -> list[SortedStructure]:
    """Distinct relabelings of ``s`` on its own universe, canonically ordered.

    The full set has size prod(sort_size!) / |Aut(s)|; enumeration cost is
    prod(sort_size!).
    """
    s.check_valid()
    seen = {}
    for perms in itertools.product(*(itertools.permutations(range(n)) for n in s.sort_sizes)):
        copy = relabel(s, perms)
        key = copy.canonical_key()
        if key not in seen:
            seen[key] = copy
    copies = sorted(seen.values(), key=lambda c: c.canonical_key())
    if cap is not None:
        copies = copies[:cap]
    return copies


def naive_isomorphisms(s1: SortedStructure, s2: SortedStructure):
    """All per-sort bijection families preserving everything, by filtering."""
    if s1.signature != s2.signature or s1.sort_sizes != s2.sort_sizes:
        return []
    out = []
    for perms in itertools.product(
        *(itertools.permutations(range(n)) for n in s1.sort_sizes)
    ):
        if _preserves(s1, s2, perms):
            out.append(tuple(tuple(p) for p in perms))
    return out


def naive_restriction(H, G):
    """The index in G of each element of H cut down to G's structure, the
    reduct of H's to its leading sorts, looked up map by map."""
    A = G.structure
    k = len(A.sort_sizes)
    return tuple(G.index_of(SortedMap(A, A, H.map(i).maps[:k])) for i in range(H.order))


def _preserves(s1, s2, perms):
    for (name, rsig), rel1, rel2 in zip(s1.signature.relations, s1.relations, s2.relations):
        image = {
            tuple(perms[rsig[i]][t[i]] for i in range(len(t))) for t in rel1
        }
        if image != rel2:
            return False
    for (name, fsig, tgt), tab1, tab2 in zip(
        s1.signature.functions, s1.functions, s2.functions
    ):
        for args, v in tab1.items():
            mapped = tuple(perms[fsig[i]][args[i]] for i in range(len(args)))
            if tab2.get(mapped) != perms[tgt][v]:
                return False
    for (name, sort), c1, c2 in zip(s1.signature.constants, s1.constants, s2.constants):
        if perms[sort][c1] != c2:
            return False
    return True


# ---------------------------------------------------------------------------
# Structure operations only the tests call: signature restriction, quotients
# by a supplied congruence, and function symbols replaced by their graphs


class CongruenceError(UniconstructError):
    """A supplied equivalence is not a congruence for the structure."""


def restrict_signature(s: SortedStructure, target: SortedSignature) -> SortedStructure:
    """Drop symbols so the result interprets exactly ``target``.

    ``target`` must declare the same sorts and a subset of the symbols with
    identical declarations (an "expansion" read backwards).
    """
    if target.sort_names != s.signature.sort_names:
        raise SignatureMismatchError("restrict_signature: sort lists differ")
    rel_of = {name: i for i, (name, _) in enumerate(s.signature.relations)}
    fn_of = {name: i for i, (name, _, _) in enumerate(s.signature.functions)}
    const_of = {name: i for i, (name, _) in enumerate(s.signature.constants)}
    rels, fns, consts = [], [], []
    for name, rsig in target.relations:
        i = rel_of.get(name)
        if i is None or s.signature.relations[i][1] != rsig:
            raise SignatureMismatchError(f"relation {name!r} is not part of the source signature")
        rels.append(s.relations[i])
    for name, fsig, tgt in target.functions:
        i = fn_of.get(name)
        if i is None or s.signature.functions[i][1:] != (fsig, tgt):
            raise SignatureMismatchError(f"function {name!r} is not part of the source signature")
        fns.append(s.functions[i])
    for name, sort in target.constants:
        i = const_of.get(name)
        if i is None or s.signature.constants[i][1] != sort:
            raise SignatureMismatchError(f"constant {name!r} is not part of the source signature")
        consts.append(s.constants[i])
    return SortedStructure(target, s.sort_sizes, rels, fns, consts)


def _normalize_partition(blocks: Iterable[Iterable[int]], size: int, sort: int) -> list[int]:
    """Partition blocks -> class index per element, classes ordered by min."""
    block_list = [sorted(set(int(x) for x in b)) for b in blocks]
    flat = [x for b in block_list for x in b]
    if sorted(flat) != list(range(size)) or any(not b for b in block_list):
        raise StructureError(f"quotient: blocks for sort {sort} are not a partition")
    block_list.sort(key=lambda b: b[0])
    out = [-1] * size
    for ci, b in enumerate(block_list):
        for x in b:
            out[x] = ci
    return out


def quotient(
    s: SortedStructure, eq: Sequence[Iterable[Iterable[int]]]
) -> tuple[SortedStructure, SortedMap]:
    """Quotient a relational structure by a per-sort congruence.

    ``eq`` gives one partition (iterable of blocks) per sort.  The partition
    must actually be a congruence: relation membership of a tuple may depend
    only on the classes of its entries.  That is checked exhaustively and a
    violation is a hard error.  Returns the quotient plus the projection map.
    """
    s.check_valid()
    if s.signature.functions or s.signature.constants:
        raise StructureError("quotient: structure must be relational (no functions or constants)")
    if len(eq) != len(s.sort_sizes):
        raise StructureError("quotient: need one partition per sort")
    cls = [
        _normalize_partition(blocks, s.sort_sizes[i], i) for i, blocks in enumerate(eq)
    ]
    n_classes = [max(c) + 1 if c else 0 for c in cls]

    rels = []
    for (name, rsig), rel in zip(s.signature.relations, s.relations):
        membership: dict[tuple[int, ...], bool] = {}
        for t in itertools.product(*(range(s.sort_sizes[i]) for i in rsig)):
            ct = tuple(cls[rsig[i]][t[i]] for i in range(len(t)))
            holds = t in rel
            prev = membership.get(ct)
            if prev is None:
                membership[ct] = holds
            elif prev != holds:
                raise CongruenceError(
                    f"relation {name!r}: membership differs within class tuple {ct}"
                )
        rels.append(frozenset(ct for ct, holds in membership.items() if holds))

    qs = SortedStructure(s.signature, n_classes, rels, (), ())
    projection = SortedMap(s, qs, tuple(tuple(c) for c in cls))
    return qs, projection


def graph_functions(s: SortedStructure) -> SortedStructure:
    """``s`` with each function symbol replaced by its graph: a relation of
    the same name on the argument sorts then the target sort, holding
    (arguments, value).  A bijection preserves a function exactly when it
    preserves its graph, so automorphisms and isomorphisms are unchanged."""
    sig = s.signature
    graphs = tuple((name, (*fsig, target)) for name, fsig, target in sig.functions)
    rels = [*s.relations, *({(*args, v) for args, v in table.items()} for table in s.functions)]
    graphed = SortedSignature(sig.sort_names, sig.relations + graphs, (), sig.constants)
    return SortedStructure(graphed, s.sort_sizes, rels, (), s.constants)


# ---------------------------------------------------------------------------
# Skew product by word rewriting over {y, y^-1} and positioned generators

def rewrite_mul(a, b):
    """Multiply two skew elements by normalizing the concatenated word.

    Tokens are ("y", +-1) or ("g", position, value).  The only rewrite rules
    used are g@p . y^d -> y^d . g@(p+d), commutation of distinct positions,
    and in-place merging at equal positions.
    """
    base = a.base
    word = []
    for el in (a, b):
        d = 1 if el.shift > 0 else -1
        word.extend([("y", d)] * abs(el.shift))
        word.extend([("g", p, v) for p, v in el.support])

    # push every y-token to the front, shifting generators it passes
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i][0] == "g" and word[i + 1][0] == "y":
                d = word[i + 1][1]
                word[i], word[i + 1] = word[i + 1], ("g", word[i][1] + d, word[i][2])
                changed = True

    shift = sum(tok[1] for tok in word if tok[0] == "y")
    gens = [(tok[1], tok[2]) for tok in word if tok[0] == "g"]

    # bubble-sort by position (distinct positions commute), merging equals
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(gens) - 1:
            (p, g), (q, h) = gens[i], gens[i + 1]
            if p > q:
                gens[i], gens[i + 1] = gens[i + 1], gens[i]
                changed = True
            elif p == q:
                merged = base.mul(g, h)
                if merged == 0:
                    del gens[i : i + 2]
                else:
                    gens[i : i + 2] = [(p, merged)]
                changed = True
            else:
                i += 1
    return shift, tuple(gens)


def phi23_hom_defect(x: SkewElement, y: SkewElement) -> bool:
    """True when phi23(x*y) != phi23(x)*phi23(y): the pair breaks the
    homomorphism law of :func:`phi23`."""
    return phi23(skew_mul(x, y)) != x.base.mul(phi23(x), phi23(y))


def hom_violations(
    base: FiniteGroup, n_samples: int, seed: int = 0
) -> list[tuple[SkewElement, SkewElement]]:
    """Sample element pairs and collect those where the base projection
    breaks the homomorphism law.  Abelian bases should yield none.

    Pair i is elements 2i and 2i+1 of the stream that
    :func:`random_skew_element` draws, with identities allowed, from
    ``random.Random(seed)``."""
    rng = random.Random(seed)
    bad = []
    for _ in range(n_samples):
        x = random_skew_element(base, rng, allow_identity=True)
        y = random_skew_element(base, rng, allow_identity=True)
        if phi23_hom_defect(x, y):
            bad.append((x, y))
    return bad


def randrange_skew_element(
    base: FiniteGroup,
    rng: random.Random,
    *,
    allow_identity: bool = False,
) -> SkewElement:
    """:func:`random_skew_element` as it drew through ``Random.randrange``
    and ``Random.sample``: the stream its ``getrandbits`` draws must give."""
    order = base.order
    randrange = rng.randrange  # randrange(a, b + 1) is what randint(a, b) calls
    while True:
        shift = randrange(-_RANDOM_MAX_SHIFT, _RANDOM_MAX_SHIFT + 1)
        size = randrange(_RANDOM_MAX_SUPPORT + 1)
        positions = rng.sample(_RANDOM_POSITIONS, size) if size else ()  # k=0 draws nothing
        support = tuple(sorted([(p, randrange(1, order)) for p in positions])) if order > 1 else ()
        if allow_identity or shift or support:
            return SkewElement(base, shift, support)


def naive_cyclic_skew_table(k, base):
    """Cayley table of the cyclic skew analogue, cell by cell in pure Python.

    Index ``shift * n^k + sum_p values[p] * n^(k-1-p)`` with n = |base|; the
    product rotates the left values by the right shift and multiplies per
    position in the base table."""
    n_base = base.order

    def decode(index):
        values = []
        for _ in range(k):
            index, v = divmod(index, n_base)
            values.append(v)
        values.reverse()
        return index, values

    def encode(shift, values):
        idx = shift % k
        for v in values:
            idx = idx * n_base + v
        return idx

    size = k * n_base**k
    decoded = [decode(x) for x in range(size)]
    table = [[0] * size for _ in range(size)]
    for x, (n, xs) in enumerate(decoded):
        for y, (m, ys) in enumerate(decoded):
            rotated = [xs[(p - m) % k] for p in range(k)]
            table[x][y] = encode(n + m, [base.mul(rotated[p], ys[p]) for p in range(k)])
    return table


# ---------------------------------------------------------------------------
# Direct products and the catalog by the plain loops


def naive_direct_product(g1, g2, name=None):
    """g1 x g2 cell by cell, the pair (a, b) encoded as a * |g2| + b."""
    n2 = g2.order
    n = g1.order * n2
    table = [
        [g1.mul(x // n2, y // n2) * n2 + g2.mul(x % n2, y % n2) for y in range(n)]
        for x in range(n)
    ]
    return FiniteGroup(table, name=name or f"{g1.label()}x{g2.label()}")


def naive_catalog(max_order):
    """The catalog by its definition: the named families, deduplicated against
    every kept group of the same order, then every ordered product pair
    re-built and re-tested in every round until a round keeps nothing new."""
    raw = [cyclic(n) for n in range(1, max_order + 1)]
    raw += [symmetric(n) for n in range(3, 8) if math.factorial(n) <= max_order]
    raw += [alternating(n) for n in range(3, 8) if math.factorial(n) // 2 <= max_order]
    raw += [dihedral(k) for k in range(3, max_order // 2 + 1)]
    raw += [dicyclic(k) for k in range(2, max_order // 4 + 1)]
    kept = []

    def known(g):
        return any(find_isomorphism(g, h) is not None for h in kept if h.order == g.order)

    for g in raw:
        if not known(g):
            kept.append(g)
    changed = True
    while changed:
        changed = False
        current = list(kept)
        for g1 in current:
            for g2 in current:
                if g1.order * g2.order > max_order or 1 in (g1.order, g2.order):
                    continue
                name = "x".join(sorted([g1.label(), g2.label()]))
                prod = naive_direct_product(g1, g2, name=name)
                if not known(prod):
                    kept.append(prod)
                    changed = True
    return sorted(kept, key=lambda g: (g.order, g.label()))


# ---------------------------------------------------------------------------
# Subgroups and quotients through g.mul alone


def naive_closure(g, seed):
    """The subgroup generated by a non-empty seed: add products until none is new."""
    current = set(seed)
    while True:
        bigger = current | {g.mul(a, b) for a in current for b in current}
        if bigger == current:
            return frozenset(current)
        current = bigger


def naive_subgroups(g):
    """Every subgroup as a join of cyclic subgroups: start from the cyclic
    subgroups and close the set under pairwise joins."""
    found = {naive_closure(g, {x}) for x in g.elements()}
    while True:
        joins = {naive_closure(g, h | k) for h in found for k in found}
        if joins <= found:
            return sorted(found, key=lambda s: (len(s), sorted(s)))
        found |= joins


def naive_normal_subgroups(g):
    return [
        h
        for h in naive_subgroups(g)
        if all({g.mul(g.mul(x, a), g.inv(x)) for a in h} == h for x in g.elements())
    ]


def naive_quotient(g, sub):
    """(table, projection map) of g/N, the cosets xN numbered by their least
    element and multiplied through their largest elements."""
    n = frozenset(sub)
    cosets = sorted({frozenset(g.mul(x, a) for a in n) for x in g.elements()}, key=min)
    index = {x: i for i, c in enumerate(cosets) for x in c}
    table = [[index[g.mul(max(c1), max(c2))] for c2 in cosets] for c1 in cosets]
    return table, tuple(index[x] for x in g.elements())


def naive_is_hom(mapping, domain, codomain):
    """m(ab) == m(a)m(b) over every pair, by ``mul``."""
    m = list(mapping)
    return all(
        m[domain.mul(a, b)] == codomain.mul(m[a], m[b])
        for a in domain.elements()
        for b in domain.elements()
    )


def naive_homs(domain, codomain):
    """Every homomorphism domain -> codomain as its tuple of images: each
    tuple of images for the domain's generators is extended along words,
    breadth first from the identity by ``mul``, and kept only when
    :func:`naive_is_hom` accepts the map it gives."""
    homs = []
    for images in itertools.product(codomain.elements(), repeat=len(domain.gens)):
        m = {0: 0}
        frontier = [0]
        while frontier:
            fresh = []
            for x in frontier:
                for q, v in zip(domain.gens, images):
                    y = domain.mul(x, q)
                    if y not in m:
                        m[y] = codomain.mul(m[x], v)
                        fresh.append(y)
            frontier = fresh
        mapping = tuple(m[x] for x in domain.elements())
        if naive_is_hom(mapping, domain, codomain):
            homs.append(mapping)
    return homs


# ---------------------------------------------------------------------------
# Sections by raw fiber products, with first-principles checks

def naive_center_set(h):
    return {x for x in h.elements() if all(h.mul(x, y) == h.mul(y, x) for y in h.elements())}


def naive_section_label(phi, combo, zset):
    """"splitting", "weak" or None for the section ``combo`` of ``phi``, from
    every pair of elements; ``zset`` is the centre of phi's domain."""
    h, g = phi.domain, phi.codomain
    hom = all(
        combo[g.mul(x, y)] == h.mul(combo[x], combo[y])
        for x in g.elements()
        for y in g.elements()
    )
    if hom:
        return "splitting"
    central = (
        combo[0] == 0
        and all(combo[g.inv(x)] == h.inv(combo[x]) for x in g.elements())
        and all(
            h.mul(h.mul(combo[x], combo[y]), h.inv(combo[g.mul(x, y)])) in zset
            for x in g.elements()
            for y in g.elements()
        )
    )
    return "weak" if central else None


def _naive_labelled_sections(phi):
    """Every section in fiber-product order, with "splitting", "weak" or None."""
    h, g = phi.domain, phi.codomain
    fibers = [[x for x in h.elements() if phi.map[x] == v] for v in g.elements()]
    zset = naive_center_set(h)
    return [(combo, naive_section_label(phi, combo, zset)) for combo in itertools.product(*fibers)]


def naive_sections(phi):
    """(splittings, weak splittings that are not splittings), each a list of
    section maps in fiber-product order."""
    labelled = _naive_labelled_sections(phi)
    return (
        [combo for combo, label in labelled if label == "splitting"],
        [combo for combo, label in labelled if label == "weak"],
    )


def naive_section_census(phi):
    """(n_sections, n_splittings, n_weak_splittings) by direct enumeration."""
    labels = [label for _, label in _naive_labelled_sections(phi)]
    n_split = labels.count("splitting")
    return len(labels), n_split, n_split + labels.count("weak")


# ---------------------------------------------------------------------------
# The section search and its labeller on whole Cayley tables: the library's
# ``_labeller`` and ``_weak_splittings`` as they were when they read whole
# tables, verbatim but for ``.table`` where they called ``rows()``.  Both
# groups of ``phi`` must be FiniteGroups (see :func:`on_tables`).

def cayley_table(g) -> FiniteGroup:
    """The Cayley table of a FiniteGroup or an AutomorphismGroup, every pair
    through ``g.mul``, as a FiniteGroup with the same element numbers; over
    the ``table_cells`` bound it is refused before any product is formed."""
    config.check_table_cells(g.order)
    n = g.order
    return FiniteGroup([list(map(g.mul, itertools.repeat(a, n), range(n))) for a in range(n)])


def on_tables(phi: GroupHom) -> GroupHom:
    """``phi`` between the :func:`cayley_table` copies of its groups."""
    return GroupHom(cayley_table(phi.domain), cayley_table(phi.codomain), phi.map)


def table_labeller(phi: GroupHom) -> Callable[[Sequence[int]], str]:
    """The classifier of sections psi of ``phi``: H -> G, on the defects
    psi(x) psi(q) psi(xq)^-1 for every x and every generator q of G.

    Both labels need psi(1) = 1.  psi is a splitting iff every defect is 1,
    by the induction of :func:`_hom_law_holds`; otherwise a weak splitting
    iff psi(x^-1) = psi(x)^-1 for every x and every defect is central.  That
    is the definition with y restricted to generators, so it is necessary.
    It suffices: central defects make pi.psi, for pi: H -> H/Z(H), obey the
    law on generators, so pi.psi is a homomorphism by the same induction, and
    then every defect psi(x) psi(y) psi(xy)^-1 lies in the kernel Z(H).
    H's table (whose size bound is checked first), G's generator columns,
    the inverses and Z(H) are read once per ``phi``.
    """
    h, g = phi.domain, phi.codomain
    h_mul = h.table
    columns = [(q, g.right(q)) for q in g.gens]
    g_inv, h_inv = g.inverses(), h.inverses()
    central = frozenset(center(h))

    def label(psi: Sequence[int]) -> str:
        if psi[0] != 0:
            return SECTION_ONLY
        defects = {
            h_mul[h_mul[v][psi[q]]][h_inv[psi[xq]]] for q, col in columns for v, xq in zip(psi, col)
        }
        if defects <= {0}:
            return SPLITTING
        if defects <= central and all(psi[y] == h_inv[v] for y, v in zip(g_inv, psi)):
            return WEAK_SPLITTING
        return SECTION_ONLY

    return label


def table_weak_splittings(
    phi: GroupHom, fibers: list[list[int]], budget: _NodeBudget
) -> Iterator[list[int]]:
    """Every weak splitting of ``phi``, each as a fresh list, in
    lexicographic order; ``fibers`` is :func:`_fibers` of ``phi``.

    Both kinds of splitting fix 1 and commute with inverses, so the search
    assigns psi(x) and psi(x^-1) = psi(x)^-1 together: one level per inverse
    pair, led by its smaller element x, whose fiber is tried in increasing
    order.  Position x^-1 comes after x and is fixed by it, so depth-first
    order is lexicographic order of the whole section.  A node checks the
    center-defect condition only on the triples (a, b, ab) that contain a
    newly assigned element, so every complete assignment (a leaf) is a weak
    splitting.  Each node visited is taken from ``budget``; the generator
    runs only as far as its consumer reads.
    """
    g, h = phi.codomain, phi.domain
    h_mul, h_inv = h.table, h.inverses()
    g_mul, g_inv = g.table, g.inverses()
    central = [False] * h.order
    for z in center(h):
        central[z] = True
    leaders = [x for x in range(g.order) if 0 < x <= g_inv[x]]
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
            assign[x] = v
            assign[xi] = vi
            assigned.extend(new)
            if all(defect_ok(c) for c in new):
                yield from extend(i + 1)
            del assigned[-len(new):]
            assign[x] = -1
            assign[xi] = -1

    return extend(0)


# ---------------------------------------------------------------------------
# Matched triples by enumerating full commutative matrices

def naive_matched_triples(A, fam, *, max_elements=None):
    """Every (pi, full g matrix, b) satisfying the written conditions, the
    g matrix extending pi on the kept sorts, those of the members' reducts.

    Returned as a set of hashable summaries:
    (pi image keys, g matrix image keys, b) for comparison against the
    base-row enumeration in the package.
    """
    members = fam.members
    n = len(members)
    k = len(A.sort_sizes)
    iso = [isomorphisms(m.A, A, max_elements=max_elements) for m in members]
    if any(not lst for lst in iso):
        return set()
    biso = [
        [
            isomorphisms(members[s].B, members[t].B, max_elements=max_elements)
            for t in range(n)
        ]
        for s in range(n)
    ]
    out = set()
    for pis in itertools.product(*iso):
        h = {}
        for s in range(n):
            for t in range(n):
                h[(s, t)] = pis[t].inverse().compose(pis[s])
        pair_choices = []
        pairs = [(s, t) for s in range(n) for t in range(n)]
        for s, t in pairs:
            if s == t:
                pair_choices.append([identity_map(members[s].B)])
            else:
                pair_choices.append(
                    [m for m in biso[s][t] if m.maps[:k] == h[(s, t)].maps]
                )
        for combo in itertools.product(*pair_choices):
            g = {pairs[i]: combo[i] for i in range(len(pairs))}
            if not _commutative(g, n):
                continue
            for b0 in members[0].B.elements():
                b = [None] * n
                b[0] = b0
                ok = True
                for t in range(n):
                    b[t] = (b0[0], g[(0, t)].maps[b0[0]][b0[1]])
                for s in range(n):
                    for t in range(n):
                        if (b[s][0], g[(s, t)].maps[b[s][0]][b[s][1]]) != b[t]:
                            ok = False
                if ok:
                    out.add(
                        (
                            tuple(p.maps for p in pis),
                            tuple(g[p].maps for p in pairs),
                            tuple(b),
                        )
                    )
    return out


def _commutative(g, n):
    for s in range(n):
        if g[(s, s)].maps != tuple(tuple(range(len(m))) for m in g[(s, s)].maps):
            return False
    for r in range(n):
        for s in range(n):
            for t in range(n):
                if g[(s, t)].compose(g[(r, s)]).maps != g[(r, t)].maps:
                    return False
    return True


# ---------------------------------------------------------------------------
# Every matched triple of a space, and the twist equivalence on them


def frame_isomorphisms(space: TripleSpace) -> list[list[tuple[int, ...]]]:
    """Per member s, every isomorphism A_s -> A as a row, the one of frame
    a at position a: first[s] . f_A a f_A^-1 for the a-th automorphism of
    the base's reduct and f_A, member s's relabelling on the kept sorts.
    Empty when the target is not isomorphic."""
    G, width = space.fam.problem.G, space.A.total_elements
    out = []
    for first, member in zip(space.first, space.fam.members):
        f = member.relabel.row()[:width]
        f_inv = _invert_row(f)
        out.append([_compose_rows(first, _compose_rows(f, _compose_rows(a, f_inv))) for a in G.perms])
    return out


def extension_row(space: TripleSpace, t: int, h: int) -> tuple[int, ...]:
    """The isomorphism B_0 -> B_t named by the element h of H: f_t . h."""
    return _compose_rows(space.fam.members[t].relabel.row(), space.fam.problem.H.perms[h])


def explicit_triples(space: TripleSpace) -> list[MatchedTriple]:
    """Every matched triple of the space, frame by frame in the order the
    frames' product lists them, each frame's extension choices in the order
    of their rows, capped by the ``matched_triples`` bound: the enumeration
    whose frame-0 prefix :class:`TripleSpace` keeps.  Every frame's
    isomorphisms (:func:`frame_isomorphisms`) and every extension f_t . h
    over all of H are listed."""
    bound = config.DEFAULT.matched_triples
    isos = frame_isomorphisms(space)
    if not isos:
        return []
    elements, width = space._elements, space.A.total_elements
    inverses = [[_invert_row(pi) for pi in iso] for iso in isos]
    out: list[MatchedTriple] = []
    n = len(space.fam.members)
    # ext_rows[t][h]: the row f_t . h; extend[t]: H's elements h by the
    # restriction of that row, in row order
    ext_rows = [[]] + [
        [extension_row(space, t, h) for h in range(space.fam.problem.H.order)] for t in range(1, n)
    ]
    extend: list[dict[tuple[int, ...], list[int]]] = [{}]
    for rows in ext_rows[1:]:
        positions: dict[tuple[int, ...], list[int]] = {}
        for row, h in sorted(zip(rows, itertools.count())):
            positions.setdefault(row[:width], []).append(h)
        extend.append(positions)

    for pi_idx in itertools.product(*(range(len(iso)) for iso in isos)):
        ext_choices: list[Sequence[int]] = [(-1,)]
        pi0 = isos[0][pi_idx[0]]
        for t in range(1, n):
            hs = extend[t].get(_compose_rows(inverses[t][pi_idx[t]], pi0))
            if hs is None:
                break
            ext_choices.append(hs)
        if len(ext_choices) < n:  # some member has no extension in this frame
            continue
        for g_idx in itertools.product(*ext_choices):
            rows = [ext_rows[t][h] for t, h in enumerate(g_idx) if t]
            for p, b0 in enumerate(elements):
                out.append(MatchedTriple(pi_idx, g_idx, (b0, *(elements[row[p]] for row in rows))))
                if len(out) > bound:
                    raise BoundExceededError(
                        f"matched-triple enumeration exceeds bound {bound}"
                    )
    return out


def transports(space):
    """``space.psi_tilde``, each transport T_s(i, j) read once and kept: the
    oracles below read the same transports many times over."""
    return functools.cache(space.psi_tilde)


def e_relation(space):
    """x1 E x2 from the definition: at every member s, x2's b_s is
    T_s(x1's pi_s, x2's pi_s) applied to x1's b_s (:func:`transports`)."""
    T, elements, position = transports(space), space._elements, space._position
    n = len(space.fam.members)

    def related(x1, x2):
        for s in range(n):
            if x2.b[s] != elements[T(s, x1.pi_idx[s], x2.pi_idx[s])[position[x1.b[s]]]]:
                return False
        return True

    return related


def naive_classes(space):
    """(class_of, members) of E over every matched triple
    (:func:`explicit_triples`), classes numbered by their first triple,
    members ascending: each triple in no class yet opens one, holding every
    triple it relates to (:func:`e_relation`), compared pair by pair, and
    ``space.e_equiv`` agrees on each.  That is its class when E is an
    equivalence; a triple that would join two classes, which only an E
    that is not one can make, fails an assertion."""
    xs = explicit_triples(space)
    related = e_relation(space)
    class_of, members = [-1] * len(xs), []
    for i, x in enumerate(xs):
        if class_of[i] < 0:
            group = [j for j, y in enumerate(xs) if related(x, y)]
            assert all(space.e_equiv(x, xs[j]) for j in group)
            assert i in group and all(class_of[j] < 0 for j in group), "E is not an equivalence"
            for j in group:
                class_of[j] = len(members)
            members.append(group)
    return class_of, members


def g_map(space: TripleSpace, x: MatchedTriple, t: int) -> SortedMap:
    """The isomorphism B_0 -> B_t chosen by the triple, as a map."""
    members = space.fam.members
    if t == 0 or x.g_idx[t] == -1:
        return identity_map(members[0].B)
    return SortedMap.from_row(members[0].B, members[t].B, extension_row(space, t, x.g_idx[t]))


def naive_e_matrix(space):
    """The |X| x |X| matrix of x1 E x2, straight from the definition: for every
    member s, x2.b[s] is psi_tilde(s, x1.pi[s], x2.pi[s]) applied to x1.b[s],
    over every matched triple (:func:`explicit_triples`)."""
    xs = explicit_triples(space)
    mat = np.ones((len(xs), len(xs)), dtype=bool)
    for s, iso in enumerate(frame_isomorphisms(space)):
        sizes = space.fam.members[s].B.sort_sizes
        offset = [sum(sizes[:k]) for k in range(len(sizes))]
        # image[i, j, g]: global index of psi_tilde(s, i, j) applied to element g
        image = np.array([
            [list(space.psi_tilde(s, i, j)) for j in range(len(iso))]
            for i in range(len(iso))
        ])
        pi = np.array([x.pi_idx[s] for x in xs])
        g = np.array([offset[x.b[s][0]] + x.b[s][1] for x in xs])
        mat &= image[pi[:, None], pi[None, :], g[:, None]] == g[None, :]
    return mat


def naive_relation_verdicts(mat):
    """(reflexive, symmetric, transitive) of a boolean matrix; two-step path
    counts in float64, exact integers far beyond any |X| here."""
    counts = mat.astype(np.float64)
    return (
        bool(mat.diagonal().all()),
        bool((mat == mat.T).all()),
        bool((((counts @ counts) > 0) <= mat).all()),
    )


def naive_cocycle_holds(space):
    """psi_tilde(s,j,l) . psi_tilde(s,i,j) == psi_tilde(s,i,l) over the whole
    cube, each transport a row composed position by position."""
    T = transports(space)
    return all(
        [T(s, j, l)[p] for p in T(s, i, j)] == list(T(s, i, l))
        for s, iso in enumerate(frame_isomorphisms(space))
        for i, j, l in itertools.product(range(len(iso)), repeat=3)
    )


def naive_frame_threads(space):
    """Per frame, class id -> thread, by scanning every matched triple of the
    frame, classes from :func:`naive_classes`.

    Returns the error message instead when a class has two threads in a frame
    or misses one."""
    class_of, members = naive_classes(space)
    in_frame = {}
    for i, x in enumerate(explicit_triples(space)):
        in_frame.setdefault(x.pi_idx, []).append((i, x))
    frames = list(itertools.product(*(range(len(iso)) for iso in frame_isomorphisms(space))))
    by_frame = []
    for frame in frames:
        threads = {}
        for i, x in in_frame.get(frame, ()):
            if class_of[i] in threads and threads[class_of[i]] != x.b:
                return "a class carries two different threads in one frame"
            threads[class_of[i]] = x.b
        if len(threads) != len(members):
            return "a class misses a frame entirely"
        by_frame.append(threads)
    return frames, by_frame


def naive_rho_claims(space):
    """The three cla6 verdicts on rho, over every matched triple: Y is the
    triples whose pi_0 is the first isomorphism, rho reads b_0 on Y, and
    the claims are that it is constant on each class, that Y meets every
    class, and that its values on the classes are distinct."""
    class_of, members = naive_classes(space)
    xs = explicit_triples(space)
    y_set = {i for i, x in enumerate(xs) if x.pi_idx[0] == 0}
    rho_const = meets_all = True
    rho_values = {}
    for cid, group in enumerate(members):
        inter = [i for i in group if i in y_set]
        if not inter:
            meets_all = False
            continue
        values = {xs[i].b[0] for i in inter}
        if len(values) != 1:
            rho_const = False
        rho_values[cid] = values.pop()
    return {
        "cla6_rho_constant_on_classes": rho_const,
        "cla6_y_meets_every_class": meets_all,
        "cla6_rho_injective_across_classes": len(set(rho_values.values())) == len(rho_values) == len(members),
    }


def naive_representative_structure(A, fam):
    """The base member's structure carried onto A: its first sort relabelled
    by the first isomorphism base.A -> A (lexicographic), its second sort by
    the identity.  Where the claims pass, the uniform construction must
    return exactly this."""
    base = fam.members[0]
    first = naive_isomorphisms(base.A, A)[0][0]
    return relabel(base.B, (first, tuple(range(base.B.sort_sizes[1]))))


# ---------------------------------------------------------------------------
# Lifted families by searching every copy again


def naive_family(B, psi, n):
    """The n family members' problems, each relabelled copy assembled again:
    its groups come from ``assemble_ucp`` in canonical order, and its section
    sends each automorphism g of the copy's reduct to f . psi(f^-1 g f) . f^-1
    for the relabelling f, looked up by map in the copy's own group."""
    base = assemble_ucp(B, psi)
    problems = [base]
    perm_iter = itertools.product(*(itertools.permutations(range(size)) for size in B.sort_sizes))
    next(perm_iter)  # identity family
    for _ in range(1, n):
        f = relabel_map(B, next(perm_iter))
        f_inv = f.inverse()
        copy = assemble_ucp(f.codomain)
        f_a = SortedMap(base.A, copy.A, (f.maps[0],))
        f_a_inv = f_a.inverse()
        section = [
            copy.H.index_of(
                f.compose(base.H.map(base.psi.map[base.G.index_of(f_a_inv.compose(g.compose(f_a)))]))
                .compose(f_inv)
            )
            for g in map(copy.G.map, range(copy.G.order))
        ]
        problems.append(copy.with_section(section))
    return problems


def naive_transport(problem, pi_i: SortedMap, pi_j: SortedMap) -> SortedMap:
    """psi applied to the inverse of pi_i^-1 . pi_j, for isomorphisms from
    the problem's reduct, looked up by map in the problem's own groups."""
    a = problem.G.index_of(pi_i.inverse().compose(pi_j).inverse())
    return problem.H.map(problem.psi.map[a])


# ---------------------------------------------------------------------------
# Thread sets of target elements, one scan per element


def _naive_thread_set(space, isos, xs, a):
    """Indices of the triples of ``xs`` whose every b_s is the element that
    pi_s^-1 sends a to, a being an index into the target's ``elements()``
    and ``isos`` the space's :func:`frame_isomorphisms`."""
    elements = space.A.elements()
    return [
        idx
        for idx, x in enumerate(xs)
        if all(x.b[s] == elements[isos[s][pi].index(a)] for s, pi in enumerate(x.pi_idx))
    ]


def naive_thread_classes(space):
    """Per target element, (thread set, its class or None, problem), over
    every matched triple, the problem empty exactly when the thread set is
    one whole class."""
    class_of, members = naive_classes(space)
    xs, isos = explicit_triples(space), frame_isomorphisms(space)
    out = []
    for a in range(space.A.total_elements):
        idxs = _naive_thread_set(space, isos, xs, a)
        cids = {class_of[i] for i in idxs}
        if not idxs:
            out.append(((), None, "empty thread set"))
        elif len(cids) != 1:
            out.append((tuple(idxs), None, f"spans {len(cids)} classes"))
        else:
            cid = cids.pop()
            strict = set(members[cid]) != set(idxs)
            problem = "thread set is a strict part of its class" if strict else ""
            out.append((tuple(idxs), cid, problem))
    return out


def naive_k_classes_claim(space):
    """(ok, detail) of the cla5_k_classes claim, element by element."""
    ok, detail, seen = True, [], set()
    for a, (idxs, cid, problem) in enumerate(naive_thread_classes(space)):
        if problem:
            ok = False
            detail.append(f"element {a}: {problem}")
        if cid is None:
            continue
        if cid in seen:
            ok = False
            detail.append(f"element {a}: class collides with another element")
        seen.add(cid)
    return ok, "; ".join(detail)


def k_class(space: TripleSpace, a: int) -> list[MatchedTriple]:
    """The matched triples threading element a of the target, an index into
    ``A.elements()`` (so the element itself when A has one sort), over every
    frame; verified to be exactly one class of E, after E is verified to be
    an equivalence."""
    A = space.A
    if not 0 <= a < A.total_elements:
        raise StructureError(
            f"element {a} is not in the target's {_ordinals(range(len(A.sort_sizes)))} sort "
            f"of size {A.total_elements}"
        )
    space.require_equivalence()
    xs = explicit_triples(space)
    idxs = _naive_thread_set(space, frame_isomorphisms(space), xs, a)
    if not idxs:
        raise VerificationError(f"no matched triple threads element {a}")
    class_of, members = naive_classes(space)
    if members[class_of[idxs[0]]] != idxs:
        raise VerificationError(
            f"thread set of element {a} is not a single equivalence class"
        )
    return [xs[i] for i in idxs]


# ---------------------------------------------------------------------------
# Relation membership of class tuples, evaluated in every frame


def naive_membership(space):
    """Per relation, every well-sorted class tuple's (exists, forall)
    verdicts across family members, one entry per frame of
    :func:`naive_frame_threads`: the tuple of the classes' threads at member
    s is looked up in member s's relation, frame by frame.  Class tuples are
    listed in product order."""
    frame_threads = naive_frame_threads(space)
    assert not isinstance(frame_threads, str), frame_threads
    _, by_frame = frame_threads
    xs = explicit_triples(space)
    sort_of_class = []
    for group in naive_classes(space)[1]:
        sorts = {sort for i in group for sort, _ in xs[i].b}
        assert len(sorts) == 1, "equivalence class mixes sorts"
        sort_of_class.append(sorts.pop())
    table = []
    for ri, (_, rsig) in enumerate(space.fam.members[0].B.signature.relations):
        rels = [member.B.relations[ri] for member in space.fam.members]
        verdicts = {}
        for ct in itertools.product(*(
            [c for c in range(len(sort_of_class)) if sort_of_class[c] == sort] for sort in rsig
        )):
            exists, forall = [], []
            for threads in by_frame:
                held = [tuple(threads[c][s][1] for c in ct) in rel for s, rel in enumerate(rels)]
                exists.append(any(held))
                forall.append(all(held))
            verdicts[ct] = (tuple(exists), tuple(forall))
        table.append(verdicts)
    return table


# ---------------------------------------------------------------------------
# Construction maps as explicit catalogs


class CatalogMismatchError(Exception):
    """Solver catalogs do not line up for composition or reduction."""


@dataclass
class Solver:
    """An explicit map from first-sort reducts back to full structures.

    ``keep`` names the sorts of a catalog2 member that constitute its
    "first sort" side; the defining property is
    ``map(reduct(B, keep)) == B`` for every catalog2 member B.  Both catalogs
    must be closed into single isomorphism classes.
    """

    catalog1: tuple[SortedStructure, ...]
    catalog2: tuple[SortedStructure, ...]
    outputs: tuple[SortedStructure, ...]  # parallel to catalog1
    keep: tuple[int, ...] = (0,)

    def __post_init__(self):
        if len(self.outputs) != len(self.catalog1):
            raise CatalogMismatchError("solver map must be total on catalog1")

    def apply(self, a: SortedStructure) -> SortedStructure:
        for inp, out in zip(self.catalog1, self.outputs):
            if inp == a:
                return out
        raise CatalogMismatchError("structure is not in the solver's input catalog")

    def verify(self, *, max_elements: int | None = None) -> None:
        """Re-check the defining property and the catalog iso-class closure."""
        cat1 = list(self.catalog1)
        if len(set(c.canonical_key() for c in cat1)) != len(cat1):
            raise CatalogMismatchError("input catalog contains duplicates")
        for out in self.outputs:
            if out not in self.catalog2:
                raise CatalogMismatchError("solver output leaves catalog2")
        for b in self.catalog2:
            r = reduct(b, self.keep)
            if self.apply(r) != b:
                raise CatalogMismatchError(
                    "solver does not invert the reduct on catalog2"
                )
        for cat in (self.catalog1, self.catalog2):
            for other in cat[1:]:
                if not isomorphisms(cat[0], other, max_elements=max_elements, limit=1):
                    raise CatalogMismatchError("catalog members are not pairwise isomorphic")


def solver_from_catalog(
    catalog2: Iterable[SortedStructure], keep: Sequence[int] = (0,)
) -> Solver:
    """Build the canonical solver for a catalog of full structures.

    Requires the keep-reduct to be injective on the catalog, which is exactly
    what makes the defining property satisfiable.
    """
    cat2 = tuple(catalog2)
    keep_t = tuple(int(k) for k in keep)
    cat1: list[SortedStructure] = []
    outs: list[SortedStructure] = []
    seen: dict = {}
    for b in cat2:
        r = reduct(b, keep_t)
        key = r.canonical_key()
        if key in seen and seen[key] != b:
            raise CatalogMismatchError(
                "two catalog members share a first-sort reduct; no solver exists"
            )
        if key not in seen:
            seen[key] = b
            cat1.append(r)
            outs.append(b)
    solver = Solver(tuple(cat1), cat2, tuple(outs), keep_t)
    solver.verify()
    return solver


def compose_solvers(f12: Solver, f23: Solver) -> Solver:
    """Chain two solvers; the middle catalogs must coincide."""
    mid_left = set(c.canonical_key() for c in f12.catalog2)
    mid_right = set(c.canonical_key() for c in f23.catalog1)
    if mid_left != mid_right:
        raise CatalogMismatchError("middle catalogs do not match")
    outputs = tuple(f23.apply(out) for out in f12.outputs)
    keep = tuple(f23.keep[i] for i in f12.keep)
    composed = Solver(f12.catalog1, f23.catalog2, outputs, keep)
    composed.verify()
    return composed


def solver_to_json(s: Solver) -> dict:
    """Serialize as a list of (input, output) structure pairs."""
    return {
        "keep": list(s.keep),
        "pairs": [
            [structure_to_json(a), structure_to_json(b)]
            for a, b in zip(s.catalog1, s.outputs)
        ],
    }


def solver_from_json(doc) -> Solver:
    """The solver of a ``{"keep": [...], "pairs": [...]}`` document; ``keep``
    must be a list of JSON integers, and anything else raises
    CatalogMismatchError("malformed solver document: …")."""
    try:
        if not is_int_list(doc["keep"]):
            raise ValueError(f"keep must be a list of integers, not {doc['keep']!r}")
        keep = tuple(doc["keep"])
        pairs = [
            (structure_from_json(a), structure_from_json(b)) for a, b in doc["pairs"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogMismatchError(f"malformed solver document: {exc}") from exc
    catalog1 = tuple(a for a, _ in pairs)
    outputs = tuple(b for _, b in pairs)
    catalog2 = []
    seen = set()
    for b in outputs:
        key = b.canonical_key()
        if key not in seen:
            seen.add(key)
            catalog2.append(b)
    solver = Solver(catalog1, tuple(catalog2), outputs, keep)
    solver.verify()
    return solver


def reduct_solver(fd: Solver, target: SortedSignature) -> Solver:
    """Forget the expansion symbols of every solver output.

    The target signature must be a symbol-subset of the catalog2 signature
    whose removal does not touch the kept sorts (so the input catalog is
    unchanged).
    """
    if not fd.catalog2:
        raise CatalogMismatchError("empty solver")
    for b in fd.catalog2:
        restricted = restrict_signature(b, target)  # raises if not an expansion
        if reduct(restricted, fd.keep) != reduct(b, fd.keep):
            raise SignatureMismatchError(
                "restriction changes the kept sorts; input catalogs would differ"
            )
    new_cat2 = tuple(restrict_signature(b, target) for b in fd.catalog2)
    if len(set(c.canonical_key() for c in new_cat2)) != len(new_cat2):
        raise CatalogMismatchError("restricted catalog members collide")
    new_outputs = tuple(restrict_signature(b, target) for b in fd.outputs)
    solver = Solver(fd.catalog1, new_cat2, new_outputs, fd.keep)
    solver.verify()
    return solver
