"""Uniform reconstruction of a two-sorted structure over its first sort.

Given a family of lifted copies (pairwise isomorphic two-sorted relational
structures, each with a weak splitting of its restriction map) and a target
first-sort structure A, the pipeline enumerates matched triples (an iso
tuple onto A, a coherent family of structure isomorphisms extending the
induced first-sort maps, and a compatible element thread), quotients them by
the lifting-twisted equivalence, and reads off a copy of the original
structure whose first sort is A itself, element for element.

Every intermediate fact the construction leans on is re-checked on the
instance by :func:`verify_claims`; a failure there is reported honestly (it
can genuinely happen when the restriction map has a nontrivial kernel and
the family has two or more members, because the isomorphism families are
then underdetermined).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import config
from .errors import (
    BoundExceededError,
    StructureError,
    VerificationError,
)
from .groups import AutomorphismGroup, GroupHom, Section
from .structures import (
    SortedMap,
    SortedStructure,
    canonical_copies,
    identity_map,
    isomorphisms,
    reduct,
    relabel_map,
)
from .ucp import Report, UniConstructionProblem, assemble_ucp

__all__ = [
    "LiftedCopy",
    "Family",
    "make_lifted_copy",
    "build_family",
    "MatchedTriple",
    "TripleSpace",
    "matched_triples",
    "e_equiv",
    "k_class",
    "QuotientResult",
    "build_quotient",
    "UniformResult",
    "uniform_F",
    "verify_claims",
]


@dataclass
class LiftedCopy:
    """One family member: a structure, its reduct, and a weak splitting."""

    tag: int
    B: SortedStructure
    A: SortedStructure
    autB: AutomorphismGroup
    autA: AutomorphismGroup
    phi: GroupHom
    psi: Section

    def psi_map(self, autA_index: int) -> SortedMap:
        """The lifted automorphism of B for an automorphism index of A."""
        return self.autB.maps[self.psi.map[autA_index]]


@dataclass
class Family:
    members: tuple[LiftedCopy, ...]
    _spaces: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.members:
            raise StructureError("family must be nonempty")

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def make_lifted_copy(
    B: SortedStructure,
    psi: Sequence[int] | Section,
    tag: int = 0,
    *,
    max_elements: int | None = None,
    problem: UniConstructionProblem | None = None,
) -> LiftedCopy:
    """B with its weak splitting psi.  ``problem``, when given, is B's
    problem from :func:`assemble_ucp`: its automorphism groups and
    restriction map are reused, and only psi is checked."""
    if B.signature.functions or B.signature.constants:
        raise StructureError("lifted copies must be relational")
    if problem is None:
        problem = assemble_ucp(B, psi, max_elements=max_elements)
    elif problem.B is not B:
        raise StructureError("the supplied problem belongs to another structure")
    else:
        problem = problem.with_section(psi)
    if problem.psi is None or not problem.report.ok("f"):
        detail = next(d for name, _, d in problem.report.entries if name == "f")
        raise StructureError(f"supplied map is not a weak splitting: {detail}")
    return LiftedCopy(
        tag=tag, B=B, A=problem.A, autB=problem.H, autA=problem.G, phi=problem.phi, psi=problem.psi
    )


def build_family(
    B: SortedStructure,
    psi: Sequence[int] | Section,
    n: int,
    *,
    max_elements: int | None = None,
    problem: UniConstructionProblem | None = None,
) -> Family:
    """n lifted copies: the original pair plus relabelings of it.

    Copy i > 0 relabels B along the i-th non-identity per-sort bijection
    family f (lexicographic).  Naturality carries everything else across:
    the copy's automorphisms are f . m . f^-1 for the base's automorphisms m
    (in the base's order, on the base's group table), so its restriction
    map and weak splitting are the base's own.  Only the base is searched
    and checked (through ``problem``, B's assembled problem, when given; see
    :func:`make_lifted_copy`); every copy is then re-checked to be
    isomorphic to it.
    """
    if n < 1:
        raise StructureError("family size must be at least 1")
    base = make_lifted_copy(B, psi, tag=0, max_elements=max_elements, problem=problem)
    members = [base]

    perm_iter = itertools.product(
        *(itertools.permutations(range(size)) for size in B.sort_sizes)
    )
    next(perm_iter)  # identity family
    for tag in range(1, n):
        try:
            perms = next(perm_iter)
        except StopIteration:
            raise StructureError(
                f"structure admits fewer than {n} distinct relabeling maps"
            ) from None
        f = relabel_map(B, perms)
        copy_a = reduct(f.codomain, (0,))
        members.append(LiftedCopy(
            tag=tag,
            B=f.codomain,
            A=copy_a,
            autB=base.autB.conjugate(f),
            autA=base.autA.conjugate(SortedMap(base.A, copy_a, f.maps[:1])),
            phi=base.phi,
            psi=base.psi,
        ))

    fam = Family(tuple(members))
    for member in members[1:]:
        if not isomorphisms(members[0].B, member.B, max_elements=max_elements, limit=1):
            raise StructureError("family members are not pairwise isomorphic")
    return fam


@dataclass(frozen=True)
class MatchedTriple:
    """(pi, g, b): indices into the owning TripleSpace's iso caches.

    ``pi_idx[s]`` picks the isomorphism A_s -> A; ``g_idx[t]`` picks the
    base-row structure isomorphism B_0 -> B_t (entry 0 is -1, the identity);
    ``b[s]`` is the (sort, element) thread entry in B_s.  The owning space is
    carried along so triples are self-contained; it does not enter equality.
    """

    pi_idx: tuple[int, ...]
    g_idx: tuple[int, ...]
    b: tuple[tuple[int, int], ...]
    space: "TripleSpace" = field(compare=False, repr=False)


@dataclass(frozen=True)
class ThreadClass:
    """The triples threading one target element, ascending; ``cid`` is their
    class when they lie in one class, and ``problem`` is empty exactly when
    they are that whole class."""

    triples: tuple[int, ...]
    cid: int | None
    problem: str


class TripleSpace:
    """Enumeration context for matched triples over a family and target."""

    def __init__(
        self,
        A: SortedStructure,
        fam: Family,
        *,
        max_elements: int | None = None,
    ):
        A.check_valid()
        self.A = A
        self.fam = fam
        self.max_elements = max_elements
        self.iso = [
            isomorphisms(member.A, A, max_elements=max_elements) for member in fam
        ]
        self.iso_inv = [[m.inverse() for m in lst] for lst in self.iso]
        # isomorphisms B_0 -> B_t, stably sorted by first-sort component, so a
        # triple's g_idx[t] is a position in biso[t]; biso_range[t] maps each
        # first-sort component to its [start, stop) slice
        self.biso: list[list[SortedMap]] = []
        self.biso_range: list[dict[tuple[int, ...], tuple[int, int]]] = []
        base = fam.members[0]
        for t, member in enumerate(fam.members):
            flat: list[SortedMap] = []
            if t != 0:
                flat = sorted(
                    isomorphisms(base.B, member.B, max_elements=max_elements),
                    key=lambda m: m.maps[0],
                )
            ranges: dict[tuple[int, ...], tuple[int, int]] = {}
            for pos, m in enumerate(flat):
                start, _ = ranges.get(m.maps[0], (pos, pos))
                ranges[m.maps[0]] = (start, pos + 1)
            self.biso.append(flat)
            self.biso_range.append(ranges)
        self._psi_tilde_cache: dict[tuple[int, int, int], SortedMap] = {}
        self.triples = self._enumerate()
        self._cocycle: bool | None = None
        self._classes: tuple[list[int], list[list[int]]] | None = None
        self._frame_threads: tuple[list[tuple[int, ...]], list[dict[int, tuple]]] | None = None
        self._membership: list[dict[tuple[int, ...], tuple[tuple[bool, ...], ...]]] | None = None
        self._thread_classes: list[ThreadClass] | None = None
        self._quotient: QuotientResult | None = None

    # -- enumeration ------------------------------------------------------

    def _enumerate(self) -> list[MatchedTriple]:
        bound = config.DEFAULT.matched_triples
        fam = self.fam
        if any(not lst for lst in self.iso):
            return []
        base = fam.members[0]
        b_elements = base.B.elements()
        out: list[MatchedTriple] = []
        n = len(fam.members)

        for pi_idx in itertools.product(*(range(len(lst)) for lst in self.iso)):
            ext_choices: list[list[tuple[int, SortedMap]]] = [[(-1, identity_map(base.B))]]
            feasible = True
            pi0 = self.iso[0][pi_idx[0]]
            for t in range(1, n):
                h0t = self.iso_inv[t][pi_idx[t]].compose(pi0)
                start, stop = self.biso_range[t].get(h0t.maps[0], (0, 0))
                if start == stop:
                    feasible = False
                    break
                ext_choices.append([(k, self.biso[t][k]) for k in range(start, stop)])
            if not feasible:
                continue
            for combo in itertools.product(*ext_choices):
                g_idx = tuple(c[0] for c in combo)
                g_maps = [c[1] for c in combo]
                for b0 in b_elements:
                    b = tuple(g_maps[t].apply_pair(b0) for t in range(n))
                    out.append(MatchedTriple(pi_idx, g_idx, b, self))
                    if len(out) > bound:
                        raise BoundExceededError(
                            f"matched-triple enumeration exceeds bound {bound}"
                        )
        return out

    def g_map(self, x: MatchedTriple, t: int) -> SortedMap:
        """The base-row isomorphism B_0 -> B_t chosen by the triple."""
        if t == 0 or x.g_idx[t] == -1:
            return identity_map(self.fam.members[0].B)
        return self.biso[t][x.g_idx[t]]

    # -- equivalence ------------------------------------------------------

    def psi_tilde(self, s: int, i: int, j: int) -> SortedMap:
        """psi_s applied to the inverse of pi_i^-1 . pi_j, as a map on B_s."""
        key = (s, i, j)
        cached = self._psi_tilde_cache.get(key)
        if cached is None:
            member = self.fam.members[s]
            tilde = self.iso_inv[s][i].compose(self.iso[s][j])
            idx = member.autA.index_of(tilde.inverse())
            cached = member.psi_map(idx)
            self._psi_tilde_cache[key] = cached
        return cached

    def e_equiv(self, x1: MatchedTriple, x2: MatchedTriple) -> bool:
        for s in range(len(self.fam.members)):
            h = self.psi_tilde(s, x1.pi_idx[s], x2.pi_idx[s])
            s1, e1 = x1.b[s]
            if x2.b[s] != (s1, h.maps[s1][e1]):
                return False
        return True

    def cocycle_holds(self) -> bool:
        """Whether the transports obey the cocycle law, decided exactly.

        Write T_s(i, j) for ``psi_tilde(s, i, j)``.  The law is
        T_s(j, l) . T_s(i, j) = T_s(i, l) for every member s and every i, j,
        l.  It is checked for i = 0 and every j, l (|iso_s|^2 compositions
        per member), which implies it for every i: the i = 0 case gives
        T_s(j, l) = T_s(0, l) . T_s(0, j)^-1, so T_s(j, l) . T_s(i, j) =
        T_s(0, l) . T_s(0, i)^-1 = T_s(i, l).

        When it holds, T_s(i, i) is the identity and T_s(j, i) inverts
        T_s(i, j), so E is an equivalence and x1 E x2 exactly when the
        frame-0 keys of :meth:`_frame0_keys` agree.
        """
        if self._cocycle is None:
            self._cocycle = all(
                self.psi_tilde(s, j, l).compose(self.psi_tilde(s, 0, j)).maps
                == self.psi_tilde(s, 0, l).maps
                for s, lst in enumerate(self.iso)
                for j, l in itertools.product(range(len(lst)), repeat=2)
            )
        return self._cocycle

    def _frame0_keys(self) -> list[tuple[tuple[int, int], ...]]:
        """Every triple's thread carried into frame 0: (sort, T_s(pi_s, 0)(b_s))."""
        to0 = [
            [self.psi_tilde(s, i, 0).maps for i in range(len(lst))]
            for s, lst in enumerate(self.iso)
        ]
        return [
            tuple(
                (sort, to0[s][pi][sort][e])
                for s, (pi, (sort, e)) in enumerate(zip(x.pi_idx, x.b))
            )
            for x in self.triples
        ]

    def classes(self) -> tuple[list[int], list[list[int]]]:
        """Equivalence classes of e_equiv, numbered by first occurrence.

        When :meth:`cocycle_holds`, classes are the fibres of the frame-0 key,
        found in one O(|X| n) pass.  Otherwise a pairwise union-find decides
        them, refused above ``config.DEFAULT.x_pairwise`` triples.  Both
        number classes by their first triple and list members ascending.
        """
        if self._classes is not None:
            return self._classes
        if self.cocycle_holds():
            ids: dict[tuple, int] = {}
            class_of = [ids.setdefault(key, len(ids)) for key in self._frame0_keys()]
        else:
            class_of = self._pairwise_classes()
        members: list[list[int]] = [[] for _ in range(max(class_of, default=-1) + 1)]
        for i, cid in enumerate(class_of):
            members[cid].append(i)
        self._classes = (class_of, members)
        return self._classes

    def _pairwise_classes(self) -> list[int]:
        """Class ids by pairwise e_equiv and union-find, numbered by first triple."""
        n = len(self.triples)
        if n > config.DEFAULT.x_pairwise:
            raise BoundExceededError(
                f"|X|={n} exceeds pairwise class bound {config.DEFAULT.x_pairwise}"
            )
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(n):
            for j in range(i + 1, n):
                if find(i) != find(j) and self.e_equiv(self.triples[i], self.triples[j]):
                    parent[find(j)] = find(i)

        roots: dict[int, int] = {}
        return [roots.setdefault(find(i), len(roots)) for i in range(n)]

    def frame_threads(self) -> tuple[list[tuple[int, ...]], list[dict[int, tuple]]]:
        """Per isomorphism-tuple frame, the unique thread of every class.

        Relations on the quotient are evaluated with all coordinates in one
        frame; descending from triples to classes is sound exactly because a
        class meets every frame in a single thread (the equivalence twist
        between two frames is one automorphism per member, the same for every
        class).  Built once per space from one pass that buckets triples by
        frame.
        """
        if self._frame_threads is not None:
            return self._frame_threads
        class_of, members = self.classes()
        in_frame: dict[tuple[int, ...], list[int]] = {}
        for i, x in enumerate(self.triples):
            in_frame.setdefault(x.pi_idx, []).append(i)
        frames = list(itertools.product(*(range(len(lst)) for lst in self.iso)))
        by_frame: list[dict[int, tuple]] = []
        for frame in frames:
            threads: dict[int, tuple] = {}
            for i in in_frame.get(frame, ()):
                b = self.triples[i].b
                if threads.setdefault(class_of[i], b) != b:
                    raise VerificationError(
                        "a class carries two different threads in one frame"
                    )
            if len(threads) != len(members):
                raise VerificationError("a class misses a frame entirely")
            by_frame.append(threads)
        self._frame_threads = (frames, by_frame)
        return self._frame_threads

    def membership(self) -> list[dict[tuple[int, ...], tuple[tuple[bool, ...], ...]]]:
        """Per relation, every well-sorted class tuple's (exists, forall)
        verdicts across family members, one entry per frame.

        ``membership()[ri][ct]`` is the pair of tuples ``(exists, forall)``
        indexed like ``frame_threads()``'s frames; class tuples are listed in
        product order.  Computed once per space; the quotient and
        :func:`verify_claims` both read it.
        """
        if self._membership is not None:
            return self._membership
        _, by_frame = self.frame_threads()
        _, members = self.classes()
        sort_of_class = [self.triples[group[0]].b[0][0] for group in members]
        n_classes = len(members)
        table = []
        for ri, (name, rsig) in enumerate(self.fam.members[0].B.signature.relations):
            if n_classes ** len(rsig) > 10**6:
                raise BoundExceededError(f"relation {name!r}: membership check too large")
            rels = [member.B.relations[ri] for member in self.fam.members]
            verdicts = {}
            for ct in itertools.product(*(
                [c for c in range(n_classes) if sort_of_class[c] == sort] for sort in rsig
            )):
                exists, forall = zip(*(_frame_membership(rels, threads, ct) for threads in by_frame))
                verdicts[ct] = (exists, forall)
            table.append(verdicts)
        self._membership = table
        return table

    def thread_classes(self) -> list[ThreadClass]:
        """Per first-sort element a of the target, the triples threading a
        and the class they form, from one pass over the triples.

        Triple x threads a when every b_s is a first-sort element and pi_s
        sends it to a; so each triple threads at most one element, read off
        its own b and pi.
        """
        if self._thread_classes is not None:
            return self._thread_classes
        class_of, members = self.classes()
        threading: list[list[int]] = [[] for _ in range(self.A.sort_sizes[0])]
        for idx, x in enumerate(self.triples):
            if any(sort != 0 for sort, _ in x.b):
                continue
            images = {
                self.iso[s][pi].maps[0][e] for s, (pi, (_, e)) in enumerate(zip(x.pi_idx, x.b))
            }
            if len(images) == 1:
                threading[images.pop()].append(idx)
        out = []
        for idxs in threading:
            cids = {class_of[i] for i in idxs}
            if not idxs:
                out.append(ThreadClass((), None, "empty thread set"))
            elif len(cids) != 1:
                out.append(ThreadClass(tuple(idxs), None, f"spans {len(cids)} classes"))
            else:
                cid = cids.pop()
                problem = "" if members[cid] == idxs else "thread set is a strict part of its class"
                out.append(ThreadClass(tuple(idxs), cid, problem))
        self._thread_classes = out
        return out


def _space_for(
    A: SortedStructure, fam: Family, *, max_elements: int | None = None
) -> TripleSpace:
    """Cache one enumeration per (family, target) pair on the family."""
    key = A.canonical_key()
    space = fam._spaces.get(key)
    if space is None:
        space = TripleSpace(A, fam, max_elements=max_elements)
        fam._spaces[key] = space
    return space


def matched_triples(
    A: SortedStructure, fam: Family, *, max_elements: int | None = None
) -> list[MatchedTriple]:
    """Every matched triple over the family and target, canonically ordered."""
    return _space_for(A, fam, max_elements=max_elements).triples


def e_equiv(x1: MatchedTriple, x2: MatchedTriple) -> bool:
    """The lifting-twisted equivalence on matched triples of one space."""
    if x1.space is not x2.space:
        raise StructureError("triples come from different enumerations")
    return x1.space.e_equiv(x1, x2)


def k_class(
    a: int, A: SortedStructure, fam: Family, *, max_elements: int | None = None
) -> list[MatchedTriple]:
    """The triples threading a; verified to be exactly one equivalence class."""
    space = _space_for(A, fam, max_elements=max_elements)
    tc = space.thread_classes()[a]
    if not tc.triples:
        raise VerificationError(f"no matched triple threads element {a}")
    if tc.problem:
        raise VerificationError(
            f"thread set of element {a} is not a single equivalence class"
        )
    return [space.triples[i] for i in tc.triples]


# ---------------------------------------------------------------------------
# Quotient and the uniform construction

@dataclass
class QuotientResult:
    structure: SortedStructure
    space: TripleSpace
    class_of: list[int]
    class_label: list[tuple[int, int]]  # class id -> (sort, element)


def _frame_membership(rels, threads: dict[int, tuple], ct) -> tuple[bool, bool]:
    """(exists-member, forall-members) verdicts for one class tuple in one
    frame; ``rels`` holds one relation's interpretation in every member."""
    verdicts = [
        tuple(threads[c][s][1] for c in ct) in rel for s, rel in enumerate(rels)
    ]
    return any(verdicts), all(verdicts)


def _quotient_full(space: TripleSpace) -> QuotientResult:
    """Quotient on explicit equivalence classes, with agreement checks.

    Verifies, exhaustively: every class has one thread per frame, the
    exists/forall agreement across family members within the reference
    frame, and frame-independence of relation membership (the congruence
    content).  Failures raise, since they are theorems for coherent
    families.  The result is cached on the space.
    """
    if space._quotient is not None:
        return space._quotient
    if not space.triples:
        raise StructureError("no matched triples: target is not isomorphic to the family")
    class_of, members = space.classes()
    relations = space.fam.members[0].B.signature.relations

    sort_of_class: list[int] = []
    for group in members:
        sorts = {space.triples[i].b[s][0] for i in group for s in range(len(space.fam.members))}
        if len(sorts) != 1:
            raise VerificationError("equivalence class mixes sorts")
        sort_of_class.append(sorts.pop())

    table = space.membership()
    for (name, _), verdicts in zip(relations, table):
        if any(exists[0] != forall[0] for exists, forall in verdicts.values()):
            raise VerificationError(
                f"relation {name!r}: exists/forall agreement fails across members"
            )
    # name the relation whose membership changes in the earliest frame
    varying = [
        (next(f for f, e in enumerate(exists) if e != exists[0]), ri)
        for ri, verdicts in enumerate(table)
        for exists, _ in verdicts.values()
        if len(set(exists)) > 1
    ]
    if varying:
        name = relations[min(varying)[1]][0]
        raise VerificationError(f"relation {name!r}: membership is not constant across frames")

    # canonical labels per sort
    labels: list[tuple[int, int]] = [(-1, -1)] * len(members)
    counters = [0, 0]
    for cid, s in enumerate(sort_of_class):
        labels[cid] = (s, counters[s])
        counters[s] += 1

    quot_rels = [
        {tuple(labels[c][1] for c in ct) for ct, (exists, _) in verdicts.items() if exists[0]}
        for verdicts in table
    ]
    structure = SortedStructure(
        space.fam.members[0].B.signature, tuple(counters), quot_rels, (), ()
    )
    space._quotient = QuotientResult(
        structure=structure, space=space, class_of=class_of, class_label=labels
    )
    return space._quotient


def build_quotient(
    A: SortedStructure, fam: Family, *, max_elements: int | None = None
) -> QuotientResult:
    """The quotient structure of matched triples by the twist equivalence.

    Enumerates every matched triple and re-verifies the agreement and
    congruence claims (hard error on failure).
    """
    return _quotient_full(_space_for(A, fam, max_elements=max_elements))


@dataclass
class UniformResult:
    structure: SortedStructure
    quotient: QuotientResult


def uniform_F(
    A: SortedStructure, fam: Family, *, max_elements: int | None = None
) -> UniformResult:
    """The uniform construction: a copy of the family structure over A itself.

    Built from the quotient of the matched triples, with each first-sort
    class relabelled by the element of A it threads.  Postconditions are
    always re-checked: the first-sort reduct must equal A element for
    element, and the result must be isomorphic to the family members.
    """
    base = fam.members[0]
    space = _space_for(A, fam, max_elements=max_elements)
    quot = _quotient_full(space)
    labels = quot.class_label

    n_sort0_classes = sum(1 for s, _ in labels if s == 0)
    if n_sort0_classes != A.sort_sizes[0]:
        raise VerificationError(
            "first-sort classes do not match the target element count"
        )
    a_of_class: dict[int, int] = {}
    for a, tc in enumerate(space.thread_classes()):
        if tc.cid is None:
            raise VerificationError(f"thread classes of element {a} are not unique")
        a_of_class[tc.cid] = a

    element_of: list[int] = []
    for cid, (s, lbl) in enumerate(labels):
        if s == 0 and cid not in a_of_class:
            raise VerificationError(
                "a first-sort class is not the thread class of any element"
            )
        element_of.append(a_of_class[cid] if s == 0 else lbl)

    rels = [
        {tuple(element_of[c] for c in ct) for ct, (exists, _) in verdicts.items() if exists[0]}
        for verdicts in space.membership()
    ]
    structure = SortedStructure(
        base.B.signature,
        (A.sort_sizes[0], quot.structure.sort_sizes[1]),
        rels,
        (),
        (),
    )
    if reduct(structure, (0,)) != A:
        raise VerificationError("first-sort reduct of the result does not equal the target")
    if not isomorphisms(structure, base.B, max_elements=max_elements, limit=1):
        raise VerificationError("result is not isomorphic to the family structure")
    return UniformResult(structure=structure, quotient=quot)


# ---------------------------------------------------------------------------
# Claims verification

def verify_claims(
    A: SortedStructure,
    fam: Family,
    *,
    max_elements: int | None = None,
) -> Report:
    """Re-check every intermediate fact of the uniform construction by full
    enumeration over the matched-triple space."""
    report = Report("claim")
    report.add(
        "family_nonempty_weak_liftings",
        all(member.psi.is_weak_splitting() for member in fam),
        f"{len(fam)} members",
    )

    copies0 = {c.canonical_key() for c in canonical_copies(fam.members[0].B)}
    same = all(
        {c.canonical_key() for c in canonical_copies(m.B)} == copies0
        for m in fam.members[1:]
    )
    report.add(
        "copy_set_definable_from_family",
        same,
        f"{len(copies0)} canonical copies shared by all members",
    )

    space = _space_for(A, fam, max_elements=max_elements)
    xs = space.triples
    n = len(xs)
    report.add("triple_space_nonempty", n > 0, f"|X|={n}")
    if n == 0:
        return report

    if space.cocycle_holds():
        verdicts = (True, True, True)
        detail = (
            f"proved from the cocycle law, checked exhaustively on "
            f"{sum(len(lst) ** 2 for lst in space.iso)} transport pairs"
        )
    else:
        if n > config.DEFAULT.x_pairwise:
            raise BoundExceededError(
                f"|X|={n} exceeds pairwise class bound {config.DEFAULT.x_pairwise}"
            )
        mat = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(n):
                mat[i, j] = space.e_equiv(xs[i], xs[j])
        verdicts = _relation_verdicts(mat)
        detail = f"cocycle law fails; decided on all {n}x{n} pairs"
    for name, ok in zip(("E_reflexive", "E_symmetric", "E_transitive"), verdicts):
        report.add(name, ok, detail)
    if not all(verdicts):
        return report

    _, members = space.classes()
    base = fam.members[0]

    frames_ok = True
    frames_detail = ""
    try:
        frames, _ = space.frame_threads()
        frames_detail = f"{len(frames)} frames, one thread per class in each"
    except VerificationError as exc:
        frames_ok = False
        frames_detail = str(exc)
    report.add("classes_have_unique_frame_threads", frames_ok, frames_detail)

    detail_agree = []
    detail_const = []
    if frames_ok:
        for (name, _), by_tuple in zip(base.B.signature.relations, space.membership()):
            for ct, (exists, forall) in by_tuple.items():
                if exists != forall:
                    detail_agree.append(f"{name}{ct}")
                if len(set(exists)) > 1:
                    detail_const.append(f"{name}{ct}")
    ok_agree = not detail_agree
    ok_frames_const = not detail_const
    report.add(
        "cla3_exists_forall_agreement",
        frames_ok and ok_agree,
        "; ".join(detail_agree[:4]),
    )
    report.add(
        "cla4_congruence_frame_independent",
        frames_ok and ok_frames_const,
        "; ".join(detail_const[:4]),
    )

    quot = None
    detail_cong = ""
    if frames_ok and ok_agree and ok_frames_const:
        try:
            quot = _quotient_full(space)
        except VerificationError as exc:  # pragma: no cover - guarded above
            detail_cong = str(exc)
    report.add("quotient_constructible", quot is not None, detail_cong)

    k_detail = []
    seen_classes = set()
    for a, tc in enumerate(space.thread_classes()):
        if tc.problem:
            k_detail.append(f"element {a}: {tc.problem}")
        if tc.cid is None:
            continue
        if tc.cid in seen_classes:
            k_detail.append(f"element {a}: class collides with another element")
        seen_classes.add(tc.cid)
    report.add("cla5_k_classes", not k_detail, "; ".join(k_detail))

    n_sort2 = sum(
        1 for cid in range(len(members)) if xs[members[cid][0]].b[0][0] == 1
    )
    report.add(
        "cla5_class_count",
        len(members) == A.sort_sizes[0] + n_sort2,
        f"{len(members)} classes = {A.sort_sizes[0]} first-sort + {n_sort2} second-sort",
    )

    # Y_{s, phi}: base member, first isomorphism
    y_set = {i for i, x in enumerate(xs) if x.pi_idx[0] == 0}
    rho_const = True
    meets_all = True
    rho_values: dict[int, tuple[int, int]] = {}
    for cid, group in enumerate(members):
        inter = [i for i in group if i in y_set]
        if not inter:
            meets_all = False
            continue
        values = {xs[i].b[0] for i in inter}
        if len(values) != 1:
            rho_const = False
        rho_values[cid] = values.pop()
    report.add("cla6_rho_constant_on_classes", rho_const)
    report.add("cla6_y_meets_every_class", meets_all)
    rho_injective = len(set(rho_values.values())) == len(rho_values)
    report.add(
        "cla6_rho_injective_across_classes",
        rho_injective and len(rho_values) == len(members),
    )

    if quot is not None:
        iso_found = bool(
            isomorphisms(quot.structure, base.B, max_elements=max_elements, limit=1)
        )
        report.add(
            "cla6_quotient_isomorphic_to_member",
            iso_found and quot.structure.sort_sizes == base.B.sort_sizes,
            f"quotient sorts {quot.structure.sort_sizes} vs member {base.B.sort_sizes}",
        )
        witness_ok = rho_const and meets_all and rho_injective
        if witness_ok:
            witness_ok = _rho_witness_is_isomorphism(
                quot.structure, quot.class_label, rho_values, base.B
            )
        report.add(
            "cla6_explicit_rho_witness",
            witness_ok,
            "class -> slice-representative thread value is an isomorphism",
        )
    else:
        report.add("cla6_quotient_isomorphic_to_member", False, "congruence failed")
        report.add("cla6_explicit_rho_witness", False, "congruence failed")
    return report


def _relation_verdicts(mat: np.ndarray) -> tuple[bool, bool, bool]:
    """(reflexive, symmetric, transitive) of a square boolean relation matrix.

    The two-step paths are counted in float32: a sum of 0/1 products is
    positive whenever one product is, so unlike an 8-bit count it cannot
    wrap round to 0 (at 256 paths).
    """
    counts = mat.astype(np.float32)
    closure = (counts @ counts) > 0
    return (
        bool(mat.diagonal().all()),
        bool((mat == mat.T).all()),
        bool((closure <= mat).all()),
    )


def _rho_witness_is_isomorphism(quot_structure, class_label, rho_values, target) -> bool:
    """Check the explicit map (quotient label -> thread value) directly."""
    if quot_structure.sort_sizes != target.sort_sizes:
        return False
    n_classes = len(class_label)
    maps = [
        [-1] * quot_structure.sort_sizes[0],
        [-1] * quot_structure.sort_sizes[1],
    ]
    for cid in range(n_classes):
        s, label = class_label[cid]
        rs, re_ = rho_values[cid]
        if rs != s:
            return False
        maps[s][label] = re_
    if any(v < 0 for m in maps for v in m):
        return False
    if any(sorted(m) != list(range(len(m))) for m in maps):
        return False
    for ri, (_, rsig) in enumerate(quot_structure.signature.relations):
        image = {
            tuple(maps[rsig[i]][t[i]] for i in range(len(t)))
            for t in quot_structure.relations[ri]
        }
        if image != target.relations[ri]:
            return False
    return True
