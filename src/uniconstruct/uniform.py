"""Uniform reconstruction of a many-sorted structure over its leading sorts.

Given a family of lifted copies (pairwise isomorphic relational structures,
each with a weak splitting of the restriction map onto the automorphisms of
its reduct to the first k sorts, its kept sorts) and a target A on those k
sorts, the pipeline enumerates matched triples (an iso tuple onto A, a
coherent family of structure isomorphisms extending the induced maps on the
kept sorts, and a compatible element thread), quotients them by the
lifting-twisted equivalence, and reads off a copy of the original structure
whose kept sorts are A itself, element for element.

k is read off the problem the family is built on: 1 for ``assemble_ucp``'s,
1 or 2 for ``derive_triple``'s, so F12, F23 and F13 of one tower run here.

A :class:`TripleSpace`, built once per call from a family and a target, is
the layer's one handle: :func:`verify_claims`, :func:`build_quotient`,
:func:`uniform_F` and :func:`k_class` take it.  Each fact they read is
decided once on it: E (proved from the cocycle law where every psi is a
splitting, otherwise decided on the distinct (frame, thread) keys of the
triples), each class's sort, and the congruence failures.  The quotient,
``k_class`` and ``uniform_F`` refuse an E that is not an equivalence, naming
what it lacks.

:func:`verify_claims` reports every intermediate fact the construction
leans on, reading the two that hold by construction (the cocycle law, the
copy set every relabelled member shares) from what was already decided.  A
failure is reported honestly (it can genuinely happen when the restriction
map has a nontrivial kernel and the family has two or more members, because
the isomorphism families are then underdetermined).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from . import config
from .errors import BoundExceededError, StructureError, VerificationError
from .groups import AutomorphismGroup, GroupHom, Section
from .structures import (
    SortedMap,
    SortedStructure,
    identity_map,
    isomorphisms,
    reduct,
    relabel,
    relabel_map,
)
from .ucp import Report, UniConstructionProblem, _ordinals, assemble_ucp

__all__ = [
    "LiftedCopy",
    "Family",
    "make_lifted_copy",
    "build_family",
    "MatchedTriple",
    "TripleSpace",
    "k_class",
    "QuotientResult",
    "build_quotient",
    "UniformResult",
    "uniform_F",
    "verify_claims",
]

# names of the three properties that make E an equivalence, as reported
E_PROPERTIES = ("E_reflexive", "E_symmetric", "E_transitive")


@dataclass
class LiftedCopy:
    """One family member: a structure, its reduct A to the kept sorts, a
    weak splitting, and the relabelling ``relabel`` that carries the family's
    base structure onto B (the identity on the base)."""

    tag: int
    B: SortedStructure
    A: SortedStructure
    autB: AutomorphismGroup
    autA: AutomorphismGroup
    phi: GroupHom
    psi: Section
    relabel: SortedMap

    def psi_map(self, autA_index: int) -> SortedMap:
        """The lifted automorphism of B for an automorphism index of A."""
        return self.autB.map(self.psi.map[autA_index])


@dataclass
class Family:
    """Lifted copies, each the base (the first member) relabelled: checked
    once, by carrying every base relation along each member's ``relabel``."""

    members: tuple[LiftedCopy, ...]

    def __post_init__(self):
        if not self.members:
            raise StructureError("family must be nonempty")
        base = self.members[0].B
        if any(m.relabel.domain != base or m.relabel.codomain != m.B for m in self.members):
            raise StructureError("a member's relabelling does not start at the family's base")
        try:
            carried = all(relabel(base, m.relabel.maps) == m.B for m in self.members)
        except StructureError:  # a per-sort map is not a bijection
            carried = False
        if not carried:
            raise StructureError("family members are not pairwise isomorphic")

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
    problem from :func:`assemble_ucp` or :func:`~uniconstruct.ucp.derive_triple`:
    its reduct (whose sorts are the kept sorts), automorphism groups and
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
        tag=tag, B=B, A=problem.A, autB=problem.H, autA=problem.G, phi=problem.phi,
        psi=problem.psi, relabel=identity_map(B),
    )


def _relabelings(sizes: Sequence[int]):
    """Per-sort bijection families on sorts of ``sizes``, in the order
    ``itertools.product`` of the sorts' permutations lists them, made one at
    a time: ``product`` would first list every permutation of every sort."""
    if not sizes:
        yield ()
        return
    for first in itertools.permutations(range(sizes[0])):
        for rest in _relabelings(sizes[1:]):
            yield (first, *rest)


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
    :func:`make_lifted_copy`); f itself is the isomorphism onto the copy,
    which :class:`Family` checks carries every relation across.
    """
    if n < 1:
        raise StructureError("family size must be at least 1")
    base = make_lifted_copy(B, psi, tag=0, max_elements=max_elements, problem=problem)
    members = [base]
    k = len(base.A.sort_sizes)

    perm_iter = _relabelings(B.sort_sizes)
    next(perm_iter)  # identity family
    for tag in range(1, n):
        try:
            perms = next(perm_iter)
        except StopIteration:
            raise StructureError(
                f"structure admits fewer than {n} distinct relabeling maps"
            ) from None
        f = relabel_map(B, perms)
        copy_a = reduct(f.codomain, range(k))
        members.append(LiftedCopy(
            tag=tag,
            B=f.codomain,
            A=copy_a,
            autB=base.autB.conjugate(f),
            autA=base.autA.conjugate(SortedMap(base.A, copy_a, f.maps[:k])),
            phi=base.phi,
            psi=base.psi,
            relabel=f,
        ))
    return Family(tuple(members))


@dataclass(frozen=True)
class MatchedTriple:
    """(pi, g, b): indices into the owning TripleSpace's iso caches.

    ``pi_idx[s]`` picks the isomorphism A_s -> A; ``g_idx[t]`` picks the
    base-row structure isomorphism B_0 -> B_t (entry 0 is -1, the identity);
    ``b[s]`` is the (sort, element) thread entry in B_s.
    """

    pi_idx: tuple[int, ...]
    g_idx: tuple[int, ...]
    b: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ThreadClass:
    """The triples threading one target element, ascending; ``cid`` is their
    class when they lie in one class, and ``problem`` is empty exactly when
    they are that whole class."""

    triples: tuple[int, ...]
    cid: int | None
    problem: str


class TripleSpace:
    """The matched triples over a family and a target, and every fact decided
    on them.  ``max_elements`` bounds each isomorphism search made for the
    space, the result checks of :func:`verify_claims` and :func:`uniform_F`
    included."""

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
        # only the base is searched: member t is the base relabelled along
        # f_t, so its isomorphisms onto A are the base's composed with f_t^-1
        # on the kept sorts, and B_0 -> B_t are f_t after each automorphism
        # row of B_0; both lists are in the search's order, that of their
        # ``maps`` or rows.  A triple's g_idx[t] is a position in biso[t];
        # extend[t] lists those positions per restriction to the kept sorts.
        base = fam.members[0]
        k = len(base.A.sort_sizes)
        self.iso = [isomorphisms(base.A, A, max_elements=max_elements)]
        self.biso: list[list[SortedMap]] = [[]]
        for member in fam.members[1:]:
            f_inv = SortedMap(member.A, base.A, member.relabel.inverse().maps[:k])
            self.iso.append(sorted((m.compose(f_inv) for m in self.iso[0]), key=lambda m: m.maps))
            through_f = member.relabel.row().__getitem__
            rows = sorted(tuple(map(through_f, p)) for p in base.autB.perms)
            self.biso.append([SortedMap.from_row(base.B, member.B, row) for row in rows])
        self.iso_inv = [[m.inverse() for m in lst] for lst in self.iso]
        self.extend: list[dict[tuple[tuple[int, ...], ...], list[int]]] = [{} for _ in self.biso]
        for flat, positions in zip(self.biso, self.extend):
            for pos, m in enumerate(flat):
                positions.setdefault(m.maps[:k], []).append(pos)
        self._psi_tilde_cache: dict[tuple[int, int, int], SortedMap] = {}
        self.triples = self._enumerate()
        self._cocycle: bool | None = None
        self._classes: tuple[list[int], list[list[int]]] | None = None
        self._e_verdicts: tuple[tuple[bool, bool, bool], str] | None = None
        self._frame_threads: tuple[list[tuple[int, ...]], list[dict[int, tuple]]] | None = None
        self._class_sorts: list[int] | None = None
        self._membership: list[dict[tuple[int, ...], tuple[tuple[bool, ...], ...]]] | None = None
        self._congruence: tuple[list, list] | None = None
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
            pi0 = self.iso[0][pi_idx[0]]
            for t in range(1, n):
                h0t = self.iso_inv[t][pi_idx[t]].compose(pi0)
                positions = self.extend[t].get(h0t.maps)
                if positions is None:
                    break
                ext_choices.append([(k, self.biso[t][k]) for k in positions])
            if len(ext_choices) < n:  # some member has no extension in this frame
                continue
            for combo in itertools.product(*ext_choices):
                g_idx = tuple(c[0] for c in combo)
                g_maps = [c[1] for c in combo]
                for b0 in b_elements:
                    b = tuple(g_maps[t].apply_pair(b0) for t in range(n))
                    out.append(MatchedTriple(pi_idx, g_idx, b))
                    if len(out) > bound:
                        raise BoundExceededError(
                            f"matched-triple enumeration exceeds bound {bound}"
                        )
        return out

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
        """Whether the transports obey the cocycle law: exactly when some
        iso_s is empty (then all are, and the law is vacuous) or every
        member's psi is a splitting.

        Write T_s(i, j) for ``psi_tilde(s, i, j)`` and a_i for the i-th
        isomorphism A_s -> A.  The law is T_s(j, l) . T_s(i, j) = T_s(i, l)
        for every member s and every i, j, l.  iso_s is a torsor under
        Aut(A_s), so T_s(i, j) = psi_s(a_j^-1 a_i), and with a = a_l^-1 a_j,
        b = a_j^-1 a_i the law reads psi_s(a) . psi_s(b) = psi_s(ab).  As
        (i, j, l) range, (a, b) covers Aut(A_s)^2: the law is psi_s's hom law
        in ``compose`` order, the order its group tables encode.

        When it holds, T_s(i, i) is the identity and T_s(j, i) inverts
        T_s(i, j), so E is an equivalence and x1 E x2 exactly when the
        frame-0 keys of :meth:`_frame0_keys` agree.
        """
        if self._cocycle is None:
            self._cocycle = not all(self.iso) or all(m.psi.is_splitting() for m in self.fam)
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

    def equivalence(self) -> tuple[tuple[bool, bool, bool], str, tuple[list[int], list[list[int]]]]:
        """E decided once: its (reflexive, symmetric, transitive) verdicts, how
        they were decided, and ``(class_of, members)`` for the equivalence E
        generates, classes numbered by first triple, members ascending.

        Where :meth:`cocycle_holds` the verdicts are proved and classes are
        the fibres of the frame-0 key; otherwise :meth:`_keyed_equivalence`
        decides both, refused above ``config.DEFAULT.x_pairwise`` triples.
        """
        if self._classes is None:
            if self.cocycle_holds():
                ids: dict[tuple, int] = {}
                class_of = [ids.setdefault(key, len(ids)) for key in self._frame0_keys()]
                self._e_verdicts = (
                    (True, True, True), "proved from the cocycle law: every member's psi is a splitting"
                )
            else:
                if len(self.triples) > config.DEFAULT.x_pairwise:
                    raise BoundExceededError(
                        f"|X|={len(self.triples)} exceeds the bound {config.DEFAULT.x_pairwise} "
                        f"on spaces that break the cocycle law"
                    )
                verdicts, class_of, n_keys, n_frames = self._keyed_equivalence()
                self._e_verdicts = (verdicts, (
                    f"cocycle law fails; decided on {n_keys} (frame, thread) keys in {n_frames} frames"
                ))
            members: list[list[int]] = [[] for _ in range(max(class_of, default=-1) + 1)]
            for i, cid in enumerate(class_of):
                members[cid].append(i)
            self._classes = (class_of, members)
        return (*self._e_verdicts, self._classes)

    def classes(self) -> tuple[list[int], list[list[int]]]:
        """Classes of the equivalence E generates, from :meth:`equivalence`."""
        return self.equivalence()[2]

    def require_equivalence(self) -> None:
        """Raise VerificationError naming each property E lacks."""
        verdicts, detail, _ = self.equivalence()
        failing = [name for name, ok in zip(E_PROPERTIES, verdicts) if not ok]
        if failing:
            raise VerificationError(
                f"the twist relation is not an equivalence: {', '.join(failing)} fails ({detail})"
            )

    def _keyed_equivalence(self) -> tuple[tuple[bool, bool, bool], list[int], int, int]:
        """E's verdicts and generated classes, the key count and the frame
        count, from the distinct keys k = (pi, b) of the triples.

        x1 E x2 never reads g_idx: it holds iff x2's key is the partner of
        x1's key in x2's frame pi', namely (pi', T(pi, pi')(b)) with T applying
        ``psi_tilde(s, pi_s, pi'_s)`` at each member s.  So E is the pullback
        of the partner relation on keys, P(k) being the partners of k: E is
        reflexive iff k is in P(k), symmetric iff k is in P(k') for k' in
        P(k), and transitive iff P(k') is a subset of P(k) for k' in P(k).
        A partner edge relates every triple of one key to every triple of the
        other, so the classes E generates are the components of the partner
        graph, except that the triples of a key with no edge at all stay
        apart.
        """
        keys: dict[tuple, int] = {}
        key_of = [keys.setdefault((x.pi_idx, x.b), len(keys)) for x in self.triples]
        frames = list(dict.fromkeys(pi for pi, _ in keys))
        # equal partner sets are shared, so where E is an equivalence each
        # subset test is an identity check
        shared: dict[frozenset[int], frozenset[int]] = {}
        partners: list[frozenset[int]] = []
        for pi, b in keys:
            # row[s][j]: the key's entry at member s carried into pi'_s = j
            row = [
                [(sort, self.psi_tilde(s, i, j).maps[sort][e]) for j in range(len(self.iso[s]))]
                for s, (i, (sort, e)) in enumerate(zip(pi, b))
            ]
            found = (keys.get((frame, tuple(r[j] for r, j in zip(row, frame)))) for frame in frames)
            ks = frozenset(k for k in found if k is not None)
            partners.append(shared.setdefault(ks, ks))
        verdicts = (
            all(k in ks for k, ks in enumerate(partners)),
            all(k in partners[k2] for k, ks in enumerate(partners) for k2 in ks),
            all(partners[k2] is ks or partners[k2] <= ks for ks in partners for k2 in ks),
        )
        root = list(range(len(keys)))

        def find(k: int) -> int:
            while root[k] != k:
                root[k] = root[root[k]]
                k = root[k]
            return k

        for k, ks in enumerate(partners):
            for k2 in ks:
                root[find(k2)] = find(k)
        touched = set().union(*shared)
        ids: dict[int, int] = {}
        class_of = [
            ids.setdefault(find(k) if partners[k] or k in touched else -1 - i, len(ids))
            for i, k in enumerate(key_of)
        ]
        return verdicts, class_of, len(keys), len(frames)

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
        product order.  Computed once per space; :meth:`congruence`, the
        quotient and :func:`verify_claims` read it.
        """
        if self._membership is not None:
            return self._membership
        _, by_frame = self.frame_threads()
        sort_of_class = self.class_sorts()
        n_classes = len(sort_of_class)
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

    def class_sorts(self) -> list[int]:
        """Each class's sort, checked to be one sort at every member of every
        triple in the class (E carries each thread entry along a sorted map,
        so only a partition not built from E can mix sorts)."""
        if self._class_sorts is None:
            sorts = []
            for group in self.classes()[1]:
                found = {sort for i in group for sort, _ in self.triples[i].b}
                if len(found) != 1:
                    raise VerificationError("equivalence class mixes sorts")
                sorts.append(found.pop())
            self._class_sorts = sorts
        return self._class_sorts

    def congruence(self) -> tuple[list[tuple[int, tuple]], list[tuple[int, int, tuple]]]:
        """The class tuples on which the quotient's relations are not well
        defined, from one pass over :meth:`membership`, in relation and then
        class-tuple order: ``(ri, ct)`` where exists and forall differ in some
        frame (cla3), and ``(f, ri, ct)`` where membership varies by frame, f
        being the first frame whose verdict differs from frame 0's (cla4)."""
        if self._congruence is None:
            agree, varying = [], []
            for ri, verdicts in enumerate(self.membership()):
                for ct, (exists, forall) in verdicts.items():
                    if exists != forall:
                        agree.append((ri, ct))
                    if (not exists[0]) in exists:
                        varying.append((exists.index(not exists[0]), ri, ct))
            self._congruence = (agree, varying)
        return self._congruence

    def thread_classes(self) -> list[ThreadClass]:
        """Per element a of the target, in ``A.elements()`` order, the
        triples threading a and the class they form, from one pass over the
        triples.

        Triple x threads a when every b_s lies in a kept sort and pi_s sends
        it to a; so each triple threads at most one element, read off its
        own b and pi.
        """
        if self._thread_classes is not None:
            return self._thread_classes
        class_of, members = self.classes()
        k = len(self.A.sort_sizes)
        index = {element: i for i, element in enumerate(self.A.elements())}
        threading: list[list[int]] = [[] for _ in index]
        for idx, x in enumerate(self.triples):
            if any(sort >= k for sort, _ in x.b):
                continue
            images = {
                (sort, self.iso[s][pi].maps[sort][e])
                for s, (pi, (sort, e)) in enumerate(zip(x.pi_idx, x.b))
            }
            if len(images) == 1:
                threading[index[images.pop()]].append(idx)
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


def k_class(space: TripleSpace, a: int) -> list[MatchedTriple]:
    """The triples threading element a of the target, an index into
    ``A.elements()`` (so the element itself when A has one sort); verified
    to be exactly one class of E, after E is verified to be an equivalence."""
    A = space.A
    if not 0 <= a < A.total_elements:
        raise StructureError(
            f"element {a} is not in the target's {_ordinals(range(len(A.sort_sizes)))} sort "
            f"of size {A.total_elements}"
        )
    space.require_equivalence()
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
    class_label: list[tuple[int, int]]  # class id -> (sort, element)


def _frame_membership(rels, threads: dict[int, tuple], ct) -> tuple[bool, bool]:
    """(exists-member, forall-members) verdicts for one class tuple in one
    frame; ``rels`` holds one relation's interpretation in every member."""
    verdicts = [
        tuple(threads[c][s][1] for c in ct) in rel for s, rel in enumerate(rels)
    ]
    return any(verdicts), all(verdicts)


def build_quotient(space: TripleSpace) -> QuotientResult:
    """The quotient structure of the space's triples by the twist equivalence.

    Refuses a twist relation that is not an equivalence, a class that mixes
    sorts (:meth:`TripleSpace.class_sorts`), and the first failure
    :meth:`TripleSpace.congruence` finds: exists/forall disagreement across
    family members, else membership that changes with the frame, naming the
    relation that changes in the earliest frame.  Failures raise, since they
    are theorems for coherent families.  The result is cached on the space.
    """
    if space._quotient is not None:
        return space._quotient
    if not space.triples:
        raise StructureError("no matched triples: target is not isomorphic to the family")
    space.require_equivalence()
    sort_of_class = space.class_sorts()
    relations = space.fam.members[0].B.signature.relations
    agree, varying = space.congruence()
    if agree:
        raise VerificationError(
            f"relation {relations[agree[0][0]][0]!r}: exists/forall agreement fails across members"
        )
    if varying:
        raise VerificationError(
            f"relation {relations[min(varying)[1]][0]!r}: membership is not constant across frames"
        )

    # canonical labels per sort
    labels: list[tuple[int, int]] = []
    counters = [0] * len(space.fam.members[0].B.sort_sizes)
    for s in sort_of_class:
        labels.append((s, counters[s]))
        counters[s] += 1

    quot_rels = [
        {tuple(labels[c][1] for c in ct) for ct, (exists, _) in verdicts.items() if exists[0]}
        for verdicts in space.membership()
    ]
    structure = SortedStructure(
        space.fam.members[0].B.signature, tuple(counters), quot_rels, (), ()
    )
    space._quotient = QuotientResult(structure=structure, class_label=labels)
    return space._quotient


@dataclass
class UniformResult:
    structure: SortedStructure
    quotient: QuotientResult


def uniform_F(space: TripleSpace) -> UniformResult:
    """The uniform construction: a copy of the family structure over the
    space's target A itself.

    The quotient of the matched triples with each class of a kept sort
    relabelled by the element of A it threads.  Postconditions are always
    re-checked: the reduct to the kept sorts must equal A element for
    element, and the result must be isomorphic to the family members.
    """
    A, base = space.A, space.fam.members[0]
    quot = build_quotient(space)
    labels = quot.class_label
    k = len(A.sort_sizes)
    kept = _ordinals(range(k))
    if quot.structure.sort_sizes[:k] != A.sort_sizes:
        raise VerificationError(f"{kept}-sort classes do not match the target element count")
    # element_of[s][label]: the element whose thread class carries that
    # label of kept sort s; a label left at -1 is a class no element threads
    element_of = [[-1] * n for n in A.sort_sizes]
    for a, ((_, e), tc) in enumerate(zip(A.elements(), space.thread_classes())):
        if tc.cid is None:
            raise VerificationError(f"thread classes of element {a} are not unique")
        s, label = labels[tc.cid]
        element_of[s][label] = e
    if any(-1 in m for m in element_of):
        raise VerificationError(f"a {kept}-sort class is not the thread class of any element")

    structure = relabel(quot.structure, (*element_of, *map(range, quot.structure.sort_sizes[k:])))
    if reduct(structure, range(k)) != A:
        raise VerificationError(f"{kept}-sort reduct of the result does not equal the target")
    if not isomorphisms(structure, base.B, max_elements=space.max_elements, limit=1):
        raise VerificationError("result is not isomorphic to the family structure")
    return UniformResult(structure=structure, quotient=quot)


# ---------------------------------------------------------------------------
# Claims verification

def verify_claims(space: TripleSpace) -> Report:
    """Report every intermediate fact of the uniform construction over the
    matched-triple space.

    The copy-set claim reads the members' relabellings, and its count is
    prod(n_s!) / |Aut B|.  The three E claims read
    :meth:`TripleSpace.equivalence`: proved from the cocycle law where every
    psi is a splitting, otherwise decided on the (frame, thread) keys of the
    triples.  When one fails, the report stops there.  The cla3
    and cla4 claims read :meth:`TripleSpace.congruence`, which
    :func:`build_quotient` refuses on.
    """
    fam, A = space.fam, space.A
    report = Report("claim")
    report.add(
        "family_nonempty_weak_liftings",
        all(member.psi.is_weak_splitting() for member in fam),
        f"{len(fam)} members",
    )

    # each member is the base relabelled (Family checks it), so all share the
    # base's copies: its prod(n_s!) relabellings fall in classes of |Aut B|
    base = fam.members[0]
    n_copies = math.prod(math.factorial(n) for n in base.B.sort_sizes) // base.autB.order
    report.add(
        "copy_set_definable_from_family",
        all(m.relabel.is_bijective() for m in fam),
        f"{n_copies} canonical copies shared by all members",
    )

    xs = space.triples
    n = len(xs)
    report.add("triple_space_nonempty", n > 0, f"|X|={n}")
    if n == 0:
        return report

    _, members = space.classes()
    verdicts, detail, _ = space.equivalence()
    for name, ok in zip(E_PROPERTIES, verdicts):
        report.add(name, ok, detail)
    if not all(verdicts):
        return report

    try:
        frames, _ = space.frame_threads()
        frames_ok, frames_detail = True, f"{len(frames)} frames, one thread per class in each"
    except VerificationError as exc:
        frames_ok, frames_detail = False, str(exc)
    report.add("classes_have_unique_frame_threads", frames_ok, frames_detail)

    agree, varying = space.congruence() if frames_ok else ([], [])
    names = [name for name, _ in base.B.signature.relations]
    report.add(
        "cla3_exists_forall_agreement",
        frames_ok and not agree,
        "; ".join(f"{names[ri]}{ct}" for ri, ct in agree[:4]),
    )
    report.add(
        "cla4_congruence_frame_independent",
        frames_ok and not varying,
        "; ".join(f"{names[ri]}{ct}" for _, ri, ct in varying[:4]),
    )

    quot = build_quotient(space) if frames_ok and not agree and not varying else None
    report.add("quotient_constructible", quot is not None, "")

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

    k, n_sorts = len(A.sort_sizes), len(base.B.sort_sizes)
    n_rest = sum(1 for s in space.class_sorts() if s >= k)
    report.add(
        "cla5_class_count",
        len(members) == A.total_elements + n_rest,
        f"{len(members)} classes = {A.total_elements} {_ordinals(range(k))}-sort + "
        f"{n_rest} {_ordinals(range(k, n_sorts))}-sort",
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
    report.add("cla6_rho_injective_across_classes", rho_injective and len(rho_values) == len(members))

    if quot is not None:
        iso_found = bool(isomorphisms(quot.structure, base.B, max_elements=space.max_elements, limit=1))
        report.add(
            "cla6_quotient_isomorphic_to_member",
            iso_found and quot.structure.sort_sizes == base.B.sort_sizes,
            f"quotient sorts {quot.structure.sort_sizes} vs member {base.B.sort_sizes}",
        )
        witness_ok = rho_const and meets_all and rho_injective and _rho_witness_is_isomorphism(
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


def _rho_witness_is_isomorphism(quot_structure, class_label, rho_values, target) -> bool:
    """Check the explicit map (quotient label -> thread value) directly."""
    maps = [[-1] * n for n in quot_structure.sort_sizes]
    for cid, (s, label) in enumerate(class_label):
        if rho_values[cid][0] != s:
            return False
        maps[s][label] = rho_values[cid][1]
    try:
        return relabel(quot_structure, maps) == target
    except StructureError:  # a per-sort map is not a bijection
        return False
