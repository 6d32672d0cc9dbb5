"""Uniform reconstruction of a many-sorted structure over its leading sorts.

Given a family (one assembled problem, whose restriction map onto the
automorphisms of the reduct to the first k sorts, its kept sorts, has a
weak splitting, and relabelled copies of its structure) and a target A on
those k sorts, the pipeline enumerates matched triples (an iso tuple onto A,
a coherent family of structure isomorphisms extending the induced maps on
the kept sorts, and a compatible element thread), quotients them by the
lifting-twisted equivalence, and reads off a copy of the original structure
whose kept sorts are A itself, element for element.

k is read off the problem the family is built on: 1 for ``assemble_ucp``'s,
1 or 2 for ``derive_triple``'s, so F12, F23 and F13 of one tower run here.

A :class:`TripleSpace`, built once per call from a family and a target, is
the layer's one handle: :func:`verify_claims`, :func:`build_quotient` and
:func:`uniform_F` take it.  Each fact they read is decided once on it: E
(read off the section: always reflexive and symmetric, and transitive
exactly when psi is a splitting), each class's sort, each relation's
membership (once per member, in one frame, since no frame differs), and the
congruence failures.  The quotient and ``uniform_F`` refuse an E that is
not an equivalence, naming what it lacks.

:func:`verify_claims` reports every intermediate fact the construction
leans on, reading the three that hold by construction (the cocycle law, the
copy set every relabelled member shares, frame-independent membership) from
what was already decided.  A failure is reported honestly (it can
genuinely happen when the restriction map has a nontrivial kernel and the
family has two or more members, because the isomorphism families are then
underdetermined).
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from . import config
from .errors import BoundExceededError, StructureError, VerificationError
from .groups import Section, _compose_rows, _invert_row
from .records import FrozenRecord, Record
from .structures import (
    SortedMap,
    SortedStructure,
    identity_map,
    isomorphism_rows,
    isomorphisms,
    reduct,
    relabel,
    relabel_map,
)
from .ucp import Report, UniConstructionProblem, _ordinals

__all__ = [
    "LiftedCopy",
    "Family",
    "build_family",
    "MatchedTriple",
    "TripleSpace",
    "QuotientResult",
    "build_quotient",
    "UniformResult",
    "uniform_F",
    "verify_claims",
]

# names of the three properties that make E an equivalence, as reported
E_PROPERTIES = ("E_reflexive", "E_symmetric", "E_transitive")


class LiftedCopy(Record):
    """One family member: a structure, its reduct A to the kept sorts, and
    the relabelling ``relabel`` that carries the family's base structure
    onto B (the identity on the base).  Its automorphisms, section and
    transports are the base's, carried along ``relabel``."""

    __slots__ = _fields = ("tag", "B", "A", "relabel")

    def __init__(self, tag: int, B: SortedStructure, A: SortedStructure, relabel: SortedMap):
        self.tag = tag
        self.B = B
        self.A = A
        self.relabel = relabel


class Family(Record):
    """The base's assembled problem, with its weak splitting (a problem with
    no section, or a section that is not one, is refused), and lifted
    copies: the base (the first member, the problem's structure) and
    relabellings of it, checked once, by carrying every base relation along
    each member's ``relabel``."""

    __slots__ = _fields = ("problem", "members")

    def __init__(self, problem: UniConstructionProblem, members: tuple[LiftedCopy, ...]):
        self.problem = problem
        self.members = members
        if not members:
            raise StructureError("family must be nonempty")
        base = members[0].B
        if base != problem.B:
            raise StructureError("the family's base is not its problem's structure")
        if problem.psi is None or not problem.report.ok("f"):
            detail = next(d for name, _, d in problem.report.entries if name == "f")
            raise StructureError(f"supplied map is not a weak splitting: {detail}")
        if any(m.relabel.domain != base or m.relabel.codomain != m.B for m in members):
            raise StructureError("a member's relabelling does not start at the family's base")
        try:
            carried = all(relabel(base, m.relabel.maps) == m.B for m in members)
        except StructureError:  # a per-sort map is not a bijection
            carried = False
        if not carried:
            raise StructureError("family members are not pairwise isomorphic")

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


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
    problem: UniConstructionProblem, psi: Sequence[int] | Section, n: int
) -> Family:
    """n lifted copies of ``problem``'s structure B, its problem from
    :func:`~uniconstruct.ucp.assemble_ucp` or
    :func:`~uniconstruct.ucp.derive_triple`, with the weak splitting psi.

    Copy i > 0 relabels B along the i-th non-identity per-sort bijection
    family f (lexicographic).  Naturality carries everything else across:
    the copy's automorphisms are f . m . f^-1 for the base's automorphisms m,
    and its section sends f . a . f^-1 to f . psi(a) . f^-1, so a copy keeps
    only f.  :class:`Family` checks psi, on the problem's groups, and that
    f, the isomorphism onto the copy, carries every relation across.
    """
    if n < 1:
        raise StructureError("family size must be at least 1")
    B = problem.B
    if B.signature.functions or B.signature.constants:
        raise StructureError("lifted copies must be relational")
    problem = problem.with_section(psi)
    k = len(problem.A.sort_sizes)
    members = [LiftedCopy(tag=0, B=B, A=problem.A, relabel=identity_map(B))]

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
        members.append(LiftedCopy(tag=tag, B=f.codomain, A=reduct(f.codomain, range(k)), relabel=f))
    return Family(problem, tuple(members))


class MatchedTriple(FrozenRecord):
    """(pi, g, b): indices into the owning TripleSpace's row lists.

    ``pi_idx[s]`` picks the isomorphism A_s -> A; ``g_idx[t]`` picks the
    base-row structure isomorphism B_0 -> B_t (entry 0 is -1, the identity);
    ``b[s]`` is the (sort, element) thread entry in B_s.
    """

    __slots__ = _fields = ("pi_idx", "g_idx", "b")

    def __init__(self, pi_idx: tuple[int, ...], g_idx: tuple[int, ...], b: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "pi_idx", pi_idx)
        object.__setattr__(self, "g_idx", g_idx)
        object.__setattr__(self, "b", b)


class ThreadClass(FrozenRecord):
    """The triples threading one target element, ascending; ``cid`` is their
    class when they lie in one class, and ``problem`` is empty exactly when
    they are that whole class."""

    __slots__ = _fields = ("triples", "cid", "problem")

    def __init__(self, triples: tuple[int, ...], cid: int | None, problem: str):
        object.__setattr__(self, "triples", triples)
        object.__setattr__(self, "cid", cid)
        object.__setattr__(self, "problem", problem)


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
        # every isomorphism, extension and transport is a row
        # (:meth:`SortedMap.row`), and only the base is searched: member t is
        # the base relabelled along f_t, so its isomorphisms onto A are the
        # base's after f_t^-1 on the kept sorts, sorted, and base_index[t][i]
        # is the base isomorphism that iso[t][i] came from; B_0 -> B_t are
        # f_t after each automorphism row of B_0, sorted.  A triple's
        # g_idx[t] is a position in biso[t]; extend[t] lists those positions
        # by their prefix over the kept sorts, which is their restriction.
        problem = fam.problem
        width = problem.A.total_elements
        self.iso = [isomorphism_rows(problem.A, A, max_elements=max_elements)]
        self.base_index: list[Sequence[int]] = [range(len(self.iso[0]))]
        self.biso: list[list[tuple[int, ...]]] = [[]]
        self._relabel_rows: list[tuple[tuple[int, ...], tuple[int, ...]] | None] = [None]
        for member in fam.members[1:]:
            f = member.relabel.row()
            f_inv = _invert_row(f)
            carried = [_compose_rows(pi, f_inv[:width]) for pi in self.iso[0]]
            order = sorted(range(len(carried)), key=carried.__getitem__)
            self.iso.append([carried[i] for i in order])
            self.base_index.append(order)
            self.biso.append(sorted(_compose_rows(f, h) for h in problem.H.perms))
            self._relabel_rows.append((f, f_inv))
        self.iso_inv = [[_invert_row(pi) for pi in lst] for lst in self.iso]
        self.extend: list[dict[tuple[int, ...], list[int]]] = [{} for _ in self.biso]
        for rows, positions in zip(self.biso, self.extend):
            for pos, row in enumerate(rows):
                positions.setdefault(row[:width], []).append(pos)
        # thread entries are read from one list, so equal entries are one object
        self._elements = problem.B.elements()
        self._position = {entry: p for p, entry in enumerate(self._elements)}
        self._psi_tilde_cache: dict[tuple[int, int, int], tuple[int, ...]] = {}
        self.triples = self._enumerate()
        self._cocycle: bool | None = None
        self._classes: tuple[list[int], list[list[int]]] | None = None
        self._frame_threads: tuple[list[tuple[int, ...]], list[dict[int, tuple]]] | None = None
        self._class_sorts: list[int] | None = None
        self._membership: list[list[set[tuple[int, ...]]]] | None = None
        self._congruence: list[tuple[int, tuple[int, ...]]] | None = None
        self._thread_classes: list[ThreadClass] | None = None
        self._quotient: QuotientResult | None = None

    # -- enumeration ------------------------------------------------------

    def _enumerate(self) -> list[MatchedTriple]:
        bound = config.DEFAULT.matched_triples
        if any(not lst for lst in self.iso):
            return []
        elements = self._elements
        out: list[MatchedTriple] = []
        n = len(self.fam.members)

        for pi_idx in itertools.product(*(range(len(lst)) for lst in self.iso)):
            ext_choices: list[Sequence[int]] = [(-1,)]
            pi0 = self.iso[0][pi_idx[0]]
            for t in range(1, n):
                positions = self.extend[t].get(_compose_rows(self.iso_inv[t][pi_idx[t]], pi0))
                if positions is None:
                    break
                ext_choices.append(positions)
            if len(ext_choices) < n:  # some member has no extension in this frame
                continue
            for g_idx in itertools.product(*ext_choices):
                rows = [self.biso[t][g] for t, g in enumerate(g_idx) if t]
                for p, b0 in enumerate(elements):
                    out.append(MatchedTriple(pi_idx, g_idx, (b0, *(elements[row[p]] for row in rows))))
                    if len(out) > bound:
                        raise BoundExceededError(
                            f"matched-triple enumeration exceeds bound {bound}"
                        )
        return out

    # -- equivalence ------------------------------------------------------

    def psi_tilde(self, s: int, i: int, j: int) -> tuple[int, ...]:
        """psi_s applied to the inverse of pi_i^-1 . pi_j, as a row on B_s.

        Let f be member s's relabelling, f_A its restriction to the kept
        sorts, and i0, j0 the base indices of i and j, so that
        iso_s[i] = iso_0[i0] . f_A^-1 and likewise for j.  Then
        (pi_i^-1 . pi_j)^-1 = pi_j^-1 . pi_i = f_A . a . f_A^-1 with
        a = iso_0[j0]^-1 . iso_0[i0], an automorphism of the base's reduct
        looked up with no inverse taken.  Member s's section is the base's
        carried along f, psi_s(f_A . a . f_A^-1) = f . psi_0(a) . f^-1, so
        the transport is f . psi_0(a) . f^-1.
        """
        key = (s, i, j)
        cached = self._psi_tilde_cache.get(key)
        if cached is None:
            problem = self.fam.problem
            i0, j0 = self.base_index[s][i], self.base_index[s][j]
            a = problem.G.row_index[_compose_rows(self.iso_inv[0][j0], self.iso[0][i0])]
            cached = problem.H.perms[problem.psi.map[a]]
            if s:
                f, f_inv = self._relabel_rows[s]
                cached = _compose_rows(f, _compose_rows(cached, f_inv))
            self._psi_tilde_cache[key] = cached
        return cached

    def e_equiv(self, x1: MatchedTriple, x2: MatchedTriple) -> bool:
        elements, position = self._elements, self._position
        for s in range(len(self.fam.members)):
            h = self.psi_tilde(s, x1.pi_idx[s], x2.pi_idx[s])
            if x2.b[s] != elements[h[position[x1.b[s]]]]:
                return False
        return True

    def cocycle_holds(self) -> bool:
        """Whether the transports obey the cocycle law: exactly when some
        iso_s is empty (then all are, and the law is vacuous) or the
        family's psi is a splitting (each member's is psi carried along its
        relabelling).

        Write T_s(i, j) for ``psi_tilde(s, i, j)`` and a_i for the i-th
        isomorphism A_s -> A.  The law is T_s(j, l) . T_s(i, j) = T_s(i, l)
        for every member s and every i, j, l.  iso_s is a torsor under
        Aut(A_s), so T_s(i, j) = psi_s(a_j^-1 a_i), and with a = a_l^-1 a_j,
        b = a_j^-1 a_i the law reads psi_s(a) . psi_s(b) = psi_s(ab).  As
        (i, j, l) range, (a, b) covers Aut(A_s)^2: the law is psi_s's hom law
        in ``compose`` order, the order its group tables encode.
        """
        if self._cocycle is None:
            self._cocycle = not all(self.iso) or self.fam.problem.psi.is_splitting()
        return self._cocycle

    def _frame0_keys(self) -> list[tuple[int, ...]]:
        """Every triple's thread carried into frame 0, as the row position
        of T_s(pi_s, 0)(b_s) at each member s."""
        position = self._position
        to0 = [[self.psi_tilde(s, i, 0) for i in range(len(lst))] for s, lst in enumerate(self.iso)]
        return [
            tuple(to0[s][pi][position[entry]] for s, (pi, entry) in enumerate(zip(x.pi_idx, x.b)))
            for x in self.triples
        ]

    def equivalence(self) -> tuple[tuple[bool, bool, bool], str]:
        """E's (reflexive, symmetric, transitive) verdicts and how they were
        decided: read off the section, E is always reflexive and symmetric,
        and transitive exactly when :meth:`cocycle_holds`.

        Write T_s(i, j) = psi_s(a_j^-1 a_i), as in :meth:`cocycle_holds`;
        x1 E x2 when x2's b_s is T_s(x1's pi_s, x2's pi_s) of x1's b_s at
        every member s.  :class:`Family` refuses a psi that is not a weak
        splitting, and each member's is psi carried along its relabelling.

        - psi(1) = 1, so every T_s(i, i) is the identity: E is reflexive.
        - psi(a^-1) = psi(a)^-1, so T_s(j, i) inverts T_s(i, j): E is
          symmetric.
        - If the law holds, T_s(i, j) = T_s(0, j) . T_s(i, 0), so x1 E x2
          exactly when their frame-0 keys (:meth:`_frame0_keys`) agree, and
          E is transitive.
        - If the law fails, it fails at member 0 (the members' laws are one
          law, carried along the relabellings).  Pick i, j, l and a position
          e of B_0 with T_0(j, l) . T_0(i, j) . e != T_0(i, l) . e.
          - psi is a section, so the restriction Aut(B_0) -> Aut(A_0) is
            onto.  Every frame then has extensions: member t's is f_t after
            any automorphism over f_t^-1 . pi_t^-1 . pi_0 on the kept sorts.
          - A triple's partner (pi', T(pi, pi') b) is a triple in every
            frame pi'.  Its extensions are g'_t = T_t(pi_t, pi'_t) . g_t .
            T_0(pi_0, pi'_0)^-1: each carries the partner's b_0 to its b_t,
            and restricts to pi'_t^-1 pi'_0, since psi_t(a) restricts to a.
          - So take a triple x1 at (i, e): pi_0 = i and b_0 = e.  Let x2 be
            its partner in a frame at j, and x3 be x2's partner in a frame
            at l.  Then x1 E x2 E x3, but x3's b_0 is T_0(j, l) . T_0(i, j)
            . e, not T_0(i, l) . e, so not x1 E x3.
        """
        if self.cocycle_holds():
            return (True, True, True), "proved from the cocycle law: every member's psi is a splitting"
        return (True, True, False), "proved from psi: a weak splitting that is not a splitting"

    def classes(self) -> tuple[list[int], list[list[int]]]:
        """``(class_of, members)`` for E, classes numbered by first triple,
        members ascending: the fibres of the frame-0 key, built once E is
        an equivalence (:meth:`require_equivalence` refuses otherwise)."""
        if self._classes is None:
            self.require_equivalence()
            ids: dict[tuple, int] = {}
            class_of = [ids.setdefault(key, len(ids)) for key in self._frame0_keys()]
            members: list[list[int]] = [[] for _ in ids]
            for i, cid in enumerate(class_of):
                members[cid].append(i)
            self._classes = (class_of, members)
        return self._classes

    def require_equivalence(self) -> None:
        """Raise VerificationError naming each property E lacks."""
        verdicts, detail = self.equivalence()
        failing = [name for name, ok in zip(E_PROPERTIES, verdicts) if not ok]
        if failing:
            raise VerificationError(
                f"the twist relation is not an equivalence: {', '.join(failing)} fails ({detail})"
            )

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

    def membership(self) -> list[list[set[tuple[int, ...]]]]:
        """Per relation and member s, P_s: the well-sorted class tuples whose
        frame-0 threads at s lie in R_s, read off R_s's own tuples through
        the classes whose frame-0 thread at s is each entry.  In every frame,
        a class tuple's exists verdict is its membership of the union of the
        P_s and its forall verdict of their intersection.

        No frame can differ.  Classes exist only where E is an equivalence
        (:meth:`classes` refuses first), and they are the fibres of the
        frame-0 key k(x)_s = T_s(pi_s, 0) . b_s (:meth:`_frame0_keys`).
        - By the cocycle law, T_s(0, pi_s) . T_s(pi_s, 0) = T_s(pi_s, pi_s)
          = 1.  So in frame pi, a class's thread at member s is T_s(0, pi_s)
          applied to its frame-0 thread.
        - T_s(0, pi_s) is psi_s of an automorphism of A_s, so it is an
          automorphism of B_s and maps R_s onto itself.  So a class tuple's
          membership at member s is the same in every frame.
        - Hence exists and forall are constant across frames: cla4 holds
          wherever :meth:`frame_threads` does, and cla3 fails exactly at the
          class tuples in some P_s but not in every one.

        Computed once per space; :meth:`congruence`, the quotient and
        :func:`verify_claims` read it.
        """
        if self._membership is None:
            _, by_frame = self.frame_threads()
            self.class_sorts()  # refuses a class that mixes sorts
            # at[s][entry]: the classes whose frame-0 thread at member s is entry
            at: list[dict[tuple[int, int], list[int]]] = [{} for _ in self.fam.members]
            for cid, thread in (by_frame[0] if by_frame else {}).items():
                for classes, entry in zip(at, thread):
                    classes.setdefault(entry, []).append(cid)
            self._membership = [
                [
                    {
                        ct
                        for r in member.B.relations[ri]
                        for ct in itertools.product(*(classes.get(entry, ()) for entry in zip(rsig, r)))
                    }
                    for member, classes in zip(self.fam.members, at)
                ]
                for ri, (_, rsig) in enumerate(self.fam.problem.B.signature.relations)
            ]
        return self._membership

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

    def congruence(self) -> list[tuple[int, tuple[int, ...]]]:
        """``(ri, ct)`` for each class tuple on which the quotient's relation
        ri is not well defined, in relation and then ascending class-tuple
        order: ct lies in some member's P_s of :meth:`membership` but not in
        every one's (cla3).  Membership never varies by frame, so that is
        the only failure."""
        if self._congruence is None:
            self._congruence = [
                (ri, ct)
                for ri, sets in enumerate(self.membership())
                for ct in sorted(set.union(*sets) - set.intersection(*sets))
            ]
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
        k, position = len(self.A.sort_sizes), self._position
        # a kept-sort entry's row position in B_s is its position in A_s, and
        # an image's position in A is its index in ``A.elements()``
        threading: list[list[int]] = [[] for _ in range(self.A.total_elements)]
        for idx, x in enumerate(self.triples):
            if any(sort >= k for sort, _ in x.b):
                continue
            images = {self.iso[s][pi][position[entry]] for s, (pi, entry) in enumerate(zip(x.pi_idx, x.b))}
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


# ---------------------------------------------------------------------------
# Quotient and the uniform construction

class QuotientResult(Record):
    __slots__ = _fields = ("structure", "class_label")

    def __init__(self, structure: SortedStructure, class_label: list[tuple[int, int]]):
        self.structure = structure
        self.class_label = class_label  # class id -> (sort, element)


def build_quotient(space: TripleSpace) -> QuotientResult:
    """The quotient structure of the space's triples by the twist equivalence.

    Refuses a twist relation that is not an equivalence, a class that mixes
    sorts (:meth:`TripleSpace.class_sorts`), and the first failure
    :meth:`TripleSpace.congruence` finds: exists/forall disagreement across
    family members.  Failures raise, since they are theorems for coherent
    families.  The result is cached on the space.
    """
    if space._quotient is not None:
        return space._quotient
    if not space.triples:
        raise StructureError("no matched triples: target is not isomorphic to the family")
    space.require_equivalence()
    sort_of_class = space.class_sorts()
    relations = space.fam.members[0].B.signature.relations
    agree = space.congruence()
    if agree:
        raise VerificationError(
            f"relation {relations[agree[0][0]][0]!r}: exists/forall agreement fails across members"
        )

    # canonical labels per sort
    labels: list[tuple[int, int]] = []
    counters = [0] * len(space.fam.members[0].B.sort_sizes)
    for s in sort_of_class:
        labels.append((s, counters[s]))
        counters[s] += 1

    quot_rels = [
        {tuple(labels[c][1] for c in ct) for ct in set.union(*sets)} for sets in space.membership()
    ]
    structure = SortedStructure(
        space.fam.members[0].B.signature, tuple(counters), quot_rels, (), ()
    )
    space._quotient = QuotientResult(structure=structure, class_label=labels)
    return space._quotient


class UniformResult(Record):
    __slots__ = _fields = ("structure", "quotient")

    def __init__(self, structure: SortedStructure, quotient: QuotientResult):
        self.structure = structure
        self.quotient = quotient


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
    :meth:`TripleSpace.equivalence`, proved from the section: E_transitive
    fails exactly when psi is not a splitting, and then the report stops
    there, before any class is built.  The cla3 claim reads
    :meth:`TripleSpace.congruence`, which :func:`build_quotient` refuses on;
    cla4 is proved from the frame threads (:meth:`TripleSpace.membership`).
    """
    fam, A = space.fam, space.A
    report = Report("claim")
    report.add(
        "family_nonempty_weak_liftings",
        fam.problem.psi.is_weak_splitting(),
        f"{len(fam)} members",
    )

    # each member is the base relabelled (Family checks it), so all share the
    # base's copies: its prod(n_s!) relabellings fall in classes of |Aut B|
    base = fam.members[0]
    n_copies = math.prod(math.factorial(n) for n in base.B.sort_sizes) // fam.problem.H.order
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

    verdicts, detail = space.equivalence()
    for name, ok in zip(E_PROPERTIES, verdicts):
        report.add(name, ok, detail)
    if not all(verdicts):
        return report
    _, members = space.classes()

    try:
        frames, _ = space.frame_threads()
        frames_ok, frames_detail = True, f"{len(frames)} frames, one thread per class in each"
    except VerificationError as exc:
        frames_ok, frames_detail = False, str(exc)
    report.add("classes_have_unique_frame_threads", frames_ok, frames_detail)

    agree = space.congruence() if frames_ok else []
    names = [name for name, _ in base.B.signature.relations]
    report.add(
        "cla3_exists_forall_agreement",
        frames_ok and not agree,
        "; ".join(f"{names[ri]}{ct}" for ri, ct in agree[:4]),
    )
    # proved wherever the frame threads are unique (TripleSpace.membership)
    report.add("cla4_congruence_frame_independent", frames_ok, "")

    quot = build_quotient(space) if frames_ok and not agree else None
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
