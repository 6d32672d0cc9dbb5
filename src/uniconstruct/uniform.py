"""Uniform reconstruction of a many-sorted structure over its leading sorts.

Given a family (one assembled problem, whose restriction map onto the
automorphisms of the reduct to the first k sorts, its kept sorts, has a
weak splitting, and relabelled copies of its structure) and a target A on
those k sorts, the pipeline reads the matched triples (an iso tuple onto A,
a coherent family of structure isomorphisms extending the induced maps on
the kept sorts, and a compatible element thread) off one frame, quotients
them by the lifting-twisted equivalence, and reads off a copy of the
original structure whose kept sorts are A itself, element for element.

k is read off the problem the family is built on: 1 for ``assemble_ucp``'s,
1 or 2 for ``derive_triple``'s, so F12, F23 and F13 of one tower run here.

A :class:`TripleSpace`, built once per call from a family and a target, is
the layer's one handle: :func:`verify_claims`, :func:`build_quotient` and
:func:`uniform_F` take it.  It holds only the triples of frame 0, the frame
where every isomorphism onto A is the first, and every fact is read off
them by proof: |X| (every frame holds as many triples), E (read off the
section: always reflexive and symmetric, and transitive exactly when psi is
a splitting), the classes (the fibres of the thread), each relation's
membership (once per member, since no frame differs), the kept-sort classes
(one per target element), and the congruence failures.  The quotient and
``uniform_F`` refuse an E that is not an equivalence, naming what it lacks.

:func:`verify_claims` reports every intermediate fact the construction
leans on, reading the ones that hold by proof from what was already
decided.  A failure is reported honestly: a psi that is not a splitting
fails E_transitive (:meth:`TripleSpace.equivalence`), and a family of two or
more members over a nontrivial kernel fails rho's injectivity, because its
isomorphism families are then underdetermined (:func:`verify_claims`).
"""

from __future__ import annotations

import heapq
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
    """(pi, g, b), named by group elements of the owning TripleSpace.

    ``pi_idx[s]`` names the frame's isomorphism A_s -> A by an element a of
    G = Aut(A_0): it is first[s] . f_s a f_s^-1 (:class:`TripleSpace`), so
    0, the identity, names first[s]; ``g_idx[t]`` names the element h of H
    whose row f_t . h is the structure isomorphism B_0 -> B_t (entry 0 is
    -1, the identity); ``b[s]`` is the (sort, element) thread entry in B_s.
    """

    __slots__ = _fields = ("pi_idx", "g_idx", "b")

    def __init__(self, pi_idx: tuple[int, ...], g_idx: tuple[int, ...], b: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "pi_idx", pi_idx)
        object.__setattr__(self, "g_idx", g_idx)
        object.__setattr__(self, "b", b)


class TripleSpace:
    """The matched triples over a family and a target, held as the triples
    of frame 0, and every fact decided on them.  ``max_elements`` bounds
    each isomorphism search made for the space, the result checks of
    :func:`verify_claims` and :func:`uniform_F` included.

    Notation: members s = 0 ... n-1, member s the base relabelled along f_s
    (f_0 the identity); a frame pi picks pi_s in iso_s, the isomorphisms
    A_s -> A.  iso_s is a torsor under Aut(A_s) = f_s G f_s^-1, so a frame
    is named by one element a_s of G per member, pi_s = first[s] . f_s a_s
    f_s^-1, and |iso_s| = |G| (or 0).  first[s] is the least row of iso_s,
    and frame 0, the identity at every member, picks it.  ext_t(pi) is the
    set of isomorphisms B_0 -> B_t restricting to pi_t^-1 pi_0 on the kept
    sorts; a triple (pi, g, b) has each g_t in ext_t(pi) and b_t = g_t(b_0).
    K is the kernel of Aut B -> Aut A, so |K| = |H| / |G|.  T_s(i, j) =
    psi_s(pi_j^-1 pi_i) is the transport between frames i and j at member s
    (:meth:`psi_tilde`); it restricts to pi_j^-1 pi_i, because phi psi = 1.

    (a) Every frame holds as many triples as frame 0.  psi is a section
        (:class:`Family` refuses any other map), so restriction is onto, and
        each ext_t(pi) is a nonempty coset of K.  g -> T_t(pi_t, 0) . g .
        T_0(0, pi_0) maps ext_t(pi) one-to-one onto ext_t(0): the image
        restricts to first[t]^-1 pi_t . pi_t^-1 pi_0 . pi_0^-1 first[0], and
        both sets have |K| elements.  So |X| = |G|^n times the number of
        frame-0 triples (:meth:`size`), and the space holds one isomorphism
        and one coset of K per member.  Only one isomorphism is searched,
        first[0]: first[t] is the least of first[0] . a . f_t^-1 over a in
        G, at a = a*, so ext_t(0), the rows restricting to f_t a*^-1, is
        f_t . h for h in the fibre of the restriction over a*^-1.  Only
        frame 0's triples are built, in the order of the all-frame
        enumeration, which lists frame 0 first, and
        ``config.matched_triples`` caps their number.
    """

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
        # (:meth:`SortedMap.row`); first[s] is member s's first isomorphism
        # onto A, and only the base's is searched
        problem = fam.problem
        self._relabel_rows = [None] + [(f, _invert_row(f)) for f in (m.relabel.row() for m in fam.members[1:])]
        # thread entries are read from one list, so equal entries are one object
        self._elements = problem.B.elements()
        self._position = {entry: p for p, entry in enumerate(self._elements)}
        self.first = isomorphism_rows(problem.A, A, max_elements=max_elements, limit=1)
        self.triples = self._frame0() if self.first else []
        self._cocycle: bool | None = None
        self._classes: tuple[list[int], list[list[int]]] | None = None
        self._threads: list[tuple[tuple[int, int], ...]] = []
        self._membership: list[list[set[tuple[int, ...]]]] | None = None
        self._congruence: list[tuple[int, tuple[int, ...]]] | None = None
        self._quotient: QuotientResult | None = None

    # -- enumeration ------------------------------------------------------

    def _frame0(self) -> list[MatchedTriple]:
        """The triples of frame 0: every extension choice, then every b_0.
        Each member's first isomorphism joins ``first`` on the way, and its
        extensions are f_t . h over the fibre at a*^-1 of (a), by row."""
        problem, elements = self.fam.problem, self._elements
        G, H, width = problem.G, problem.H, problem.A.total_elements
        ext_choices: list[list[tuple[tuple[int, ...] | None, int]]] = [[(None, -1)]]
        for f, f_inv in self._relabel_rows[1:]:
            row, a = min(
                (_compose_rows(self.first[0], _compose_rows(m, f_inv[:width])), i) for i, m in enumerate(G.perms)
            )
            self.first.append(row)
            a_inv = G.row_index[_invert_row(G.perms[a])]
            fibre = (h for h, g in enumerate(problem.restriction) if g == a_inv)
            ext_choices.append(sorted((_compose_rows(f, H.perms[h]), h) for h in fibre))
        bound = config.DEFAULT.matched_triples
        if math.prod(map(len, ext_choices)) * len(elements) > bound:
            raise BoundExceededError(f"matched-triple enumeration exceeds bound {bound}")
        frame, out = (0,) * len(ext_choices), []
        for choice in itertools.product(*ext_choices):
            g_idx, rows = tuple(h for _, h in choice), [row for row, _ in choice[1:]]
            for p, b0 in enumerate(elements):
                out.append(MatchedTriple(frame, g_idx, (b0, *(elements[row[p]] for row in rows))))
        return out

    def size(self) -> int:
        """|X|, the number of matched triples over all frames, by (a)."""
        return self.fam.problem.G.order ** len(self.fam.members) * len(self.triples)

    # -- equivalence ------------------------------------------------------

    def psi_tilde(self, s: int, i: int, j: int) -> tuple[int, ...]:
        """T_s(i, j), psi_s applied to pi_j^-1 . pi_i, as a row on B_s, for
        the frames at member s named by the elements i and j of G.

        With f member s's relabelling and f_A its restriction to the kept
        sorts, pi_i = first[s] . f_A a_i f_A^-1, so pi_j^-1 . pi_i =
        f_A . a_j^-1 a_i . f_A^-1.  Member s's section is the base's carried
        along f, psi_s(f_A . a . f_A^-1) = f . psi_0(a) . f^-1, so the
        transport is f . psi_0(a_j^-1 a_i) . f^-1: at member 0, the base
        problem's own row.
        """
        problem, G = self.fam.problem, self.fam.problem.G
        row = problem.H.perms[problem.psi.map[G.mul(G.inverses()[j], i)]]
        if s:
            f, f_inv = self._relabel_rows[s]
            row = _compose_rows(f, _compose_rows(row, f_inv))
        return row

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

        Write T_s(i, j) for ``psi_tilde(s, i, j)`` and c_i for f_s a_i
        f_s^-1, frame i's element of Aut(A_s).  The law is T_s(j, l) .
        T_s(i, j) = T_s(i, l) for every member s and every i, j, l.  T_s(i,
        j) = psi_s(c_j^-1 c_i), and with a = c_l^-1 c_j, b = c_j^-1 c_i the
        law reads psi_s(a) . psi_s(b) = psi_s(ab).  As
        (i, j, l) range, (a, b) covers Aut(A_s)^2: the law is psi_s's hom law
        in ``compose`` order, the order its group tables encode.
        """
        if self._cocycle is None:
            self._cocycle = not self.first or self.fam.problem.psi.is_splitting()
        return self._cocycle

    def equivalence(self) -> tuple[tuple[bool, bool, bool], str]:
        """E's (reflexive, symmetric, transitive) verdicts and how they were
        decided: read off the section, E is always reflexive and symmetric,
        and transitive exactly when :meth:`cocycle_holds`.

        x1 E x2 when x2's b_s is T_s(x1's pi_s, x2's pi_s) of x1's b_s at
        every member s (notation as in the class docstring).
        :class:`Family` refuses a psi that is not a weak splitting, and each
        member's is psi carried along its relabelling.

        - psi(1) = 1, so every T_s(i, i) is the identity: E is reflexive.
        - psi(a^-1) = psi(a)^-1, so T_s(j, i) inverts T_s(i, j): E is
          symmetric.
        - If the law holds, T_s(i, j) = T_s(0, j) . T_s(i, 0), so x1 E x2
          exactly when their frame-0 keys k_s = T_s(pi_s, 0) . b_s agree,
          and E is transitive.
        - If the law fails, it fails at member 0 (the members' laws are one
          law, carried along the relabellings).  Pick i, j, l and a position
          e of B_0 with T_0(j, l) . T_0(i, j) . e != T_0(i, l) . e.
          - Every frame has triples, by (a) of the class docstring.
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
        """``(class_of, members)`` for E on the frame-0 triples, classes
        numbered by first triple, members ascending: the fibres of b, built
        once E is an equivalence (:meth:`require_equivalence` refuses
        otherwise).

        (b) Classes are the fibres of b among the frame-0 triples: where the
            law holds, classes are the fibres of the frame-0 key k_s =
            T_s(pi_s, 0) . b_s (:meth:`equivalence`), and in frame 0,
            T_s(0, 0) = psi_s(1) is the identity, so the key is b itself.
        (c) Every class meets every frame pi in exactly one thread, b_s =
            T_s(0, pi_s) . k_s.  A triple with that thread exists: the map
            of (a) carries the frame-0 triple with b = k to it.  It is the
            only thread, because each T is a bijection.  So
            ``classes_have_unique_frame_threads`` always holds, and since
            frame 0 comes first among the frames, numbering classes by their
            first frame-0 triple numbers them by their first triple in X.
        """
        if self._classes is None:
            self.require_equivalence()
            ids: dict[tuple, int] = {}
            class_of = [ids.setdefault(x.b, len(ids)) for x in self.triples]
            members: list[list[int]] = [[] for _ in ids]
            for i, cid in enumerate(class_of):
                members[cid].append(i)
            self._threads = list(ids)
            self._classes = (class_of, members)
        return self._classes

    def threads(self) -> list[tuple[tuple[int, int], ...]]:
        """Each class's frame-0 thread, which is its key, by class id; a
        class's sort is its thread's sort (E carries each entry along a
        sorted map)."""
        self.classes()
        return self._threads

    def require_equivalence(self) -> None:
        """Raise VerificationError naming each property E lacks."""
        verdicts, detail = self.equivalence()
        failing = [name for name, ok in zip(E_PROPERTIES, verdicts) if not ok]
        if failing:
            raise VerificationError(
                f"the twist relation is not an equivalence: {', '.join(failing)} fails ({detail})"
            )

    def membership(self) -> list[list[set[tuple[int, ...]]]]:
        """Per relation and member s, P_s: the well-sorted class tuples whose
        frame-0 threads at s lie in R_s, read off R_s's own tuples through
        the classes whose frame-0 thread at s is each entry.  In every frame,
        a class tuple's exists verdict is its membership of the union of the
        P_s and its forall verdict of their intersection.

        No frame can differ.  By (c) of :meth:`classes`, a class's thread at
        member s in frame pi is T_s(0, pi_s) applied to its frame-0 thread.
        T_s(0, pi_s) is psi_s of an automorphism of A_s, so it is an
        automorphism of B_s and maps R_s onto itself.  So a class tuple's
        membership at member s is the same in every frame: exists and forall
        are constant across frames, cla4 holds, and cla3 fails exactly at
        the class tuples in some P_s but not in every one.

        Computed once per space; :meth:`congruence`, the quotient and
        :func:`verify_claims` read it.
        """
        if self._membership is None:
            # at[s][entry]: the classes whose frame-0 thread at member s is entry
            at: list[dict[tuple[int, int], list[int]]] = [{} for _ in self.fam.members]
            for cid, thread in enumerate(self.threads()):
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

    def congruence(self) -> list[tuple[int, tuple[int, ...]]]:
        """The first four ``(ri, ct)`` on which the quotient's relation ri is
        not well defined, in relation and then ascending class-tuple order:
        ct lies in some member's P_s of :meth:`membership` but not in every
        one's (cla3).  Membership never varies by frame, so that is the
        only failure.  :func:`verify_claims` shows these four and
        :func:`build_quotient` names the first."""
        if self._congruence is None:
            found: list[tuple[int, tuple[int, ...]]] = []
            for ri, sets in enumerate(self.membership()):
                if len(found) == 4:
                    break
                broken = set.union(*sets) - set.intersection(*sets)
                found += [(ri, ct) for ct in heapq.nsmallest(4 - len(found), broken)]
            self._congruence = found
        return self._congruence


# ---------------------------------------------------------------------------
# Quotient and the uniform construction

class QuotientResult(Record):
    __slots__ = _fields = ("structure", "class_label")

    def __init__(self, structure: SortedStructure, class_label: list[tuple[int, int]]):
        self.structure = structure
        self.class_label = class_label  # class id -> (sort, element)


def build_quotient(space: TripleSpace) -> QuotientResult:
    """The quotient structure of the space's triples by the twist equivalence.

    Refuses a twist relation that is not an equivalence and the first
    failure :meth:`TripleSpace.congruence` finds: exists/forall disagreement
    across family members.  Failures raise, since they are theorems for
    coherent families.  The result is cached on the space.
    """
    if space._quotient is not None:
        return space._quotient
    if not space.size():
        raise StructureError("no matched triples: target is not isomorphic to the family")
    space.require_equivalence()
    threads = space.threads()
    relations = space.fam.members[0].B.signature.relations
    agree = space.congruence()
    if agree:
        raise VerificationError(
            f"relation {relations[agree[0][0]][0]!r}: exists/forall agreement fails across members"
        )

    # canonical labels per sort
    labels: list[tuple[int, int]] = []
    counters = [0] * len(space.fam.members[0].B.sort_sizes)
    for s, _ in (thread[0] for thread in threads):
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
    relabelled by the element of A it threads.

    (d) Kept-sort classes are one per target element.  A triple in frame pi
        threads a (every b_s lies in a kept sort and pi_s sends it to a)
        exactly when its key is (first[s]^-1(a))_s, since T_s(pi_s, 0)
        restricts to first[s]^-1 pi_s.  That key is a class: the frame-0
        triple with b_0 = first[0]^-1(a) has b_t = first[t]^-1(a), since
        g_t restricts to first[t]^-1 first[0].  Every kept-sort class is
        one of these (take a = first[0](b_0)), and distinct elements have
        distinct keys.  So ``cla5_k_classes`` always holds, and a's class
        is found by that key.

    Postconditions are always re-checked: the reduct to the kept sorts must
    equal A element for element, and the result must be isomorphic to the
    family members.
    """
    A, base = space.A, space.fam.members[0]
    quot = build_quotient(space)
    k = len(A.sort_sizes)
    class_of_thread = {thread: cid for cid, thread in enumerate(space.threads())}
    # element_of[s][label]: the element whose class carries that label of kept sort s
    element_of = [[0] * n for n in A.sort_sizes]
    inverses = [_invert_row(pi) for pi in space.first]
    for a, (_, e) in enumerate(A.elements()):
        thread = tuple(space._elements[inv[a]] for inv in inverses)
        s, label = quot.class_label[class_of_thread[thread]]
        element_of[s][label] = e

    structure = relabel(quot.structure, (*element_of, *map(range, quot.structure.sort_sizes[k:])))
    if reduct(structure, range(k)) != A:
        raise VerificationError(f"{_ordinals(range(k))}-sort reduct of the result does not equal the target")
    if not isomorphisms(structure, base.B, max_elements=space.max_elements, limit=1):
        raise VerificationError("result is not isomorphic to the family structure")
    return UniformResult(structure=structure, quotient=quot)


# ---------------------------------------------------------------------------
# Claims verification

def verify_claims(space: TripleSpace) -> Report:
    """Report every intermediate fact of the uniform construction over the
    matched-triple space.

    The copy-set claim reads the members' relabellings, and its count is
    prod(n_s!) / |Aut B|.  |X| is (a) of :class:`TripleSpace`.  The three E
    claims read :meth:`TripleSpace.equivalence`, proved from the section:
    E_transitive fails exactly when psi is not a splitting, and then the
    report stops there, before any class is built.  The cla3 claim reads
    :meth:`TripleSpace.congruence`, which :func:`build_quotient` refuses
    on.  Five claims hold by proof and are reported as passing: the unique
    frame threads, (c) of :meth:`TripleSpace.classes`; cla4, proved in
    :meth:`TripleSpace.membership`; cla5_k_classes, (d) of
    :func:`uniform_F`; and the two below.

    (e) rho is constant on classes, and Y meets every class.  Y is the
        triples with pi_0 = first[0].  A triple of Y in class k has b_0 =
        T_0(0, 0)^-1 . k_0 = k_0, so rho, which reads b_0 on Y, is k_0 on
        the class.  By (c) the class meets every frame, so it meets Y.

    rho is injective exactly when n = 1 or K = 1 (|H| = |G|), so
    cla6_rho_injective_across_classes, which stays computed, fails on every
    family of two or more members over a nontrivial kernel.  At n = 1 a
    class is its one-entry thread (c) by (b), so rho is injective.  For
    n >= 2 the frame-0 threads with b_0 = c are (c, h_1 c, ..., h_{n-1} c)
    for h_t over ext_t(0), a coset g_t K, and they are distinct classes by
    (b).  So one class has b_0 = c exactly when g_t k c = g_t c for every k
    in K, that is when K fixes c; rho is injective exactly when K fixes all
    of B_0, which means K = 1.
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

    size = space.size()
    report.add("triple_space_nonempty", size > 0, f"|X|={size}")
    if size == 0:
        return report

    verdicts, detail = space.equivalence()
    for name, ok in zip(E_PROPERTIES, verdicts):
        report.add(name, ok, detail)
    if not all(verdicts):
        return report
    threads = space.threads()

    frames = fam.problem.G.order ** len(fam)
    report.add("classes_have_unique_frame_threads", True, f"{frames} frames, one thread per class in each")
    agree = space.congruence()
    names = [name for name, _ in base.B.signature.relations]
    report.add(
        "cla3_exists_forall_agreement",
        not agree,
        "; ".join(f"{names[ri]}{ct}" for ri, ct in agree),
    )
    report.add("cla4_congruence_frame_independent", True, "")

    quot = None if agree else build_quotient(space)
    report.add("quotient_constructible", quot is not None, "")
    report.add("cla5_k_classes", True, "")

    k, n_sorts = len(A.sort_sizes), len(base.B.sort_sizes)
    n_rest = sum(1 for thread in threads if thread[0][0] >= k)
    report.add(
        "cla5_class_count",
        len(threads) == A.total_elements + n_rest,
        f"{len(threads)} classes = {A.total_elements} {_ordinals(range(k))}-sort + "
        f"{n_rest} {_ordinals(range(k, n_sorts))}-sort",
    )

    report.add("cla6_rho_constant_on_classes", True)
    report.add("cla6_y_meets_every_class", True)
    rho = [thread[0] for thread in threads]
    rho_injective = len(set(rho)) == len(rho)
    report.add("cla6_rho_injective_across_classes", rho_injective)

    if quot is not None:
        iso_found = bool(isomorphisms(quot.structure, base.B, max_elements=space.max_elements, limit=1))
        report.add(
            "cla6_quotient_isomorphic_to_member",
            iso_found and quot.structure.sort_sizes == base.B.sort_sizes,
            f"quotient sorts {quot.structure.sort_sizes} vs member {base.B.sort_sizes}",
        )
        witness_ok = rho_injective and _rho_witness_is_isomorphism(quot.structure, quot.class_label, rho, base.B)
        report.add(
            "cla6_explicit_rho_witness",
            witness_ok,
            "class -> slice-representative thread value is an isomorphism",
        )
    else:
        report.add("cla6_quotient_isomorphic_to_member", False, "congruence failed")
        report.add("cla6_explicit_rho_witness", False, "congruence failed")
    return report


def _rho_witness_is_isomorphism(quot_structure, class_label, rho, target) -> bool:
    """Check the explicit map (quotient label -> thread value) directly."""
    maps = [[-1] * n for n in quot_structure.sort_sizes]
    for (s, label), (_, value) in zip(class_label, rho):
        maps[s][label] = value
    try:
        return relabel(quot_structure, maps) == target
    except StructureError:  # a per-sort map is not a bijection
        return False
