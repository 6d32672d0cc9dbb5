"""Finite multi-sorted structures and exact isomorphism search.

Elements of each sort are dense 0-based indices, so "two structures on the
same universe" simply means equal ``sort_sizes``.  All values are immutable
after construction; search results come back in a canonical deterministic
order (lexicographic on the concatenated per-sort image sequences) so reports
and fixtures stay diffable.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from operator import add, itemgetter
from typing import Iterable, Mapping, Sequence

from . import config
from .errors import (
    CongruenceError,
    SignatureMismatchError,
    StructureError,
)
from .jsondoc import is_int, is_int_list

__all__ = [
    "SortedSignature",
    "SortedStructure",
    "SortedMap",
    "validate",
    "reduct",
    "restrict_signature",
    "automorphisms",
    "isomorphisms",
    "isomorphism_rows",
    "identity_map",
    "relabel",
    "quotient",
    "structure_to_json",
    "structure_from_json",
    "dumps",
    "loads",
]


@dataclass(frozen=True)
class SortedSignature:
    """Symbol table of a finite n-sorted vocabulary.

    Relation entries are ``(name, argument sorts)``, function entries are
    ``(name, argument sorts, target sort)`` and constant entries ``(name,
    sort)``.  Symbol names must be unique across all three kinds.
    """

    sort_names: tuple[str, ...]
    relations: tuple[tuple[str, tuple[int, ...]], ...] = ()
    functions: tuple[tuple[str, tuple[int, ...], int], ...] = ()
    constants: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if len(self.sort_names) == 0:
            raise StructureError("signature needs at least one sort")
        n = len(self.sort_names)
        names = []
        for name, sig in self.relations:
            names.append(name)
            if any(i < 0 or i >= n for i in sig):
                raise StructureError(f"relation {name!r}: sort index out of range")
        for name, sig, target in self.functions:
            names.append(name)
            if any(i < 0 or i >= n for i in sig) or target < 0 or target >= n:
                raise StructureError(f"function {name!r}: sort index out of range")
        for name, sort in self.constants:
            names.append(name)
            if sort < 0 or sort >= n:
                raise StructureError(f"constant {name!r}: sort index out of range")
        if len(set(names)) != len(names):
            raise StructureError("symbol names must be unique across all kinds")
        if len(set(self.sort_names)) != len(self.sort_names):
            raise StructureError("sort names must be unique")

    @property
    def n_sorts(self) -> int:
        return len(self.sort_names)


class SortedStructure:
    """A finite model for a :class:`SortedSignature`.

    ``relations[i]`` is a frozenset of index tuples, ``functions[i]`` maps
    argument tuples to values (possibly partial until :func:`validate` is
    consulted) and ``constants[i]`` is an element index.  Instances are
    immutable and hashable.
    """

    __slots__ = ("signature", "sort_sizes", "relations", "functions", "constants", "_key")

    def __init__(
        self,
        signature: SortedSignature,
        sort_sizes: Sequence[int],
        relations: Sequence[Iterable[Sequence[int]]] = (),
        functions: Sequence[Mapping[tuple[int, ...], int]] = (),
        constants: Sequence[int] = (),
    ):
        if len(sort_sizes) != signature.n_sorts:
            raise StructureError("sort_sizes length does not match signature")
        if any(s < 0 for s in sort_sizes):
            raise StructureError("sort sizes must be non-negative")
        rel_in = list(relations)
        fn_in = list(functions)
        const_in = list(constants)
        if len(rel_in) != len(signature.relations):
            raise StructureError("relation interpretation count mismatch")
        if len(fn_in) != len(signature.functions):
            raise StructureError("function interpretation count mismatch")
        if len(const_in) != len(signature.constants):
            raise StructureError("constant interpretation count mismatch")
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "sort_sizes", tuple(int(s) for s in sort_sizes))
        object.__setattr__(
            self,
            "relations",
            tuple(frozenset(tuple(int(x) for x in t) for t in rel) for rel in rel_in),
        )
        object.__setattr__(
            self,
            "functions",
            tuple(
                {tuple(int(x) for x in args): int(v) for args, v in table.items()}
                for table in fn_in
            ),
        )
        object.__setattr__(self, "constants", tuple(int(c) for c in const_in))
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):  # pragma: no cover - guards misuse
        raise AttributeError("SortedStructure is immutable")

    @property
    def total_elements(self) -> int:
        return sum(self.sort_sizes)

    def elements(self) -> list[tuple[int, int]]:
        """All (sort, element) pairs in canonical order."""
        return [(s, e) for s in range(len(self.sort_sizes)) for e in range(self.sort_sizes[s])]

    def canonical_key(self):
        key = object.__getattribute__(self, "_key")
        if key is None:
            key = (
                self.signature,
                self.sort_sizes,
                tuple(tuple(sorted(rel)) for rel in self.relations),
                tuple(tuple(sorted(table.items())) for table in self.functions),
                self.constants,
            )
            object.__setattr__(self, "_key", key)
        return key

    def __eq__(self, other):
        if not isinstance(other, SortedStructure):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return (
            f"SortedStructure(sorts={list(self.sort_sizes)}, "
            f"rel={[name for name, _ in self.signature.relations]}, "
            f"fn={[name for name, _, _ in self.signature.functions]})"
        )

    def check_valid(self):
        """Raise StructureError if any type invariant fails."""
        violations = validate(self)
        if violations:
            raise StructureError("invalid structure", violations)


class SortedMap:
    """A per-sort family of total maps between two structures.

    Used for homomorphisms, isomorphisms and automorphisms; composition is
    standard right-to-left function composition.
    """

    __slots__ = ("domain", "codomain", "maps")

    def __init__(self, domain: SortedStructure, codomain: SortedStructure, maps: Sequence[Sequence[int]]):
        if len(maps) != len(domain.sort_sizes):
            raise StructureError("per-sort map count mismatch")
        self.domain = domain
        self.codomain = codomain
        self.maps = tuple(tuple(int(v) for v in m) for m in maps)
        for s, m in enumerate(self.maps):
            if len(m) != domain.sort_sizes[s]:
                raise StructureError(f"map for sort {s} is not total")
            if any(v < 0 or v >= codomain.sort_sizes[s] for v in m):
                raise StructureError(f"map for sort {s} has out-of-range values")

    def apply_pair(self, pair: tuple[int, int]) -> tuple[int, int]:
        s, e = pair
        return (s, self.maps[s][e])

    def is_bijective(self) -> bool:
        return all(
            len(set(m)) == self.codomain.sort_sizes[s] == len(m)
            for s, m in enumerate(self.maps)
        ) and self.domain.sort_sizes == self.codomain.sort_sizes

    def compose(self, first: "SortedMap") -> "SortedMap":
        """self after first (apply ``first``, then ``self``)."""
        if first.codomain.sort_sizes != self.domain.sort_sizes:
            raise StructureError("composition sort sizes do not match")
        maps = tuple(
            tuple(self.maps[s][v] for v in first.maps[s]) for s in range(len(self.maps))
        )
        return SortedMap(first.domain, self.codomain, maps)

    def inverse(self) -> "SortedMap":
        if not self.is_bijective():
            raise StructureError("cannot invert a non-bijective map")
        inv = []
        for s, m in enumerate(self.maps):
            out = [0] * len(m)
            for e, v in enumerate(m):
                out[v] = e
            inv.append(tuple(out))
        return SortedMap(self.codomain, self.domain, tuple(inv))

    def row(self) -> tuple[int, ...]:
        """The per-sort images concatenated, each offset by its sort's start:
        entry p is where ``domain.elements()[p]`` goes in ``codomain.elements()``."""
        starts = _starts(self.domain.sort_sizes)
        return tuple(v + start for images, start in zip(self.maps, starts) for v in images)

    @classmethod
    def from_row(cls, domain: SortedStructure, codomain: SortedStructure, row: Sequence[int]):
        """The map whose :meth:`row` is ``row``."""
        starts = _starts(domain.sort_sizes)
        return cls(domain, codomain, [[v - a for v in row[a:b]] for a, b in zip(starts, starts[1:])])

    def __eq__(self, other):
        if not isinstance(other, SortedMap):
            return NotImplemented
        return (
            self.maps == other.maps
            and self.domain.canonical_key() == other.domain.canonical_key()
            and self.codomain.canonical_key() == other.codomain.canonical_key()
        )

    def __hash__(self):
        return hash(self.maps)

    def __repr__(self):
        return f"SortedMap({self.maps})"


def identity_map(s: SortedStructure) -> SortedMap:
    return SortedMap(s, s, tuple(tuple(range(n)) for n in s.sort_sizes))


def validate(s: SortedStructure) -> list[str]:
    """Check all type invariants; violations are returned, not raised."""
    out: list[str] = []
    sig = s.signature
    for i, size in enumerate(s.sort_sizes):
        if size < 1:
            out.append(f"sort {sig.sort_names[i]!r}: universe is empty")
    for (name, rsig), rel in zip(sig.relations, s.relations):
        for t in rel:
            if len(t) != len(rsig):
                out.append(f"relation {name!r}: tuple {t} has wrong arity")
            elif any(x < 0 or x >= s.sort_sizes[rsig[i]] for i, x in enumerate(t)):
                out.append(f"relation {name!r}: tuple {t} out of range")
    for (name, fsig, target), table in zip(sig.functions, s.functions):
        domain = 1
        for i in fsig:
            domain *= s.sort_sizes[i]
        seen = 0
        for args, v in table.items():
            if len(args) != len(fsig):
                out.append(f"function {name!r}: entry {args} has wrong arity")
                continue
            if any(x < 0 or x >= s.sort_sizes[fsig[i]] for i, x in enumerate(args)):
                out.append(f"function {name!r}: entry {args} out of range")
                continue
            seen += 1
            if v < 0 or v >= s.sort_sizes[target]:
                out.append(f"function {name!r}: value {v} at {args} out of range")
        if seen < domain:
            out.append(f"function {name!r}: function not total")
    for (name, sort), c in zip(sig.constants, s.constants):
        if c < 0 or c >= s.sort_sizes[sort]:
            out.append(f"constant {name!r}: value {c} out of range")
    return out


def reduct(s: SortedStructure, keep: Iterable[int]) -> SortedStructure:
    """Restrict to the given sorts, dropping every symbol that leaves them."""
    keep_list = sorted(set(int(k) for k in keep))
    if not keep_list:
        raise StructureError("reduct: keep set is empty")
    if any(k < 0 or k >= s.signature.n_sorts for k in keep_list):
        raise StructureError("reduct: keep set out of range")
    new_of_old = {old: new for new, old in enumerate(keep_list)}
    kept = set(keep_list)

    rel_syms, rels = [], []
    for (name, rsig), rel in zip(s.signature.relations, s.relations):
        if all(i in kept for i in rsig):
            rel_syms.append((name, tuple(new_of_old[i] for i in rsig)))
            rels.append(rel)
    fn_syms, fns = [], []
    for (name, fsig, target), table in zip(s.signature.functions, s.functions):
        if all(i in kept for i in fsig) and target in kept:
            fn_syms.append((name, tuple(new_of_old[i] for i in fsig), new_of_old[target]))
            fns.append(table)
    const_syms, consts = [], []
    for (name, sort), c in zip(s.signature.constants, s.constants):
        if sort in kept:
            const_syms.append((name, new_of_old[sort]))
            consts.append(c)

    sig = SortedSignature(
        tuple(s.signature.sort_names[k] for k in keep_list),
        tuple(rel_syms),
        tuple(fn_syms),
        tuple(const_syms),
    )
    return SortedStructure(
        sig, tuple(s.sort_sizes[k] for k in keep_list), rels, fns, consts
    )


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


def _starts(sizes: Sequence[int]) -> list[int]:
    """The row position where each sort starts, then the row's length."""
    return list(itertools.accumulate(sizes, initial=0))


def _facts(s: SortedStructure):
    """(sorts, tuples) for each symbol of s in signature order: a relation's
    tuples, a function's graph (arguments, then value), a constant's value."""
    sig = s.signature
    for (_, rsig), rel in zip(sig.relations, s.relations):
        yield rsig, rel
    for (_, fsig, target), table in zip(sig.functions, s.functions):
        yield fsig + (target,), [args + (v,) for args, v in table.items()]
    for (_, sort), c in zip(sig.constants, s.constants):
        yield (sort,), [(c,)]


def _compile_checks(s1: SortedStructure, s2: SortedStructure, starts: list[int]):
    """Every fact of s1 as a check ``(get, allowed)``, filed under the last
    row position it reads: ``get`` reads the images of the fact's positions
    from a row, and ``allowed`` is s2's same symbol on positions.  A
    bijection that passes every check carries each symbol of s1 into s2's,
    hence onto it when the two have as many facts; None when they do not."""
    checks: list[list[tuple[itemgetter, set]]] = [[] for _ in range(starts[-1])]
    for (sorts, facts1), (_, facts2) in zip(_facts(s1), _facts(s2)):
        if len(facts1) != len(facts2):
            return None
        if not sorts:  # a nullary relation: equal sizes mean both hold or neither
            continue
        offsets = [starts[k] for k in sorts]
        allowed = {tuple(map(add, offsets, t)) for t in facts2}
        if len(sorts) == 1:  # an itemgetter of one position reads a bare int
            allowed = {p for (p,) in allowed}
        for t in facts1:
            positions = tuple(map(add, offsets, t))
            checks[max(positions)].append((itemgetter(*positions), allowed))
    return checks


def isomorphism_rows(
    s1: SortedStructure,
    s2: SortedStructure,
    *,
    max_elements: int | None = None,
    limit: int | None = None,
) -> list[tuple[int, ...]]:
    """Every isomorphism from s1 onto s2 as a row (:meth:`SortedMap.row`),
    in lexicographic order: a backtrack over row positions (sorts in
    declaration order, elements in index order) that checks each fact of s1
    once its last position is chosen.  It is a loop over an explicit stack,
    so nothing it builds outlives the call.  Structures whose sort sizes
    differ have none, whatever their size: the ``max_elements`` bound is
    read only after the sizes are compared."""
    if s1.signature != s2.signature:
        raise SignatureMismatchError("isomorphisms: signatures differ")
    s1.check_valid()
    s2.check_valid()
    if s1.sort_sizes != s2.sort_sizes:
        return []
    config.check_elements(s1.total_elements, max_elements)
    starts = _starts(s1.sort_sizes)
    checks = _compile_checks(s1, s2, starts)
    if checks is None:
        return []

    # images[p]: the positions of p's sort; a valid structure has no empty sort
    images = [range(a, b) for a, b in zip(starts, starts[1:]) for _ in range(a, b)]
    n = len(images)
    img, used, out = [-1] * n, [False] * (n + 1), []  # used[-1] is for "no image"
    tries = [iter(images[0])] + [None] * (n - 1)
    depth = 0
    while depth >= 0:
        used[img[depth]] = False  # release the image chosen here last
        for v in tries[depth]:
            img[depth] = v
            for get, allowed in checks[depth]:
                if get(img) not in allowed:
                    break
            else:
                break  # v passes every check filed at this depth
        else:  # no image left to try: backtrack
            img[depth] = -1
            depth -= 1
            continue
        used[v] = True
        if depth + 1 < n:
            depth += 1
            tries[depth] = (v for v in images[depth] if not used[v])
        else:
            out.append(tuple(img))
            if limit is not None and len(out) >= limit:
                break
    return out


def isomorphisms(
    s1: SortedStructure,
    s2: SortedStructure,
    *,
    max_elements: int | None = None,
    limit: int | None = None,
) -> list[SortedMap]:
    """All per-sort bijection families carrying s1 onto s2 exactly: the rows
    of :func:`isomorphism_rows` as maps, in their order.  ``isomorphisms(s,
    s)`` is exactly ``automorphisms(s)``."""
    rows = isomorphism_rows(s1, s2, max_elements=max_elements, limit=limit)
    return [SortedMap.from_row(s1, s2, row) for row in rows]


def automorphisms(s: SortedStructure, *, max_elements: int | None = None) -> list[SortedMap]:
    """All automorphisms of ``s`` in canonical order (identity first)."""
    return isomorphisms(s, s, max_elements=max_elements)


def relabel(s: SortedStructure, maps: Sequence[Sequence[int]]) -> SortedStructure:
    """The structure transported along per-sort bijections."""
    return relabel_map(s, maps).codomain


def relabel_map(s: SortedStructure, maps: Sequence[Sequence[int]]) -> SortedMap:
    """Transport ``s`` along per-sort bijections.

    Returns the isomorphism ``s -> relabel(s, maps)``; its codomain is the
    transported structure.
    """
    s.check_valid()
    if len(maps) != len(s.sort_sizes):
        raise StructureError("relabel: need one bijection per sort")
    norm = [tuple(int(v) for v in m) for m in maps]
    for i, m in enumerate(norm):
        if sorted(m) != list(range(s.sort_sizes[i])):
            raise StructureError(f"relabel: map for sort {i} is not a bijection")

    rels = []
    for (_, rsig), rel in zip(s.signature.relations, s.relations):
        rels.append(
            frozenset(tuple(norm[rsig[i]][t[i]] for i in range(len(t))) for t in rel)
        )
    fns = []
    for (_, fsig, target), table in zip(s.signature.functions, s.functions):
        fns.append(
            {
                tuple(norm[fsig[i]][args[i]] for i in range(len(args))): norm[target][v]
                for args, v in table.items()
            }
        )
    consts = [norm[sort][c] for (_, sort), c in zip(s.signature.constants, s.constants)]
    target_structure = SortedStructure(s.signature, s.sort_sizes, rels, fns, consts)
    return SortedMap(s, target_structure, norm)


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


# ---------------------------------------------------------------------------
# JSON serialization (UTF-8; tuples sorted lexicographically on write)

def structure_to_json(s: SortedStructure) -> dict:
    sig = s.signature
    return {
        "sorts": [
            {"name": name, "size": s.sort_sizes[i]} for i, name in enumerate(sig.sort_names)
        ],
        "relations": [
            {
                "name": name,
                "signature": [sig.sort_names[i] for i in rsig],
                "tuples": sorted(list(t) for t in s.relations[ri]),
            }
            for ri, (name, rsig) in enumerate(sig.relations)
        ],
        "functions": [
            {
                "name": name,
                "args": [sig.sort_names[i] for i in fsig],
                "target": sig.sort_names[target],
                "table": sorted(list(args) + [v] for args, v in s.functions[fi].items()),
            }
            for fi, (name, fsig, target) in enumerate(sig.functions)
        ],
        "constants": [
            {"name": name, "sort": sig.sort_names[sort], "value": s.constants[ci]}
            for ci, (name, sort) in enumerate(sig.constants)
        ],
    }


def structure_from_json(doc: Mapping) -> SortedStructure:
    """The structure of a document in the form :func:`structure_to_json`
    writes.  Sort sizes, constant values and every entry of a tuple or table
    row must be JSON integers, and every sort and symbol name a JSON string;
    anything else raises StructureError("malformed structure document: …")."""
    try:
        sort_names = tuple(_json_str(entry["name"], "sort name") for entry in doc["sorts"])
        sizes = tuple(_json_int(entry["size"], "sort size") for entry in doc["sorts"])
        index = {name: i for i, name in enumerate(sort_names)}

        rel_syms, rels = [], []
        for entry in doc.get("relations", []):
            rsig = tuple(index[n] for n in entry["signature"])
            rel_syms.append((_json_str(entry["name"], "relation name"), rsig))
            rels.append([tuple(_json_ints(t, "relation tuple")) for t in entry["tuples"]])
        fn_syms, fns = [], []
        for entry in doc.get("functions", []):
            fsig = tuple(index[n] for n in entry["args"])
            fn_syms.append((_json_str(entry["name"], "function name"), fsig, index[entry["target"]]))
            rows = [_json_ints(row, "function table row") for row in entry["table"]]
            fns.append({tuple(row[:-1]): row[-1] for row in rows})
        const_syms, consts = [], []
        for entry in doc.get("constants", []):
            const_syms.append((_json_str(entry["name"], "constant name"), index[entry["sort"]]))
            consts.append(_json_int(entry["value"], "constant value"))
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"malformed structure document: {exc}") from exc
    sig = SortedSignature(sort_names, tuple(rel_syms), tuple(fn_syms), tuple(const_syms))
    return SortedStructure(sig, sizes, rels, fns, consts)


def _json_int(value, what: str) -> int:
    if not is_int(value):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def _json_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, not {value!r}")
    return value


def _json_ints(value, what: str) -> list[int]:
    if not is_int_list(value):
        raise ValueError(f"{what} must be a list of integers, not {value!r}")
    return value


def dumps(s: SortedStructure) -> str:
    return json.dumps(structure_to_json(s), indent=2) + "\n"


def loads(text: str) -> SortedStructure:
    return structure_from_json(json.loads(text))
