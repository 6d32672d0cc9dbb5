"""The shift-skew product of the integers with a restricted power of a base group.

An element is y^n * x where n is an integer shift and x is a finitely
supported map from integer positions to base-group elements (the restricted
direct sum of Z-many copies of the base).  Conjugation by y shifts support
positions up by one, which gives the multiplication rule

    (y^n x) (y^m x') = y^(n+m) (shift_m(x) * x')

with the direct-sum product taken pointwise per position.  Support values are
never the identity (normal form), so equality is structural.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Mapping, Sequence

from . import config
from .errors import GroupError
from .groups import FiniteGroup, GroupHom, _getter
from .jsondoc import is_int, is_int_list
from .records import Record

__all__ = [
    "SkewElement",
    "skew_identity",
    "skew_from_support",
    "skew_mul",
    "skew_inv",
    "skew_pow",
    "shift_generator",
    "phi23",
    "phi23_hom_witness",
    "psi0",
    "phi13",
    "center_witness",
    "random_skew_element",
    "CyclicSkewGroup",
    "build_cyclic_skew",
    "skew_to_json",
    "skew_from_json",
]


class SkewElement:
    """y^shift * x with x stored as sorted (position, value) pairs, values != 0.

    Built positionally, ``SkewElement(base, shift, support)``, and checked on
    every construction.  Immutable: equal when base, shift and support are
    equal, and hashed on all three.
    """

    __slots__ = ("base", "shift", "support")

    def __init__(self, base: FiniteGroup, shift: int, support: tuple[tuple[int, int], ...]):
        # one pass accepts the usual valid support; on a failure the checks
        # below name the first rule broken
        order = base.order
        last = None
        for p, v in support:
            if not 0 < v < order or (last is not None and p <= last):
                break
            last = p
        else:
            _set_base(self, base)
            _set_shift(self, shift)
            _set_support(self, support)
            return
        positions = [p for p, _ in support]
        if positions != sorted(positions) or len(set(positions)) != len(positions):
            raise GroupError("support positions must be strictly ascending")
        if any(v == 0 for _, v in support):
            raise GroupError("support values must be non-identity (normal form)")
        raise GroupError("support value out of base-group range")

    def __setattr__(self, key, value):
        raise AttributeError(f"SkewElement is immutable: cannot assign to {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"SkewElement is immutable: cannot delete {key!r}")

    def __eq__(self, other):
        if other.__class__ is not SkewElement:
            return NotImplemented
        return (
            self.shift == other.shift
            and self.support == other.support
            and (self.base is other.base or self.base == other.base)
        )

    def __hash__(self):
        return hash((self.base, self.shift, self.support))

    def __reduce__(self):
        # copy.copy rebuilds through the checked constructor
        return SkewElement, (self.base, self.shift, self.support)

    def is_identity(self) -> bool:
        return self.shift == 0 and not self.support

    def __repr__(self):
        sup = ", ".join(f"{p}:{self.base.element_name(v)}" for p, v in self.support)
        return f"y^{self.shift}*({sup})"


# the slot setters, which write past the __setattr__ guard
_set_base = SkewElement.base.__set__
_set_shift = SkewElement.shift.__set__
_set_support = SkewElement.support.__set__


def skew_identity(base: FiniteGroup) -> SkewElement:
    return SkewElement(base, 0, ())


def skew_from_support(base: FiniteGroup, shift: int, support: Mapping[int, int]) -> SkewElement:
    items = tuple(sorted((int(p), int(v)) for p, v in support.items() if int(v) != 0))
    return SkewElement(base, int(shift), items)


def shift_generator(base: FiniteGroup, n: int = 1) -> SkewElement:
    """The element y^n (empty support)."""
    return SkewElement(base, int(n), ())


def skew_mul(a: SkewElement, b: SkewElement) -> SkewElement:
    base = a.base
    if b.base is not base and b.base != base:
        raise GroupError("skew elements live over different base groups")
    # x shifted up by b's shift, then multiplied pointwise by x'
    by, right = b.shift, b.support
    if not right:
        left = a.support
        if by:
            left = tuple([(p + by, v) for p, v in left])
        return SkewElement(base, a.shift + by, left)
    if not a.support:
        return SkewElement(base, a.shift + by, right)
    acc = {}
    for p, v in a.support:
        acc[p + by] = v
    rows, get = base.table, acc.get
    for p, v in right:
        w = rows[get(p, 0)][v]  # row 0 is the identity's: v where acc has no p
        if w:
            acc[p] = w
        else:
            del acc[p]
    return SkewElement(base, a.shift + by, tuple(sorted(acc.items())))


def skew_inv(a: SkewElement) -> SkewElement:
    # moving every position by -shift keeps them in ascending order
    by, inv = a.shift, a.base.inv
    return SkewElement(a.base, -by, tuple([(p - by, inv(v)) for p, v in a.support]))


def skew_pow(a: SkewElement, m: int) -> SkewElement:
    if m < 0:
        return skew_pow(skew_inv(a), -m)
    result = skew_identity(a.base)
    square = a
    while m:
        if m & 1:
            result = skew_mul(result, square)
        square = skew_mul(square, square)
        m >>= 1
    return result


def phi23(a: SkewElement) -> int:
    """Project to the base group: the ordered product of support values
    (ascending position), with the shift contributing the identity.

    It is a homomorphism exactly when the base is abelian;
    :func:`phi23_hom_witness` decides this and names a breaking pair.
    """
    rows = a.base.table
    out = 0
    for _, v in a.support:
        out = rows[out][v]
    return out


def phi23_hom_witness(base: FiniteGroup) -> tuple[SkewElement, SkewElement] | None:
    """A pair breaking the homomorphism law of :func:`phi23`, or None.

    None exactly when the base is abelian: then phi23 is the projection
    homomorphism.  Otherwise take the first non-commuting pair a, b (in
    row-major order of the table); x = (0:a) and y = (-1:b) multiply to
    support (-1:b, 0:a), so phi23(x*y) = b*a while phi23(x)*phi23(y) = a*b.
    """
    rows = base.table
    clash = ((a, b) for a, row in enumerate(rows) for b, ab in enumerate(row) if ab != rows[b][a])
    a, b = next(clash, (None, None))
    if a is None:
        return None
    x = SkewElement(base, 0, ((0, a),))
    y = SkewElement(base, 0, ((-1, b),))
    if phi23(skew_mul(x, y)) == base.mul(phi23(x), phi23(y)):  # pragma: no cover - guarded by proof
        raise GroupError("internal error: witness pair obeys the homomorphism law")
    return x, y


def psi0(base: FiniteGroup, g: int) -> SkewElement:
    """Embed the base group at position 0; a homomorphic section of phi23."""
    if g == 0:
        return skew_identity(base)
    return SkewElement(base, 0, ((0, int(g)),))


def phi13(a: SkewElement, phi12: GroupHom) -> int:
    """Compose the base projection with a surjection out of the base group."""
    if phi12.domain != a.base:
        raise GroupError("phi12 domain must be the skew base group")
    return phi12(phi23(a))


def center_witness(a: SkewElement) -> SkewElement:
    """An element that verifiably fails to commute with ``a``.

    For shift zero the witness is y itself (conjugation moves the support).
    Otherwise a single generator is planted far enough above the support that
    the two products differ at one position.
    """
    if a.is_identity():
        raise GroupError("identity is central; no witness exists")
    if a.base.order <= 1:
        raise GroupError("trivial base group: the skew group is abelian")
    if a.shift == 0:
        w = shift_generator(a.base, 1)
    else:
        top = max((p for p, _ in a.support), default=0)
        w = SkewElement(a.base, 0, ((top + a.shift + 1, 1),))
    if skew_mul(a, w) == skew_mul(w, a):  # pragma: no cover - guarded by proof
        raise GroupError("internal error: witness commutes")
    return w


# ranges random_skew_element draws from: shifts in [-3, 3], up to 3 support
# positions, each in [-4, 4]; and the bits of one draw of a shift and of a
# support size
_RANDOM_MAX_SHIFT = 3
_RANDOM_MAX_SUPPORT = 3
_RANDOM_POSITIONS = range(-4, 5)
_SHIFT_BITS = (2 * _RANDOM_MAX_SHIFT + 1).bit_length()
_SIZE_BITS = (_RANDOM_MAX_SUPPORT + 1).bit_length()


def random_skew_element(
    base: FiniteGroup,
    rng: random.Random,
    *,
    allow_identity: bool = False,
) -> SkewElement:
    """A random element: the shift, the support size, the positions, then
    one value per position in the order the positions were drawn.

    Every draw is defined on ``rng.getrandbits``: a number below m is
    ``getrandbits(m.bit_length())`` drawn again until it is below m, and
    the positions are a partial Fisher-Yates shuffle of
    ``_RANDOM_POSITIONS``.  That is how ``Random.randrange`` and, for so
    small a population, ``Random.sample`` draw, so the stream is the one
    those calls give.  With ``allow_identity`` every draw makes the same
    ``rng`` calls whatever came before it, so element j of a stream is the
    same in any loop that draws from a fresh ``random.Random(seed)``.
    """
    bits = rng.getrandbits
    values = base.order - 1  # a value is 1 + a number below this
    value_bits = values.bit_length()
    last = len(_RANDOM_POSITIONS) - 1
    while True:
        shift = bits(_SHIFT_BITS)  # below 2 * _RANDOM_MAX_SHIFT + 1
        while shift > 2 * _RANDOM_MAX_SHIFT:
            shift = bits(_SHIFT_BITS)
        size = bits(_SIZE_BITS)  # below _RANDOM_MAX_SUPPORT + 1
        while size > _RANDOM_MAX_SUPPORT:
            size = bits(_SIZE_BITS)
        support = ()
        if size:
            pool = list(_RANDOM_POSITIONS)
            picked = []
            for end in range(last, last - size, -1):
                k = (end + 1).bit_length()
                j = bits(k)  # below end + 1
                while j > end:
                    j = bits(k)
                picked.append(pool[j])
                pool[j] = pool[end]  # the last unpicked position fills the gap
            if values:
                for i, p in enumerate(picked):
                    v = bits(value_bits)  # below values
                    while v >= values:
                        v = bits(value_bits)
                    picked[i] = (p, v + 1)
                picked.sort()
                support = tuple(picked)
        shift -= _RANDOM_MAX_SHIFT
        if allow_identity or shift or support:
            return SkewElement(base, shift, support)


# ---------------------------------------------------------------------------
# Finite cyclic analogue (positions and shifts mod k)

class CyclicSkewGroup(Record):
    """Finite analogue with positions and shifts reduced mod k.

    Realized as a plain Cayley-table group of order k * |base|^k so the exact
    search tools apply.  No structural property is assumed from the infinite
    construction; center and section behavior are computed per instance.
    """

    __slots__ = _fields = ("k", "base", "group")

    def __init__(self, k: int, base: FiniteGroup, group: FiniteGroup):
        self.k = k
        self.base = base
        self.group = group

    def encode(self, shift: int, values: Sequence[int]) -> int:
        idx = shift % self.k
        for p in range(self.k):
            idx = idx * self.base.order + values[p]
        return idx

    def decode(self, index: int) -> tuple[int, tuple[int, ...]]:
        values = []
        for _ in range(self.k):
            index, v = divmod(index, self.base.order)
            values.append(v)
        values.reverse()
        return index, tuple(values)


def build_cyclic_skew(k: int, base: FiniteGroup) -> CyclicSkewGroup:
    """Cayley table of the cyclic analogue, built row by row.

    Element ``shift * |base|^k + j`` is y^shift with ``j``'s base-|base|
    digits as its values at positions 0..k-1 (the layout of
    :meth:`CyclicSkewGroup.encode`).  The product of x and y has shift
    ``shift_x + shift_y`` and value ``digits_x[p - shift_y] * digits_y[p]``
    at p, mod k.  So the block of row x where y has shift s reads the slice
    of ``range(order)`` of shift ``shift_x + s`` through left multiplication
    in B^k by r, x's digits rotated by s.  The r of one row are the
    rotations of its digits, so the digit strings are taken one rotation
    orbit at a time: each r of the orbit gets its index list and its k
    blocks made once, the orbit's rows are laid out from those blocks as
    tuples, and the blocks are dropped before the next orbit.  So the
    table is the one copy alive, and its cells are the shared ints of one
    ``range(order)``; :class:`FiniteGroup` adopts the rows as they are.
    """
    if k < 1:
        raise GroupError("modulus must be at least 1")
    # k is capped so a float holds the product: a lower bound is enough
    config._check_table_log2(math.log2(k) + min(k, 2**64) * math.log2(base.order))
    order = k * base.order**k
    config.check_table_cells(order)

    n_base, width = base.order, base.order**k
    ints = tuple(range(order))
    slices = [ints[t * width:(t + 1) * width] for t in range(k)]
    top = width // n_base
    # spread[v][a]: a followed by each digit v*b, as base-|base| numbers
    spread = [
        [tuple(ints[a * n_base + b] for b in base.table[v]) for a in range(top)]
        for v in range(n_base)
    ]
    table = [()] * order
    row = [0] * order  # one row's k blocks, laid end to end
    for j in range(width):
        orbit = [j]  # j's digits rotated left 0, 1, ... places
        x = j % top * n_base + j // top
        while x > j:
            orbit.append(x)
            x = x % top * n_base + x // top
        if x < j:  # j is not the least of its orbit: done with it
            continue
        blocks = []
        for r in orbit:
            left_mul = (0,)  # d -> r*d over B^k, one digit of r at a time
            for v in _digits(r, n_base, k):
                left_mul = tuple(itertools.chain.from_iterable(_getter(left_mul)(spread[v])))
            get = _getter(left_mul)
            blocks.append([get(part) for part in slices])
        # x = orbit[i] rotated right by s is orbit[i - s]
        period = len(orbit)
        for i, x in enumerate(orbit):
            for shift in range(k):
                for s in range(k):
                    row[s * width:(s + 1) * width] = blocks[(i - s) % period][(shift + s) % k]
                table[shift * width + x] = tuple(row)
    words = [
        ",".join(map(base.element_name, digits))
        for digits in itertools.product(range(n_base), repeat=k)
    ]
    names = [f"y^{n}({w})" for n in range(k) for w in words]
    group = FiniteGroup(table, names=names, name=f"Z{k}skew{base.label()}", _adopt=True)
    return CyclicSkewGroup(k=k, base=base, group=group)


def _digits(j: int, n: int, k: int) -> list[int]:
    """The k base-n digits of j, most significant first."""
    out = [0] * k
    for p in range(k - 1, -1, -1):
        j, out[p] = divmod(j, n)
    return out


# ---------------------------------------------------------------------------
# JSON serialization

def skew_to_json(a: SkewElement) -> dict:
    return {"shift": a.shift, "support": [[p, v] for p, v in a.support]}


def skew_from_json(base: FiniteGroup, doc: Mapping) -> SkewElement:
    """The element of a ``{"shift": n, "support": [[pos, elem], ...]}``
    document.  Shift, positions and elements must be JSON integers (not
    bools or floats) and positions distinct; identity elements are dropped.
    Anything else raises GroupError("malformed skew element document: …")."""
    if not isinstance(doc, Mapping):
        raise _malformed(f"expected a JSON object, not {type(doc).__name__}")
    if "shift" not in doc:
        raise _malformed("missing field 'shift'")
    shift, support = doc["shift"], doc.get("support", [])
    if not is_int(shift):
        raise _malformed(f"shift must be an integer, not {shift!r}")
    if not isinstance(support, list) or not all(
        is_int_list(entry) and len(entry) == 2 for entry in support
    ):
        raise _malformed("support must be a list of [position, element] integer pairs")
    positions = {p for p, _ in support}
    if len(positions) != len(support):
        raise _malformed("support positions must be distinct")
    return skew_from_support(base, shift, dict(support))


def _malformed(why: str) -> GroupError:
    return GroupError(f"malformed skew element document: {why}")
