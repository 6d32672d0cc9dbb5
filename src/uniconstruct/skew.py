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

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import config
from .errors import BoundExceededError, GroupError
from .groups import FiniteGroup, GroupHom

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
    "hom_violations",
    "random_skew_element",
    "CyclicSkewGroup",
    "build_cyclic_skew",
    "skew_to_json",
    "skew_from_json",
]


@dataclass(frozen=True)
class SkewElement:
    """y^shift * x with x stored as sorted (position, value) pairs, values != 0."""

    base: FiniteGroup
    shift: int
    support: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # one pass accepts the usual valid support; on a failure the checks
        # below name the first rule broken
        order = self.base.order
        last = None
        for p, v in self.support:
            if not 0 < v < order or (last is not None and p <= last):
                break
            last = p
        else:
            return
        positions = [p for p, _ in self.support]
        if positions != sorted(positions) or len(set(positions)) != len(positions):
            raise GroupError("support positions must be strictly ascending")
        if any(v == 0 for _, v in self.support):
            raise GroupError("support values must be non-identity (normal form)")
        if any(v < 0 or v >= self.base.order for _, v in self.support):
            raise GroupError("support value out of base-group range")

    def is_identity(self) -> bool:
        return self.shift == 0 and not self.support

    def __repr__(self):
        sup = ", ".join(f"{p}:{self.base.element_name(v)}" for p, v in self.support)
        return f"y^{self.shift}*({sup})"


def skew_identity(base: FiniteGroup) -> SkewElement:
    return SkewElement(base, 0, ())


def skew_from_support(base: FiniteGroup, shift: int, support: Mapping[int, int]) -> SkewElement:
    items = tuple(sorted((int(p), int(v)) for p, v in support.items() if int(v) != 0))
    return SkewElement(base, int(shift), items)


def shift_generator(base: FiniteGroup, n: int = 1) -> SkewElement:
    """The element y^n (empty support)."""
    return SkewElement(base, int(n), ())


def _shift_support(support: tuple[tuple[int, int], ...], by: int):
    return tuple((p + by, v) for p, v in support)


def _pointwise_mul(base: FiniteGroup, left, right) -> tuple[tuple[int, int], ...]:
    acc = dict(left)
    for p, v in right:
        if p in acc:
            w = base.mul(acc[p], v)
            if w == 0:
                del acc[p]
            else:
                acc[p] = w
        else:
            acc[p] = v
    return tuple(sorted(acc.items()))


def skew_mul(a: SkewElement, b: SkewElement) -> SkewElement:
    if a.base is not b.base and a.base != b.base:
        raise GroupError("skew elements live over different base groups")
    support = _pointwise_mul(a.base, _shift_support(a.support, b.shift), b.support)
    return SkewElement(a.base, a.shift + b.shift, support)


def skew_inv(a: SkewElement) -> SkewElement:
    inv_support = tuple((p - a.shift, a.base.inv(v)) for p, v in a.support)
    return SkewElement(a.base, -a.shift, tuple(sorted(inv_support)))


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
    :func:`phi23_hom_witness` decides this and names a breaking pair, and
    :func:`hom_violations` samples defects as a cross-check.
    """
    out = 0
    for _, v in a.support:
        out = a.base.mul(out, v)
    return out


def phi23_hom_witness(base: FiniteGroup) -> tuple[SkewElement, SkewElement] | None:
    """A pair breaking the homomorphism law of :func:`phi23`, or None.

    None exactly when the base is abelian: then phi23 is the projection
    homomorphism.  Otherwise take the first non-commuting pair a, b (in
    element order); x = (0:a) and y = (-1:b) multiply to support
    (-1:b, 0:a), so phi23(x*y) = b*a while phi23(x)*phi23(y) = a*b.
    """
    clash = np.argwhere(base.table != base.table.T)
    if not len(clash):
        return None
    a, b = (int(v) for v in clash[0])
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
# positions, each in [-4, 4]
_RANDOM_MAX_SHIFT = 3
_RANDOM_MAX_SUPPORT = 3
_RANDOM_POSITIONS = 4


def random_skew_element(
    base: FiniteGroup,
    rng: random.Random,
    *,
    allow_identity: bool = False,
) -> SkewElement:
    while True:
        shift = rng.randint(-_RANDOM_MAX_SHIFT, _RANDOM_MAX_SHIFT)
        size = rng.randint(0, _RANDOM_MAX_SUPPORT)
        positions = rng.sample(range(-_RANDOM_POSITIONS, _RANDOM_POSITIONS + 1), size)
        support = {p: rng.randrange(1, base.order) for p in positions} if base.order > 1 else {}
        el = skew_from_support(base, shift, support)
        if allow_identity or not el.is_identity():
            return el


def hom_violations(
    base: FiniteGroup, n_samples: int, seed: int = 0
) -> list[tuple[SkewElement, SkewElement]]:
    """Sample element pairs and collect those where the base projection
    breaks the homomorphism law.  Abelian bases should yield none."""
    rng = random.Random(seed)
    bad = []
    for _ in range(n_samples):
        x = random_skew_element(base, rng, allow_identity=True)
        y = random_skew_element(base, rng, allow_identity=True)
        if phi23(skew_mul(x, y)) != base.mul(phi23(x), phi23(y)):
            bad.append((x, y))
    return bad


# ---------------------------------------------------------------------------
# Finite cyclic analogue (positions and shifts mod k)

@dataclass
class CyclicSkewGroup:
    """Finite analogue with positions and shifts reduced mod k.

    Realized as a plain Cayley-table group of order k * |base|^k so the exact
    search tools apply.  No structural property is assumed from the infinite
    construction; center and section behavior are computed per instance.
    """

    k: int
    base: FiniteGroup
    group: FiniteGroup

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


def build_cyclic_skew(k: int, base: FiniteGroup, *, max_order: int | None = None) -> CyclicSkewGroup:
    """Cayley table of the cyclic analogue, one numpy pass per position.

    Element ``shift * |base|^k + sum_p digits[p] * |base|^(k-1-p)`` is
    y^shift with value ``digits[p]`` at position p (the layout of
    :meth:`CyclicSkewGroup.encode`).  The product of x and y has shift
    ``shift_x + shift_y`` and value ``digits_x[p - shift_y] * digits_y[p]``
    at p, positions and shifts mod k.  Every temporary uses the smallest
    unsigned dtype that holds the order, so the build costs a few
    order-squared arrays of small ints.
    """
    if k < 1:
        raise GroupError("modulus must be at least 1")
    bound = max_order if max_order is not None else config.DEFAULT.cyclic_skew_order
    order = k * base.order**k
    if order > bound:
        raise BoundExceededError(f"cyclic skew order {order} exceeds bound {bound}")
    config.check_table_cells(order)

    n_base = base.order
    dtype = np.min_scalar_type(order)
    place = [n_base ** (k - 1 - p) for p in range(k)]
    index = np.arange(order)
    shift = index // n_base**k
    digits = np.stack([index // w % n_base for w in place], axis=1).astype(dtype)
    base_table = base.table.astype(dtype)
    pair_shift = shift.astype(np.min_scalar_type(2 * order))
    table = ((pair_shift[:, None] + pair_shift[None, :]) % k).astype(dtype) * dtype.type(n_base**k)
    for p, w in enumerate(place):
        rotated = digits[:, (p - shift) % k]
        table += base_table[rotated, digits[None, :, p]] * dtype.type(w)
    names = [
        f"y^{n}({','.join(base.element_name(v) for v in xs)})"
        for n, xs in zip(shift.tolist(), digits.tolist())
    ]
    group = FiniteGroup(table, names=names, name=f"Z{k}skew{base.label()}")
    return CyclicSkewGroup(k=k, base=base, group=group)


# ---------------------------------------------------------------------------
# JSON serialization

def skew_to_json(a: SkewElement) -> dict:
    return {"shift": a.shift, "support": [[p, v] for p, v in a.support]}


def skew_from_json(base: FiniteGroup, doc: Mapping) -> SkewElement:
    try:
        support = {int(p): int(v) for p, v in doc.get("support", [])}
        return skew_from_support(base, int(doc["shift"]), support)
    except (KeyError, TypeError, ValueError) as exc:
        raise GroupError(f"malformed skew element document: {exc}") from exc
