"""Tate normal form curves, the chord-tangent group law in long Weierstrass
form, scalar multiplication, and exact order certification.

The Tate curve for parameters (b, c) is

    y^2 + (1-c)*x*y - b*y = x^3 - b*x^2

on which (0, 0) is the marked point.  All arithmetic is exact over any
field supplied by `fields`; nothing here assumes characteristic 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .fields import (
    MAX_ORDER,
    DescriptorMismatchError,
    FieldDescriptor,
    FieldElement,
    ZeroDivisorError,
    prime_factors,
)


class CurveError(Exception):
    """Base class for curve-level errors."""


class PointNotOnCurveError(CurveError):
    """Affine coordinates do not satisfy the curve equation."""


class SingularCurveError(CurveError):
    """The operation requires a nonsingular curve (disc != 0)."""


@dataclass(frozen=True)
class Curve:
    """A long Weierstrass curve y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    a1: FieldElement
    a2: FieldElement
    a3: FieldElement
    a4: FieldElement
    a6: FieldElement

    def __post_init__(self):
        d = self.a1.descriptor
        for coeff in (self.a2, self.a3, self.a4, self.a6):
            if coeff.descriptor != d:
                raise DescriptorMismatchError("curve coefficients must share one descriptor")

    @property
    def descriptor(self):
        return self.a1.descriptor

    @cached_property
    def invariants(self):
        return curve_invariants(self)

    def is_singular(self):
        return self.invariants.disc.is_zero()

    def contains(self, x, y):
        """The curve equation in factored form, y (y + a1 x + a3) =
        x^2 (x + a2) + a4 x + a6: four products, five when a4 != 0."""
        rhs = x * x * (x + self.a2) + self.a6
        if self.a4:
            rhs = rhs + self.a4 * x
        return y * (y + self.a1 * x + self.a3) == rhs

    def point(self, x, y):
        return CurvePoint(self, x, y)

    def infinity(self):
        return CurvePoint(self, None, None)


@dataclass(frozen=True)
class CurveInvariants:
    """Standard Weierstrass invariants; j = c4^3/disc is computed on first
    use and is None exactly when disc = 0."""

    b2: FieldElement
    b4: FieldElement
    b6: FieldElement
    b8: FieldElement
    c4: FieldElement
    c6: FieldElement
    disc: FieldElement

    @cached_property
    def j(self):
        if self.disc.is_zero():
            return None
        try:
            return (self.c4 * self.c4 * self.c4) / self.disc
        except ZeroDivisorError:
            # nonzero but non-invertible disc: only possible when the
            # descriptor is a ring, not a field; j does not exist there
            return None


@dataclass(frozen=True)
class CurvePoint:
    """A point of a curve: affine (x, y), or infinity when both are None."""

    curve: Curve
    x: object
    y: object

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise ValueError("affine points need both coordinates")
        if self.x is not None:
            d = self.curve.descriptor
            if self.x.descriptor != d or self.y.descriptor != d:
                raise DescriptorMismatchError("point coordinates off the curve's field")
            if not self.curve.contains(self.x, self.y):
                raise PointNotOnCurveError(f"({self.x}, {self.y}) is not on the curve")

    @property
    def is_infinity(self):
        return self.x is None


def tate_curve(b, c):
    """The Tate normal form curve: (a1, a2, a3, a4, a6) = (1-c, -b, -b, 0, 0).
    b and c must share one descriptor, or DescriptorMismatchError is raised."""
    one = b.descriptor.one()
    zero = b.descriptor.zero()
    return Curve(one - c, -b, -b, zero, zero)


def curve_invariants(e):
    """Exact b2/b4/b6/b8, c4/c6 and discriminant; j = c4^3/disc is computed on demand."""
    a1, a2, a3, a4, a6 = e.a1, e.a2, e.a3, e.a4, e.a6
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2 * b2 * b2) + 36 * b2 * b4 - 216 * b6
    disc = -(b2 * b2) * b8 - 8 * (b4 * b4 * b4) - 27 * (b6 * b6) + 9 * b2 * b4 * b6
    return CurveInvariants(b2, b4, b6, b8, c4, c6, disc)


def negate(e, p):
    """-(x, y) = (x, -y - a1 x - a3); infinity is its own negative."""
    if p.curve != e:
        raise CurveError("point does not belong to this curve")
    if p.is_infinity:
        return p
    return CurvePoint(e, p.x, -p.y - e.a1 * p.x - e.a3)


def add_points(e, p, q):
    """Chord-tangent sum with full case analysis.

    Cases: either operand at infinity; q = -p (vertical chord, sum is
    infinity); p = q with vanishing doubling denominator (2-torsion, sum is
    infinity); the generic chord and tangent formulas otherwise.  The
    doubling denominator is tested before inversion, so no division-by-zero
    is ever raised from here on a nonsingular curve.

    The slope lam and the minimal formulas of Silverman, AEC III.2.3:
    nu = y1 - lam x1, x3 = lam (lam + a1) - a2 - x1 - x2 and
    y3 = -(lam + a1) x3 - nu - a3.  A doubling takes 8 products and one
    inversion, a chord 4 products and one inversion; no element is
    multiplied by an int.
    """
    if p.curve != e or q.curve != e:
        raise CurveError("point does not belong to this curve")
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    a1, a2, a3, a4 = e.a1, e.a2, e.a3, e.a4
    x1, y1 = p.x, p.y
    x2, y2 = q.x, q.y
    if x1 == x2:
        if y1 != y2:
            return e.infinity()
        denom = y1 + y1 + a1 * x1 + a3
        if denom.is_zero():
            return e.infinity()
        xx = x1 * x1
        t = a2 * x1
        num = xx + xx + xx + t + t - a1 * y1
        if a4:
            num = num + a4
        lam = num * denom.inverse()
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    lam_a1 = lam + a1
    x3 = lam * lam_a1 - a2 - x1 - x2
    y3 = -(lam_a1 * x3) - nu - a3
    return CurvePoint(e, x3, y3)


def scalar_mul(e, k, p):
    """[k]p by double-and-add; [0]p is infinity, negative k negates."""
    if not isinstance(k, int):
        raise TypeError("scalar must be an integer")
    if p.curve != e:
        raise CurveError("point does not belong to this curve")
    if k < 0:
        return negate(e, scalar_mul(e, -k, p))
    result = e.infinity()
    acc = p
    while k:
        if k & 1:
            result = add_points(e, result, acc)
        k >>= 1
        if k:
            acc = add_points(e, acc, acc)
    return result


@dataclass(frozen=True)
class OrderCertificate:
    """Record of the multiples checked to pin the exact order of a point.

    `checks` holds (k, at_infinity) pairs: first [n]P, then [n/q]P for each
    distinct prime q dividing n.  The certificate passes when [n]P is
    infinity and none of the proper multiples are.
    """

    n: int
    passed: bool
    checks: tuple
    reason: str

    def __str__(self):
        lines = [f"order {self.n}: {'PASS' if self.passed else 'FAIL'} ({self.reason})"]
        for k, at_inf in self.checks:
            lines.append(f"  [{k}]P {'=' if at_inf else '!='} infinity")
        return "\n".join(lines)


def _horner(coeffs, r, p):
    """sum coeffs[i] r^i mod p, constant coefficient first."""
    acc = 0
    for v in reversed(coeffs):
        acc = (acc * r + v) % p
    return acc


def _value_at(x, roots):
    """x over F_p at the place sending generator i to roots[i] in F_p."""
    p, vals = x.descriptor.base, x.flat
    for r, deg in zip(reversed(roots), reversed(x.descriptor.degrees)):
        vals = [_horner(vals[i:i + deg], r, p) for i in range(0, len(vals), deg)]
    return vals[0]


def good_place(e, point):
    """(curve, point) reduced at the first degree-1 place of good reduction
    in FieldDescriptor.residues(a1...a6, x, y), or None (always over F_p or
    at infinity).

    A degree-1 place sends each generator to a root in F_p of its reduced
    minpoly; it is good when disc does not vanish there.  Reduction at a
    good place is a group homomorphism (Silverman, AEC VII.2.1): [k]P != O
    there proves it over K.
    """
    d = e.descriptor
    if d.base is not None or point.is_infinity:
        return None
    elems = (e.a1, e.a2, e.a3, e.a4, e.a6, point.x, point.y)
    for A in d.residues(*elems):
        p = A.base
        roots = [[r for r in range(p) if not _horner(g.minpoly, r, p)] for g in A.generators]
        if not all(roots):
            continue  # no degree-1 place: the elements are not mapped
        images = [A.image(v) for v in elems]
        F = FieldDescriptor.prime_field(p)
        for place in itertools.product(*roots):
            *coeffs, x, y = (F.from_scalar(_value_at(v, place)) for v in images)
            e_bar = Curve(*coeffs)
            if not e_bar.is_singular():
                return e_bar, e_bar.point(x, y)
    return None


def verify_order(e, p, n):
    """Certify that p has exact order n on the nonsingular curve e.

    Checks [n]p = infinity and [n/q]p != infinity for every distinct prime
    q | n; n >= MAX_ORDER is refused first, as trial division has no budget.
    Over Q, disc != 0 and each [k]p != infinity are settled at good_place
    when there is one; only multiples that are infinity there are computed
    over the curve's own field.  Raises SingularCurveError before touching
    the group law when disc = 0.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("order target must be a positive integer")
    if n >= MAX_ORDER:
        raise ValueError(f"order {n} is not below 2^32")
    if p.curve != e:
        raise CurveError("point does not belong to this curve")
    place = good_place(e, p)
    if place is None and e.is_singular():
        raise SingularCurveError("curve is singular; the group law does not apply")

    def at_infinity(k):
        if place is not None and not scalar_mul(place[0], k, place[1]).is_infinity:
            return False
        return scalar_mul(e, k, p).is_infinity

    top = at_infinity(n)
    checks = [(n, top)]
    passed = top
    reason = "" if passed else f"[{n}]P is not infinity"
    for q in prime_factors(n):
        k = n // q
        part = at_infinity(k)
        checks.append((k, part))
        if part and passed:
            passed = False
            reason = f"[{k}]P is already infinity"
    if passed:
        reason = f"exact order {n}"
    return OrderCertificate(n, passed, tuple(checks), reason)
