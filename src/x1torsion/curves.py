"""Tate normal form curves, the chord-tangent group law in long Weierstrass
form, scalar multiplication, and exact order certification.

The Tate curve for parameters (b, c) is

    y^2 + (1-c)*x*y - b*y = x^3 - b*x^2

on which (0, 0) is the marked point.  All arithmetic is exact over any
field supplied by `fields`; nothing here assumes characteristic 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

from .fields import (
    MAX_ORDER,
    DescriptorMismatchError,
    FieldElement,
    ZeroDivisorError,
    _horner,
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
        """The curve equation in factored form, y (y + a1 x + a3) = x^2 (x + a2)
        + a4 x + a6: four products, five when a4 != 0; run once per CurvePoint."""
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
    use and is None when disc = 0 or, over a ring, disc is a zero divisor."""

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
    """A point of a curve: affine (x, y), or infinity when both are None.
    Construction checks (x, y) on the curve; a sum or negative skips it."""

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


def tate_normal_form(e, point):
    """(b, c) with (e, point) isomorphic to (tate_curve(b, c), (0, 0)), or None
    when [k]point = O for some k <= 3 (Kubert 1976; the moves of AEC III.1).
    Moving point to (0, 0) makes a6 = 0, and a3 = 0 exactly when [2]point = O;
    y -> y + s x with s = a4/a3 clears a4, and then a2 = 0 exactly when the
    tangent y = 0 is a flex, [3]point = O; scaling by u = a3/a2 leaves
    a2 = a3 = -b and a1 = 1 - c.  One inverse, of a3, gives s and 1/u."""
    if point.is_infinity:
        return None
    x, y, a1 = point.x, point.y, e.a1
    a2, a3 = e.a2 + 3 * x, e.a3 + a1 * x + y + y
    if not a3:
        return None
    inv = a3.inverse()
    s = (e.a4 + (e.a2 + a2) * x - a1 * y) * inv  # a4 at (0, 0), over a3
    a1, a2 = a1 + s + s, a2 - s * (a1 + s)
    v = a2 * inv  # 1/u
    return (-(a2 * v * v), e.descriptor.one() - a1 * v) if a2 else None


def curve_invariants(e):
    """b2, b4, b6, b8, c4, c6 and disc (AEC III.1); j = c4^3/disc on demand."""
    a1, a2, a3, a4, a6 = e.a1, e.a2, e.a3, e.a4, e.a6
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    disc = -(b2 * b2) * b8 - 8 * (b4 * b4 * b4) - 27 * (b6 * b6) + 9 * b2 * b4 * b6
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2 * b2 * b2) + 36 * b2 * b4 - 216 * b6
    return CurveInvariants(b2, b4, b6, b8, c4, c6, disc)


def _group_law_point(e, x, y):
    """(x, y) as a point of e, unchecked: the group law keeps points on e."""
    point = object.__new__(CurvePoint)
    point.__dict__.update(curve=e, x=x, y=y)  # past the frozen setattr, as FieldElement.__init__
    return point


def negate(e, p):
    """-(x, y) = (x, -y - a1 x - a3); infinity is its own negative."""
    if p.curve != e:
        raise CurveError("point does not belong to this curve")
    if p.is_infinity:
        return p
    return _group_law_point(e, p.x, -p.y - e.a1 * p.x - e.a3)


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
    multiplied by an int.  A zero numerator gives lam = 0 with neither the
    inversion nor its product: so doubling (0, 0) on a Tate curve, where
    a4 = 0, inverts nothing.  They keep points on e, so the sum is not rechecked.
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
        lam = num * denom.inverse() if num else num
    else:
        num = y2 - y1
        lam = num / (x2 - x1) if num else num
    nu = y1 - lam * x1
    lam_a1 = lam + a1
    x3 = lam * lam_a1 - a2 - x1 - x2
    y3 = -(lam_a1 * x3) - nu - a3
    return _group_law_point(e, x3, y3)


def scalar_mul(e, k, p):
    """[k]p by the signed binary (NAF) digits of k; [0]p is infinity,
    negative k negates.  At each odd k the digit 2 - (k mod 4) adds +-2^i p
    and leaves k = 0 mod 4.  The top digit, left as k = 2 over 2^i p, adds
    2^i p twice: over Q no multiple past [k]p, and so of larger height, is
    formed.  [31]p is ([16]p - p) + [16]p, four doublings and two chords."""
    if not isinstance(k, int):
        raise TypeError("scalar must be an integer")
    if p.curve != e:
        raise CurveError("point does not belong to this curve")
    if k < 0:
        return negate(e, scalar_mul(e, -k, p))
    result = e.infinity()
    acc = p
    while k > 2:
        if k & 1:
            digit = 2 - (k & 3)  # 1 or -1, leaving k - digit = 0 mod 4
            result = add_points(e, result, acc if digit == 1 else negate(e, acc))
            k -= digit
        else:
            acc = add_points(e, acc, acc)
            k >>= 1
    for _ in range(k):  # k is 2 here unless it began at 0 or 1
        result = add_points(e, result, acc)
    return result


@lru_cache(maxsize=4096)
def _chain(k):
    """Multiples from a seed 1, 2 or 3 up to k, each the sum of the one before
    and a seed or itself: halve k while even, else step down by 3 or 1 to
    the even number with the shorter chain."""
    if k <= 3:
        return (k,)
    return (_chain(k // 2) if k % 2 == 0 else min(_chain(k - 3), _chain(k - 1), key=len)) + (k,)


def _multiple_at_infinity(e, m, p):
    """Whether [m]p = O over e's field, for p = (0, 0) on e = tate_curve(b, c), of
    order at least 4: three group operations for m = 29, 31 and 37, from the free
    seeds [2]p = (b, bc) and [3]p = (c, b - c) (Kubert 1976).  For m = 2h + r, with
    r in {1, 2, 3} and the shortest _chain to R = [h]p, the tangent at R meets e at
    R, R and -2R: off the vertical through R, [m]p = O exactly when [r]p lies on
    it, num (x_r - x_R) = den (y_r - y_R) for the slope num/den of add_points, with
    no inversion.  R = O and x_r = x_R (m = 6, where R = [r]p) go to scalar_mul."""
    if m <= 3:
        return False
    a1, a2, a3 = e.a1, e.a2, e.a3
    b, c = -a2, e.descriptor.one() - a1
    known = {1: p, 2: _group_law_point(e, b, b * c), 3: _group_law_point(e, c, b - c)}
    r = 2 if m % 2 == 0 else min((r for r in (1, 3) if (m - r) // 2 != r),  # h = r: R = [r]p
                                 key=lambda r: len(_chain((m - r) // 2)))
    route = _chain((m - r) // 2)
    for prev, k in zip(route, route[1:]):
        known[k] = add_points(e, known[prev], known[k - prev])
    big, small = known[route[-1]], known[r]
    if big.is_infinity or big.x == small.x:
        return scalar_mul(e, m, p).is_infinity
    x, y = big.x, big.y
    xx, t = x * x, a2 * x
    num = xx + xx + xx + t + t - a1 * y
    return num * (small.x - x) == (y + y + a1 * x + a3) * (small.y - y)


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


def _value_at(x, roots):
    """x over F_p at the place sending generator i to roots[i] in F_p."""
    p, vals = x.descriptor.base, x.flat
    for r, deg in zip(reversed(roots), reversed(x.descriptor.degrees)):
        vals = [_horner(vals[i:i + deg], r, p) for i in range(0, len(vals), deg)]
    return vals[0]


def place_orders(e, point):
    """Yield (p, ord(P mod p)) at the first degree-1 place of good reduction in
    each ring of FieldDescriptor.residues(b, c), so one per residue characteristic,
    for P = point = (0, 0) on e = tate_curve(b, c) over K; none over F_p.

    A degree-1 place sends each generator to a root in F_p of its reduced
    minpoly (A.minpoly_roots); it is good when disc = b^3 (16 b^2 + b -
    20 bc - 8 bc^2 + c (c - 1)^3) is nonzero mod p.  Reduction at a good
    place is a group homomorphism (Silverman, AEC VII.2.1): [k]P != O there
    proves it over K.

    The order is the first k with W_k = 0 mod p in the scan's elliptic
    divisibility sequence (Ward 1948): W_1 ... W_4 = 1, -b, -b^3, b^5 c and
    W_{k+2} W_{k-2} = b^2 W_{k+1} W_{k-1} + b^3 W_k^2, each division by an
    earlier, nonzero term.  By Hasse the walk stops by k = p + 1 + 2 sqrt(p).
    """
    d = e.descriptor
    if d.base is not None:
        return
    b, c = -e.a2, d.one() - e.a1
    for A in d.residues(b, c):
        p = A.base
        roots = A.minpoly_roots
        if not all(roots):
            continue  # no degree-1 place: b and c are not mapped
        images = A.image(b), A.image(c)
        for place in itertools.product(*roots):
            bp, cp = (_value_at(v, place) for v in images)
            if not bp * (bp * (16 * bp + 1 - 20 * cp - 8 * cp * cp) + cp * (cp - 1) ** 3) % p:
                continue  # disc = 0
            b2, b3 = bp * bp % p, bp ** 3 % p
            w = [0, 1, -bp, -b3, b3 * b2 * cp % p]
            k = 4
            while w[k]:
                k += 1
                w.append((b2 * w[k - 1] * w[k - 3] + b3 * w[k - 2] ** 2) * pow(w[k - 4], -1, p) % p)
            yield p, k
            break


def verify_order(e, p, n):
    """Certify that p has exact order n on the nonsingular curve e.

    Checks [n]p = infinity and [n/q]p != infinity for every distinct prime
    q | n; n >= MAX_ORDER is refused first, as trial division has no budget.
    Places and the exact test run at (e, p) as a Tate origin, or at its
    tate_normal_form; at orders <= 3 there is none, and scalar_mul decides.
    Over Q, disc != 0 is settled at the first good place from place_orders,
    when there is one; [k]p = infinity needs the order o1 there to divide k,
    and only then is the second place found.  A torsion point's order is
    its order o at a good place of characteristic l times a power of l (AEC
    VII.3.1), so [k]p = infinity exactly when it divides m = gcd(k, o * (the
    l-part of k/o) over the places found), that is, when every o divides m
    and [m]p = O, the one test over e's field (_multiple_at_infinity).  With
    no place m = k; with one, m | k; with o1 at l1 and o2 at l2, m =
    lcm(o1, o2) or some o fails to divide m, so no multiple past the lcm of
    two Hasse bounds is computed.  Raises SingularCurveError before the
    group law when disc = 0.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("order target must be a positive integer")
    if n >= MAX_ORDER:
        raise ValueError(f"order {n} is not below 2^32")
    if p.curve != e:
        raise CurveError("point does not belong to this curve")
    tate, origin = e, p
    if e.a4 or e.a6 or p.is_infinity or p.x or p.y or e.a2 != e.a3:  # not (0, 0) of E_{b,c}
        bc = tate_normal_form(e, p)  # None at orders 1 to 3
        tate = tate_curve(*bc) if bc else None
        origin = tate and _group_law_point(tate, tate.a4, tate.a4)
    # (residue characteristic, order of p there) at each good place, the first at once
    places = iter(()) if tate is None else place_orders(tate, origin)
    orders = list(itertools.islice(places, 1))
    if not orders and e.is_singular():
        raise SingularCurveError("curve is singular; the group law does not apply")
    exact = cache(lambda m: scalar_mul(e, m, p).is_infinity if tate is None  # [m]p = O, once
                  else _multiple_at_infinity(tate, m, origin))

    def at_infinity(k):
        if orders and k % orders[0][1]:
            return False
        orders.extend(itertools.islice(places, 2 - len(orders)))
        # the order divides k and o * (the l-part of k/o) at each place, so it divides m
        m = math.gcd(k, *(o * math.gcd(k // o, l ** k.bit_length()) for l, o in orders))
        return all(m % o == 0 for _, o in orders) and exact(m)

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
