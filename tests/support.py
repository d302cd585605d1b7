"""Shared randomized-property drivers for the unit and acceptance tests.

Every function takes explicit sample counts and a seed, asserts on any
violation, and returns the number of samples it checked.  Oracles here
deliberately avoid the code paths they are checking: the naive scan
walks the (b, c) grid with repeated addition only, and the exact order
verdict works over Q alone, with no reduction mod p.
"""

import itertools
import math
import random
from fractions import Fraction

from x1torsion import (
    FieldDescriptor,
    add_points,
    find_irreducible,
    negate,
    parse_fixture,
    scalar_mul,
    tate_curve,
)
from x1torsion.fixtures import fixture_record


def random_scalar(rng, base):
    if base is None:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return rng.randrange(base)


def random_element(rng, desc):
    def build(dims):
        if not dims:
            return random_scalar(rng, desc.base)
        return [build(dims[1:]) for _ in range(dims[0])]

    return desc.from_coords(build(desc.degrees))


def random_nonzero(rng, desc):
    while True:
        x = random_element(rng, desc)
        if not x.is_zero():
            return x


def check_ring_axioms(desc, samples, seed):
    rng = random.Random(seed)
    zero, one = desc.zero(), desc.one()
    for _ in range(samples):
        x = random_element(rng, desc)
        y = random_element(rng, desc)
        z = random_element(rng, desc)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == zero
        assert x * one == x and x + zero == x
    return samples


def check_inversion(desc, samples, seed):
    rng = random.Random(seed)
    one = desc.one()
    for _ in range(samples):
        x = random_nonzero(rng, desc)
        assert x * x.inverse() == one
    return samples


def random_tate_curve(rng, desc):
    """A nonsingular random Tate curve; resamples the degenerate locus."""
    while True:
        b, c = random_element(rng, desc), random_element(rng, desc)
        e = tate_curve(b, c)
        if not e.invariants.disc.is_zero():
            return (b, c), e


def random_point(rng, e):
    zero = e.descriptor.zero()
    p = scalar_mul(e, rng.randint(0, 60), e.point(zero, zero))
    if rng.random() < 0.3:
        p = negate(e, p)
    return p


def check_group_laws(p, triples, seed):
    rng = random.Random(seed)
    desc = FieldDescriptor.prime_field(p)
    for _ in range(triples):
        _, e = random_tate_curve(rng, desc)
        a = random_point(rng, e)
        b = random_point(rng, e)
        c = random_point(rng, e)
        assert add_points(e, a, b) == add_points(e, b, a)
        assert add_points(e, add_points(e, a, b), c) == add_points(e, a, add_points(e, b, c))
        assert add_points(e, a, e.infinity()) == a
        assert add_points(e, a, negate(e, a)).is_infinity
    return triples


def check_closure(p, curve_count, seed):
    # on-curve membership of every sum is enforced by point construction,
    # so arriving without an exception is the assertion
    rng = random.Random(seed)
    desc = FieldDescriptor.prime_field(p)
    for _ in range(curve_count):
        _, e = random_tate_curve(rng, desc)
        a = random_point(rng, e)
        b = random_point(rng, e)
        s = add_points(e, a, b)
        if not s.is_infinity:
            assert e.contains(s.x, s.y)
    return curve_count


def check_scalar_homomorphism(p, samples, seed, bound=1000):
    rng = random.Random(seed)
    desc = FieldDescriptor.prime_field(p)
    for _ in range(samples):
        _, e = random_tate_curve(rng, desc)
        point = random_point(rng, e)
        m = rng.randint(0, bound)
        n = rng.randint(0, bound)
        assert scalar_mul(e, m + n, point) == add_points(
            e, scalar_mul(e, m, point), scalar_mul(e, n, point))
        assert scalar_mul(e, m * n, point) == scalar_mul(e, m, scalar_mul(e, n, point))
    return samples


def check_naive_vs_double_add(p, curve_count, seed, kmax=50):
    rng = random.Random(seed)
    desc = FieldDescriptor.prime_field(p)
    for _ in range(curve_count):
        _, e = random_tate_curve(rng, desc)
        base = random_point(rng, e)
        acc = e.infinity()
        for k in range(1, kmax + 1):
            acc = add_points(e, acc, base)
            assert acc == scalar_mul(e, k, base), k
    return curve_count


def check_closed_forms(p, samples, seed):
    rng = random.Random(seed)
    desc = FieldDescriptor.prime_field(p)
    zero = desc.zero()
    for _ in range(samples):
        (b, c), e = random_tate_curve(rng, desc)
        marked = e.point(zero, zero)
        double = scalar_mul(e, 2, marked)
        assert (double.x, double.y) == (b, b * c)
        triple = scalar_mul(e, 3, marked)
        assert (triple.x, triple.y) == (c, b - c)
    return samples


def naive_order_of_marked_point(e, cap):
    """Order of (0, 0) by repeated addition only; None if it exceeds cap."""
    zero = e.descriptor.zero()
    marked = e.point(zero, zero)
    acc = marked
    order = 1
    while not acc.is_infinity:
        acc = add_points(e, acc, marked)
        order += 1
        if order > cap:
            return None
    return order


def naive_orders(p, d=1, cap=None):
    """Independent single-threaded scan oracle over F_{p^d}.

    Maps the (b, c) coordinate pairs of every nonsingular curve to the
    order of its marked point, using only repeated addition; orders past
    `cap` map to None.  For d > 1 the field is F_p[t] modulo
    find_irreducible(p, d), the modulus scan_fp picks.
    """
    if d == 1:
        desc = FieldDescriptor.prime_field(p)
    else:
        desc = FieldDescriptor.prime_field(p, [("t", find_irreducible(p, d))])
    orders = {}
    if cap is None:
        cap = 2 * p ** d + 3  # Hasse: group order is below this
    for b in desc.iter_elements():
        for c in desc.iter_elements():
            e = tate_curve(b, c)
            if not e.invariants.disc.is_zero():
                orders[b.flat_coords(), c.flat_coords()] = naive_order_of_marked_point(e, cap)
    return orders


def naive_scan(p, n, d=1):
    """The (b, c) coordinate pairs whose marked point has exact order n."""
    return {pair for pair, order in naive_orders(p, d, cap=n).items() if order == n}


def exact_order_verdict(fixture):
    """The disc, order, passed and reason fields of a fixture's report record,
    from exact arithmetic over its field: the exact disc, then plain
    scalar_mul for [N]P and every [N/q]P, q | N prime."""
    e = tate_curve(fixture.b, fixture.c)
    if e.invariants.disc.is_zero():
        return {"disc_nonzero": False, "order": None, "passed": False,
                "reason": "disc = 0: the curve is singular"}
    zero = fixture.b.descriptor.zero()
    point = e.point(zero, zero)
    n = fixture.expected_order
    primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]
    checks = [[k, scalar_mul(e, k, point).is_infinity] for k in [n] + [n // q for q in primes]]
    if not checks[0][1]:
        why = f"[{n}]P is not infinity"
    else:
        why = next((f"[{k}]P is already infinity" for k, inf in checks[1:] if inf), None)
    passed = why is None
    why = f"exact order {n}" if passed else why
    return {
        "disc_nonzero": True,
        "order": {"target": n, "passed": passed, "checks": checks, "reason": why},
        "passed": passed,
        "reason": why if passed else f"order check failed: {why}",
    }


def _monomials(gens, degrees):
    """The basis monomials prod gens[i]^e_i, in flat coordinate order."""
    one = gens[0].descriptor.one()
    return [math.prod((g ** e for g, e in zip(gens, exps)), start=one)
            for exps in itertools.product(*(range(d) for d in degrees))]


def shifted_fixture(fixture, ks):
    """The same claim with generator i re-presented as h_i = g_i + ks[i]:
    minpoly m_i(x - k_i), and b, c rewritten in the h_i by field arithmetic."""
    record = fixture_record(fixture)
    desc = fixture.b.descriptor
    for gen, g, k in zip(record["generators"], desc.generators, ks):
        m = [Fraction(v) for v in g.minpoly]
        gen["minpoly"] = [str(sum(m[e] * math.comb(e, j) * (-k) ** (e - j)
                                  for e in range(j, len(m)))) for j in range(len(m))]
    shifted = parse_fixture(record).b.descriptor
    # g_i = h_i - k_i
    monomials = _monomials([shifted.gen(i) - k for i, k in enumerate(ks)], desc.degrees)
    for side in ("b", "c"):
        coords = getattr(fixture, side).flat_coords()
        record[side] = sum((v * m for v, m in zip(coords, monomials)), shifted.zero()).to_text()
    return parse_fixture(record)


def perturbed_fixture(fixture, side, slot, delta):
    """The fixture with flat coordinate `slot` of b or c moved by delta."""
    record = fixture_record(fixture)
    desc = fixture.b.descriptor
    basis = _monomials([desc.gen(i) for i in range(len(desc.generators))], desc.degrees)
    record[side] = (getattr(fixture, side) + delta * basis[slot]).to_text()
    return parse_fixture(record)


def naive_point_count(e):
    """#E(F_q) by the double loop over (x, y): 1 + the affine points."""
    elements = list(e.descriptor.iter_elements())
    count = 1
    for x in elements:
        rhs = ((x + e.a2) * x + e.a4) * x + e.a6
        shear = e.a1 * x + e.a3
        for y in elements:
            if y * (y + shear) == rhs:
                count += 1
    return count
