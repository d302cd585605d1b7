"""Group law, invariants and order certificates."""

import random
from fractions import Fraction

import pytest

from x1torsion import (
    Curve,
    CurveError,
    DescriptorMismatchError,
    FieldDescriptor,
    FieldElement,
    PointNotOnCurveError,
    SingularCurveError,
    add_points,
    curve_invariants,
    load_fixture,
    negate,
    scalar_mul,
    shipped_fixture_paths,
    tate_curve,
    verify_order,
)
from x1torsion import curves
from x1torsion.curves import good_place, prime_factors

from support import (
    check_closed_forms,
    check_closure,
    check_group_laws,
    check_naive_vs_double_add,
    check_scalar_homomorphism,
    random_element,
    random_point,
    random_tate_curve,
)

Q = FieldDescriptor.rationals()
F101 = FieldDescriptor.prime_field(101)


def tate_over_q(b, c):
    return tate_curve(Q.from_scalar(b), Q.from_scalar(c))


# ------------------------------------------------------------- construction

def test_tate_coefficients():
    e = tate_over_q(0, 0)
    assert (e.a1, e.a2, e.a3, e.a4, e.a6) == (Q.one(), Q.zero(), Q.zero(), Q.zero(), Q.zero())
    e = tate_over_q(1, 1)
    assert (e.a1, e.a2, e.a3) == (Q.zero(), Q.from_scalar(-1), Q.from_scalar(-1))
    assert e.a4.is_zero() and e.a6.is_zero()


def test_tate_curve_refuses_parameters_over_different_fields():
    f5, f7 = FieldDescriptor.prime_field(5), FieldDescriptor.prime_field(7)
    with pytest.raises(DescriptorMismatchError):
        tate_curve(f5.one(), f7.one())


def test_marked_point_is_always_on_curve():
    rng = random.Random(3)
    for _ in range(20):
        _, e = random_tate_curve(rng, F101)
        e.point(F101.zero(), F101.zero())  # must not raise


def test_off_curve_point_rejected():
    e = tate_over_q(1, 1)
    with pytest.raises(PointNotOnCurveError):
        e.point(Q.from_scalar(1), Q.from_scalar(2))
    with pytest.raises(ValueError):
        e.point(Q.zero(), None)


def test_invariants_singular_origin():
    inv = curve_invariants(tate_over_q(0, 0))
    assert inv.b2 == 1 and inv.b4.is_zero() and inv.b6.is_zero() and inv.b8.is_zero()
    assert inv.disc.is_zero() and inv.j is None


def test_invariants_of_five_torsion_curve():
    inv = curve_invariants(tate_over_q(1, 1))
    assert inv.disc == Q.from_scalar(-11)
    assert inv.j == Q.from_scalar(Fraction(-4096, 11))


def test_invariant_identities_random():
    rng = random.Random(8)
    for desc in (Q, F101):
        for _ in range(50):
            b = desc.from_scalar(rng.randint(-9, 9)) if desc is Q else desc.from_scalar(rng.randrange(101))
            c = desc.from_scalar(rng.randint(-9, 9)) if desc is Q else desc.from_scalar(rng.randrange(101))
            inv = curve_invariants(tate_curve(b, c))
            assert 4 * inv.b8 == inv.b2 * inv.b6 - inv.b4 * inv.b4
            assert 1728 * inv.disc == inv.c4 ** 3 - inv.c6 ** 2


def test_invariants_match_disc_rederived_from_identity():
    # recompute disc through the b8 identity instead of the direct formula
    f5 = FieldDescriptor.prime_field(5)
    inv = curve_invariants(tate_curve(f5.one(), f5.one()))
    b8_alt = (inv.b2 * inv.b6 - inv.b4 * inv.b4) / 4
    disc_alt = -(inv.b2 ** 2) * b8_alt - 8 * inv.b4 ** 3 - 27 * inv.b6 ** 2 + 9 * inv.b2 * inv.b4 * inv.b6
    assert disc_alt == inv.disc


def test_general_weierstrass_curve_supported():
    f5 = FieldDescriptor.prime_field(5)
    e = Curve(f5.zero(), f5.zero(), f5.zero(), f5.one(), f5.zero())  # y^2 = x^3 + x
    assert not e.is_singular()
    p = e.point(f5.zero(), f5.zero())
    assert add_points(e, p, p).is_infinity  # 2-torsion via vanishing denominator
    assert verify_order(e, p, 2).passed


# ---------------------------------------------- general Weierstrass curves

def reference_sum(e, p, q):
    """(x, y) of p + q, or None for infinity, by the long-form formulas as
    first written: products by the ints 2 and 3, the tangent's intercept
    from its own formula, and the chord's as (y1 x2 - y2 x1)/(x2 - x1)."""
    if p.is_infinity:
        return None if q.is_infinity else (q.x, q.y)
    if q.is_infinity:
        return p.x, p.y
    a1, a2, a3, a4, a6 = e.a1, e.a2, e.a3, e.a4, e.a6
    x1, y1, x2, y2 = p.x, p.y, q.x, q.y
    if x1 == x2:
        denom = 2 * y1 + a1 * x1 + a3
        if y1 != y2 or denom.is_zero():
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / denom
        nu = (-(x1 * x1 * x1) + a4 * x1 + 2 * a6 - a3 * y1) / denom
    else:
        lam = (y2 - y1) / (x2 - x1)
        nu = (y1 * x2 - y2 * x1) / (x2 - x1)
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    return x3, -(lam + a1) * x3 - nu - a3


def general_curve(rng, desc):
    """A nonsingular long Weierstrass curve with all five a_i nonzero, and
    two points on it: a1, a2, a3 and the points are drawn, then a4 and a6
    solve a4 x + a6 = y^2 + a1 x y + a3 y - x^3 - a2 x^2 at both points."""
    while True:
        a1, a2, a3, x1, y1, x2, y2 = (random_element(rng, desc) for _ in range(7))
        if x1 == x2:
            continue
        g1, g2 = (y * y + a1 * x * y + a3 * y - x * x * x - a2 * x * x
                  for x, y in ((x1, y1), (x2, y2)))
        a4 = (g1 - g2) / (x1 - x2)
        a6 = g1 - a4 * x1
        if any(a.is_zero() for a in (a1, a2, a3, a4, a6)):
            continue
        e = Curve(a1, a2, a3, a4, a6)
        if not e.is_singular():
            return e, e.point(x1, y1), e.point(x2, y2)


def points_by_solving_for_y(e, p):
    """Every affine point over F_p, by testing each y for each x."""
    desc = e.descriptor
    out = []
    for x in range(p):
        xe = desc.from_scalar(x)
        rhs = xe * xe * xe + e.a2 * xe * xe + e.a4 * xe + e.a6
        for y in range(p):
            ye = desc.from_scalar(y)
            if ye * ye + e.a1 * xe * ye + e.a3 * ye == rhs:
                out.append(e.point(xe, ye))
    return out


def assert_matches_reference(e, p, q):
    s = add_points(e, p, q)
    expected = reference_sum(e, p, q)
    assert (None if s.is_infinity else (s.x, s.y)) == expected
    return s


def test_general_group_law_over_f101():
    rng = random.Random(0x6E6)
    for _ in range(3):
        e, _, _ = general_curve(rng, F101)
        points = points_by_solving_for_y(e, 101)
        assert len(points) >= 101 + 1 - 2 * 11 - 1  # Hasse, less infinity
        # every doubling, 2-torsion included, and every sum with one point
        for p in points:
            assert_matches_reference(e, p, p)
            assert_matches_reference(e, points[0], p)
            assert assert_matches_reference(e, p, negate(e, p)).is_infinity
        for _ in range(100):
            a, b, c = (rng.choice(points) for _ in range(3))
            assert assert_matches_reference(e, a, b) == add_points(e, b, a)
            assert add_points(e, add_points(e, a, b), c) == add_points(e, a, add_points(e, b, c))
        base = rng.choice(points)
        acc = e.infinity()
        for k in range(1, 40):
            acc = add_points(e, acc, base)
            assert acc == scalar_mul(e, k, base), k


def test_general_group_law_over_a_q_extension():
    rng = random.Random(0x6E7)
    q_tau = FieldDescriptor.rationals([("tau", [-1, -1, 1])])
    for _ in range(3):
        e, p, q = general_curve(rng, q_tau)
        s = assert_matches_reference(e, p, q)
        assert s == add_points(e, q, p)
        d = assert_matches_reference(e, p, p)
        assert_matches_reference(e, q, q)
        assert_matches_reference(e, d, q)
        assert_matches_reference(e, p, negate(e, q))
        assert add_points(e, add_points(e, p, q), p) == add_points(e, p, add_points(e, q, p))
        assert add_points(e, s, s) == add_points(e, add_points(e, d, q), q)
        assert scalar_mul(e, 3, p) == add_points(e, d, p)
        assert scalar_mul(e, 4, p) == add_points(e, add_points(e, d, p), p)


# ----------------------------------------------------------------- negation

def test_negate_cases():
    e = tate_over_q(1, 1)
    assert negate(e, e.infinity()).is_infinity
    marked = e.point(Q.zero(), Q.zero())
    assert negate(e, marked) == e.point(Q.zero(), Q.one())  # (0, b)
    rng = random.Random(21)
    for _ in range(30):
        _, ec = random_tate_curve(rng, F101)
        p = random_point(rng, ec)
        assert negate(ec, negate(ec, p)) == p
        assert add_points(ec, p, negate(ec, p)).is_infinity


# ------------------------------------------------------------------ addition

def test_add_identity_cases():
    e = tate_over_q(1, 1)
    marked = e.point(Q.zero(), Q.zero())
    assert add_points(e, marked, e.infinity()) == marked
    assert add_points(e, e.infinity(), marked) == marked
    assert add_points(e, e.infinity(), e.infinity()).is_infinity


def test_doubling_closed_form():
    rng = random.Random(4)
    for _ in range(40):
        (b, c), e = random_tate_curve(rng, F101)
        marked = e.point(F101.zero(), F101.zero())
        d = add_points(e, marked, marked)
        assert (d.x, d.y) == (b, b * c)


def test_doubling_inverts_once(monkeypatch):
    f = load_fixture(shipped_fixture_paths()[-1])  # n37_deg6
    e = tate_curve(f.b, f.c)
    zero = f.b.descriptor.zero()
    marked = e.point(zero, zero)
    calls = []
    inverse = FieldElement.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(FieldElement, "inverse", counted)
    double = add_points(e, marked, marked)
    assert len(calls) == 1
    assert (double.x, double.y) == (f.b, f.b * f.c)


def test_doubling_multiplies_at_most_twelve_times(monkeypatch):
    f = load_fixture(shipped_fixture_paths()[-1])  # n37_deg6
    e = tate_curve(f.b, f.c)
    zero = f.b.descriptor.zero()
    marked = e.point(zero, zero)
    products = []
    in_contains = []
    mul = FieldElement.__mul__
    contains = Curve.contains

    def counted_mul(self, other):
        products.append(other)
        return mul(self, other)

    def counted_contains(self, x, y):
        before = len(products)
        result = contains(self, x, y)
        in_contains.append(len(products) - before)
        return result

    monkeypatch.setattr(FieldElement, "__mul__", counted_mul)
    monkeypatch.setattr(FieldElement, "__rmul__", counted_mul)
    monkeypatch.setattr(Curve, "contains", counted_contains)
    double = add_points(e, marked, marked)
    # the new point is checked once, by the factored equation (a4 = 0)
    assert in_contains == [4]
    assert len(products) - sum(in_contains) <= 8
    assert len(products) <= 12
    assert all(isinstance(other, FieldElement) for other in products)
    assert (double.x, double.y) == (f.b, f.b * f.c)


def test_sum_is_checked_on_the_curve(monkeypatch):
    rng = random.Random(0x0FF)
    e, p, q = general_curve(rng, F101)
    monkeypatch.setattr(Curve, "contains", lambda self, x, y: False)
    with pytest.raises(PointNotOnCurveError):
        add_points(e, p, q)
    with pytest.raises(PointNotOnCurveError):
        add_points(e, p, p)


def test_tripling_closed_form():
    rng = random.Random(9)
    for _ in range(40):
        (b, c), e = random_tate_curve(rng, F101)
        marked = e.point(F101.zero(), F101.zero())
        t = scalar_mul(e, 3, marked)
        assert (t.x, t.y) == (c, b - c)


def test_cross_curve_points_rejected():
    e1 = tate_over_q(1, 1)
    e2 = tate_over_q(2, 0)
    with pytest.raises(CurveError):
        add_points(e1, e1.infinity(), e2.infinity())
    with pytest.raises(CurveError):
        negate(e1, e2.infinity())


# ---------------------------------------------------------------- scalar mul

def test_scalar_small_cases():
    e = tate_over_q(1, 1)
    marked = e.point(Q.zero(), Q.zero())
    assert scalar_mul(e, 0, marked).is_infinity
    assert scalar_mul(e, 1, marked) == marked
    assert scalar_mul(e, 2, marked) == e.point(Q.one(), Q.one())
    assert scalar_mul(e, 5, marked).is_infinity  # b = c locus carries order 5
    assert scalar_mul(e, -1, marked) == negate(e, marked)
    with pytest.raises(TypeError):
        scalar_mul(e, Fraction(1, 2), marked)


def test_five_torsion_by_naive_addition():
    e = tate_over_q(1, 1)
    marked = e.point(Q.zero(), Q.zero())
    acc = marked
    for _ in range(4):
        acc = add_points(e, acc, marked)
    assert acc.is_infinity


def test_order_four_locus():
    # c = 0 forces order 4: [2]P = (b, 0) is 2-torsion
    e = tate_over_q(3, 0)
    cert = verify_order(e, e.point(Q.zero(), Q.zero()), 4)
    assert cert.passed


# ------------------------------------------------------------ random suites

def test_closure_five_hundred_curves():
    assert check_closure(101, 250, seed=0x10) == 250
    assert check_closure(10007, 250, seed=0x11) == 250


def test_group_laws_two_hundred_triples():
    assert check_group_laws(101, 200, seed=0x22) == 200


def test_scalar_homomorphism():
    assert check_scalar_homomorphism(101, 50, seed=0x33, bound=1000) == 50


def test_double_and_add_matches_naive():
    assert check_naive_vs_double_add(101, 20, seed=0x44, kmax=50) == 20


def test_closed_forms_over_f101():
    assert check_closed_forms(101, 500, seed=0x55) == 500


# ------------------------------------------------------------- certificates

def test_verify_order_certificate_shape():
    e = tate_over_q(1, 1)
    marked = e.point(Q.zero(), Q.zero())
    cert = verify_order(e, marked, 5)
    assert cert.passed and cert.n == 5
    assert (5, True) in cert.checks and (1, False) in cert.checks
    assert "PASS" in str(cert)


def test_verify_order_rejects_wrong_target():
    e = tate_over_q(1, 1)
    marked = e.point(Q.zero(), Q.zero())
    cert10 = verify_order(e, marked, 10)
    assert not cert10.passed
    # [10]P = infinity but so is [10/2]P = [5]P: the proper-divisor check trips
    assert (10, True) in cert10.checks and (5, True) in cert10.checks
    cert7 = verify_order(e, marked, 7)
    assert not cert7.passed and (7, False) in cert7.checks


def test_verify_order_refuses_singular_curve():
    e = tate_over_q(0, 0)
    with pytest.raises(SingularCurveError):
        verify_order(e, e.point(Q.zero(), Q.zero()), 5)


def test_verify_order_accepts_supplied_factors():
    e = tate_over_q(1, 1)
    marked = e.point(Q.zero(), Q.zero())
    assert verify_order(e, marked, 5).passed
    with pytest.raises(ValueError):
        verify_order(e, marked, 0)


def test_good_place_skips_primes_in_the_point_denominators():
    # y^2 = x^3 - 2 has disc -1728 (bad at 2 and 3), and [2](3, 5) =
    # (129/100, -383/1000) is not 5-integral, so 7 is the first good prime
    e = Curve(Q.zero(), Q.zero(), Q.zero(), Q.zero(), Q.from_scalar(-2))
    double = scalar_mul(e, 2, e.point(Q.from_scalar(3), Q.from_scalar(5)))
    assert (double.x, double.y) == (Q.from_scalar(Fraction(129, 100)),
                                    Q.from_scalar(Fraction(-383, 1000)))
    e_bar, p_bar = good_place(e, double)
    f7 = e_bar.descriptor
    assert f7.base == 7 and (p_bar.x, p_bar.y) == (f7.from_scalar(5), f7.from_scalar(5))
    cert = verify_order(e, double, 5)  # a point of infinite order
    assert not cert.passed and cert.checks == ((5, False), (1, False))


def test_verify_order_refuses_orders_past_the_factoring_bound(monkeypatch):
    e = tate_over_q(1, 1)
    marked = e.point(Q.zero(), Q.zero())
    cert = verify_order(e, marked, 2 ** 32 - 1)  # 3 * 5 * 17 * 257 * 65537
    assert cert.n == 2 ** 32 - 1 and not cert.passed

    def no_group_law(*args):
        raise AssertionError("the group law ran")

    # refused before any group law: trial division of 2^61 - 1 has no budget
    monkeypatch.setattr(curves, "scalar_mul", no_group_law)
    for n in (2 ** 32, 2 ** 61 - 1):
        with pytest.raises(ValueError, match=r"is not below 2\^32"):
            verify_order(e, marked, n)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(2) == [2]
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(37) == [37]
    assert prime_factors(2 ** 10 * 31) == [2, 31]
    with pytest.raises(ValueError):
        prime_factors(0)

