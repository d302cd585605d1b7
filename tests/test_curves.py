"""Group law, invariants and order certificates."""

import itertools
import random
from fractions import Fraction

import pytest

from x1torsion import (
    Curve,
    CurveError,
    CurvePoint,
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
from x1torsion import curves, fields
from x1torsion.cli import main as cli_main
from x1torsion.curves import _multiple_at_infinity as exact_test
from x1torsion.curves import place_orders, prime_factors, tate_normal_form

from support import (
    check_closed_forms,
    check_closure,
    check_group_laws,
    check_naive_vs_double_add,
    check_scalar_homomorphism,
    first_good_places,
    naive_order_of_marked_point,
    place_curve,
    random_element,
    random_point,
    random_tate_curve,
    reference_good_places,
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
    # a direct CurvePoint is checked as e.point is, over Q and over F_101
    for desc in (Q, F101):
        e = tate_curve(desc.one(), desc.one())
        x, y = desc.from_scalar(1), desc.from_scalar(2)
        for build in (e.point, lambda x, y: CurvePoint(e, x, y)):
            with pytest.raises(PointNotOnCurveError):
                build(x, y)


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
        built = [s, d, assert_matches_reference(e, q, q), assert_matches_reference(e, d, q),
                 negate(e, q), assert_matches_reference(e, p, negate(e, q))]
        left = add_points(e, add_points(e, p, q), p)
        assert left == add_points(e, p, add_points(e, q, p))
        ss = add_points(e, s, s)
        assert ss == add_points(e, add_points(e, d, q), q)
        p3, p4 = scalar_mul(e, 3, p), scalar_mul(e, 4, p)
        assert p3 == add_points(e, d, p)
        assert p4 == add_points(e, add_points(e, d, p), p)
        # sums are not checked when built: every point here lies on e
        for point in built + [left, ss, p3, p4]:
            assert point.is_infinity or e.contains(point.x, point.y)


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
    assert len(calls) == 0  # the tangent at (0, 0) has slope 0: a4 = 0
    assert (double.x, double.y) == (f.b, f.b * f.c)
    add_points(e, double, double)
    assert len(calls) == 1


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
    # the sum is not checked on the curve: the doubling's 8 products are all
    assert in_contains == []
    assert len(products) <= 8
    assert all(isinstance(other, FieldElement) for other in products)
    assert (double.x, double.y) == (f.b, f.b * f.c)


def test_multiples_of_each_shipped_point_lie_on_its_curve():
    # [k]P, k = 1 ... N - 1, by repeated add_points: none is checked when
    # built, and none is infinity since P has exact order N
    for path in shipped_fixture_paths():
        f = load_fixture(path)
        e = tate_curve(f.b, f.c)
        zero = f.b.descriptor.zero()
        marked = acc = e.point(zero, zero)
        for k in range(1, f.expected_order):
            assert not acc.is_infinity and e.contains(acc.x, acc.y), (path.name, k)
            acc = add_points(e, acc, marked)
        assert acc.is_infinity


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


def _marked(b, c):
    e = tate_over_q(b, c)
    return e, e.point(Q.zero(), Q.zero())


@pytest.mark.parametrize("call, error, message", [
    (lambda: Curve(Q.one(), F101.one(), Q.one(), Q.zero(), Q.zero()),
     DescriptorMismatchError, "curve coefficients must share one descriptor"),
    (lambda: tate_over_q(1, 1).point(F101.zero(), F101.zero()),
     DescriptorMismatchError, "point coordinates off the curve's field"),
    (lambda: scalar_mul(_marked(1, 1)[0], 2, _marked(2, 0)[1]),
     CurveError, "point does not belong to this curve"),
    (lambda: verify_order(_marked(1, 1)[0], _marked(2, 0)[1], 5),
     CurveError, "point does not belong to this curve"),
], ids=["curve-coefficients", "point-coordinates", "scalar-mul", "verify-order"])
def test_parts_of_another_field_or_curve_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


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


def multiples_by_repeated_addition(e, point, top):
    """{k: [k]point} for |k| <= top, from add_points and negate alone."""
    acc, multiples = e.infinity(), {}
    for k in range(top + 1):
        multiples[k], multiples[-k] = acc, negate(e, acc)
        acc = add_points(e, acc, point)
    return multiples


@pytest.mark.parametrize("p", [5, 7, 11, 13, 29, 31])
def test_signed_digit_chain_matches_repeated_addition(p):
    # k in [-3p, 3p] runs past the group order (Hasse), so chains through O
    # and the zero-slope doublings of 2-torsion points are all met
    rng = random.Random(p)
    desc = FieldDescriptor.prime_field(p)
    for _ in range(3):
        (b, c), e = random_tate_curve(rng, desc)
        zero = desc.zero()
        marked = e.point(zero, zero)
        for point in (marked, add_points(e, marked, add_points(e, marked, marked))):
            for k, multiple in multiples_by_repeated_addition(e, point, 3 * p).items():
                assert scalar_mul(e, k, point) == multiple, k


def test_signed_digit_chain_matches_repeated_addition_over_q():
    e = tate_over_q(Fraction(-2, 3), Fraction(5, 7))
    marked = e.point(Q.zero(), Q.zero())
    for k, multiple in multiples_by_repeated_addition(e, marked, 40).items():
        assert scalar_mul(e, k, marked) == multiple, k


@pytest.mark.parametrize("path", shipped_fixture_paths(), ids=lambda path: path.stem)
def test_exact_multiple_inversions_per_shipped_fixture(monkeypatch, path):
    # the signed digits of 29, 31 and 37, with the doubling of (0, 0) and the
    # last chord, onto O, both free
    f = load_fixture(path)
    e = tate_curve(f.b, f.c)
    zero = f.b.descriptor.zero()
    calls = []
    inverse = FieldElement.inverse
    monkeypatch.setattr(FieldElement, "inverse", lambda self: calls.append(self) or inverse(self))
    assert scalar_mul(e, f.expected_order, e.point(zero, zero)).is_infinity
    assert len(calls) == {29: 5, 31: 4, 37: 5}[f.expected_order]


@pytest.mark.parametrize("path", shipped_fixture_paths(), ids=lambda path: path.stem)
def test_exact_test_agrees_with_scalar_mul_on_shipped_fixtures(path):
    f = load_fixture(path)
    e = tate_curve(f.b, f.c)
    zero = f.b.descriptor.zero()
    marked = e.point(zero, zero)
    for m in range(1, f.expected_order + 5):
        assert exact_test(e, m, marked) == scalar_mul(e, m, marked).is_infinity, m


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_exact_test_agrees_with_scalar_mul_at_every_tate_origin_mod_p(p):
    # m <= 2p + 3 runs past the group order (Hasse), through every fallback
    desc = FieldDescriptor.prime_field(p)
    zero = desc.zero()
    for b, c in itertools.product(range(p), repeat=2):
        e = tate_curve(desc.from_scalar(b), desc.from_scalar(c))
        if e.is_singular():
            continue
        marked = e.point(zero, zero)
        for m in range(1, 2 * p + 4):
            assert exact_test(e, m, marked) == scalar_mul(e, m, marked).is_infinity, (b, c, m)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_exact_test_agrees_with_scalar_mul_at_every_point_mod_p(p):
    # off the Tate origin the exact test runs at the point's normal form:
    # every point of every Tate curve over F_p for p <= 5, and of three
    # curves with all five a_i nonzero over F_7 and F_11; a point with no
    # normal form has order at most 3
    desc = FieldDescriptor.prime_field(p)
    if p <= 5:
        elements = [desc.from_scalar(v) for v in range(p)]
        curves_mod_p = [e for b, c in itertools.product(elements, repeat=2)
                        if not (e := tate_curve(b, c)).is_singular()]
    else:
        rng = random.Random(p)
        curves_mod_p = [general_curve(rng, desc)[0] for _ in range(3)]
    for e in curves_mod_p:
        for point in points_by_solving_for_y(e, p):
            bc = tate_normal_form(e, point)
            if bc is None:
                assert any(scalar_mul(e, k, point).is_infinity for k in (2, 3)), (e, point)
                continue
            tate = tate_curve(*bc)
            origin = tate.point(desc.zero(), desc.zero())
            for m in range(1, 2 * p + 4):
                assert exact_test(tate, m, origin) == scalar_mul(e, m, point).is_infinity, (
                    e, point, m)


def test_exact_test_off_the_tate_origin_over_q(monkeypatch):
    # b = 3, c = -6 has P of order 8, so [2]P and [4]P have orders 4 and 2;
    # b = 2, c = 1 has P of order 6, so [2]P has order 3.  [2]P = (1, 3) on
    # b = 1, c = 3, (3, 5) on y^2 = x^3 - 2 and (1, 1) on y^2 + xy + 3y =
    # x^3 + 2x^2 + 5x - 3 have no multiple up to 12 at O, so by Mazur
    # infinite order.  With no place, verify_order decides each check by one
    # exact test: orders 2 and 3 have no normal form, so by scalar_mul; the
    # others at their normal form's Tate origin, which leaves the tangent
    # test only at m = 6, where m = 3r and R = [r]P (m = 9 takes r = 1 and
    # R = [4]P instead), and at the m where R = O or x_r = x_R for order 4
    fallbacks = []
    monkeypatch.setattr(curves, "scalar_mul",
                        lambda e, k, point: fallbacks.append(k) or scalar_mul(e, k, point))
    monkeypatch.setattr(curves, "place_orders", lambda e, point: iter(()))
    e8, e6 = tate_over_q(3, -6), tate_over_q(2, 1)
    p8, p6 = e8.point(Q.zero(), Q.zero()), e6.point(Q.zero(), Q.zero())
    mordell = Curve(Q.zero(), Q.zero(), Q.zero(), Q.zero(), Q.from_scalar(-2))
    full = Curve(*(Q.from_scalar(a) for a in (1, 2, 3, 5, -3)))
    cases = [  # (order, point, the m that fall back to scalar_mul)
        (2, scalar_mul(e8, 4, p8), [*range(1, 13)]),
        (3, scalar_mul(e6, 2, p6), [*range(1, 13)]),
        (4, scalar_mul(e8, 2, p8), [6, 7, 9, 10, 11]),
        (None, tate_over_q(1, 3).point(Q.one(), Q.from_scalar(3)), [6]),
        (None, mordell.point(Q.from_scalar(3), Q.from_scalar(5)), [6]),
        (None, full.point(Q.one(), Q.one()), [6]),
    ]
    for order, point, expected in cases:
        fallbacks.clear()
        for n in range(1, 13):
            ks = [n] + [n // q for q in prime_factors(n)]
            checks = verify_order(point.curve, point, n).checks
            assert checks == tuple((k, order is not None and k % order == 0) for k in ks), (
                point, n)
        assert sorted(set(fallbacks)) == expected, point


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_tate_normal_form_at_every_point_of_random_curves_mod_p(p):
    # every point of random nonsingular curves with all five a_i drawn:
    # no normal form exactly at orders 1 to 3; otherwise the Tate origin
    # has the point's order and its curve's j, and verify_order gives each
    # n <= 2p + 3, past the group order (Hasse), the checks of repeated addition
    rng = random.Random(0x7A7E + p)
    desc = FieldDescriptor.prime_field(p)
    zero, top = desc.zero(), 2 * p + 3
    normalised = small = 0
    for _ in range(8):
        while (e := Curve(*(desc.from_scalar(rng.randrange(p)) for _ in range(5)))).is_singular():
            pass
        for point in [e.infinity(), *points_by_solving_for_y(e, p)]:
            multiples = multiples_by_repeated_addition(e, point, top)
            order = min(k for k in range(1, top + 1) if multiples[k].is_infinity)
            bc = tate_normal_form(e, point)
            assert (bc is None) == (order <= 3), (e, point)
            if bc is not None:
                tate = tate_curve(*bc)
                assert naive_order_of_marked_point(tate, top) == order, (e, point)
                assert tate.invariants.j == e.invariants.j, (e, point)
            for n in range(1, top + 1):
                ks = [n] + [n // q for q in prime_factors(n)]
                assert verify_order(e, point, n).checks == tuple(
                    (k, multiples[k].is_infinity) for k in ks), (e, point, n)
            normalised += bc is not None
            small += bc is None
    assert normalised > 0 and small > 0


def test_a_point_off_the_origin_of_a_tate_curve_is_normalised():
    # E_{2,2} over F_3 is in Tate form, but (0, 2) = -(0, 0) is not its
    # origin: both have order 5, and no multiple below [5]P is O
    f3 = FieldDescriptor.prime_field(3)
    two = f3.from_scalar(2)
    e = tate_curve(two, two)
    point = e.point(f3.zero(), two)
    assert naive_order_of_marked_point(e, 12) == 5
    assert tate_normal_form(e, point) == (two, two)
    assert verify_order(e, point, 5).passed
    assert verify_order(e, point, 4).checks == ((4, False), (2, False))


def test_shipped_verify_takes_three_inversions_per_fixture(monkeypatch):
    # the seeds (b, bc) and (c, b - c) are free, [h]P takes three group
    # operations and the tangent test none; a first run decides each
    # residue ring, whose unit tests also invert
    assert cli_main(["verify"]) == 0
    calls = []
    inverse = FieldElement.inverse
    monkeypatch.setattr(FieldElement, "inverse", lambda self: calls.append(self) or inverse(self))
    assert cli_main(["verify"]) == 0
    assert len(calls) == 27


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
    p, values = next(reference_good_places(e, double), None)
    assert p == 7 and values[5:] == [5, 5]
    cert = verify_order(e, double, 5)  # a point of infinite order
    assert not cert.passed and cert.checks == ((5, False), (1, False))


def test_b_invariants_match_singular_points_and_identities():
    # curve_invariants of random long Weierstrass curves over F_p, against
    # oracles that share none of its formulas: disc = 0 mod p exactly when
    # F = y^2 + a1 xy + a3 y - x^3 - a2 x^2 - a4 x - a6, F_x and F_y vanish
    # together at a point of F_p^2 (the singular point of a Weierstrass
    # cubic over a perfect field is rational), and 4 b8 = b2 b6 - b4^2,
    # 1728 disc = c4^3 - c6^2 for p >= 5
    rng = random.Random(0x19)
    singular = nonsingular = 0
    for p in (2, 3, 5, 7, 101):
        desc = FieldDescriptor.prime_field(p)
        for _ in range(100):
            a = [rng.randrange(p) for _ in range(5)]
            a1, a2, a3, a4, a6 = a
            e = Curve(*(desc.from_scalar(v) for v in a))
            inv = curve_invariants(e)
            b2, b4, b6, b8, disc = (v.flat[0] for v in (inv.b2, inv.b4, inv.b6, inv.b8, inv.disc))
            if p <= 7:
                has_singular_point = any(
                    (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % p == 0
                    and (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p == 0
                    and (2 * y + a1 * x + a3) % p == 0
                    for x in range(p) for y in range(p))
                assert (disc == 0) == has_singular_point == e.is_singular(), (p, a)
                singular += has_singular_point
                nonsingular += not has_singular_point
            if p >= 5:
                c4 = b2 * b2 - 24 * b4
                c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
                assert (4 * b8 - b2 * b6 + b4 * b4) % p == 0, (p, a)
                assert (1728 * disc - c4 ** 3 + c6 ** 2) % p == 0, (p, a)
                assert 4 * inv.b8 == inv.b2 * inv.b6 - inv.b4 * inv.b4, (p, a)
                assert 1728 * inv.disc == inv.c4 ** 3 - inv.c6 ** 2, (p, a)
    assert singular > 0 and nonsingular > 0


def order_by_addition(p, values):
    """The order of the point of a place (p, [a1, ..., a6, x, y]) over F_p,
    by repeated add_points."""
    e, point = place_curve(p, values)
    acc, order = point, 1
    while not acc.is_infinity:
        acc = add_points(e, acc, point)
        order += 1
    return order


def test_good_places_match_the_field_element_walk():
    for path in shipped_fixture_paths():
        f = load_fixture(path)
        e = tate_curve(f.b, f.c)
        zero = f.b.descriptor.zero()
        marked = e.point(zero, zero)
        expected = [(p, order_by_addition(p, values))
                    for p, values in itertools.islice(first_good_places(e, marked), 2)]
        assert len(expected) == 2, path.name
        assert list(itertools.islice(place_orders(e, marked), 2)) == expected, path.name


def test_place_orders_match_repeated_addition():
    # random Tate curves over Q with denominators: with no generators every
    # prime of CERTIFY_PRIMES prime to the denominators of b and c where
    # the reduced curve is nonsingular is a degree-1 good place
    rng = random.Random(0x77)
    primes, orders, curves_seen = set(), set(), 0
    while curves_seen < 30:
        b, c = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))
        e = tate_over_q(b, c)
        if e.is_singular():
            continue
        curves_seen += 1
        expected = []
        for p in fields.CERTIFY_PRIMES:
            if b.denominator % p and c.denominator % p:
                bp, cp = (v.numerator * pow(v.denominator, -1, p) % p for v in (b, c))
                values = [(1 - cp) % p, -bp % p, -bp % p, 0, 0, 0, 0]
                if not place_curve(p, values)[0].is_singular():
                    expected.append((p, order_by_addition(p, values)))
        assert list(place_orders(e, e.point(Q.zero(), Q.zero()))) == expected, (b, c)
        primes.update(p for p, _ in expected)
        orders.update(order for _, order in expected)
    # residue characteristics 2 and 3 are walked, and (0, 0) on a
    # nonsingular Tate curve has order at least 4
    assert {2, 3} <= primes and min(orders) >= 4


def traced_multiples(monkeypatch):
    """The m of each exact test [m]P = O over the curve's field from now on."""
    seen = []
    exact = curves._multiple_at_infinity

    def traced(e, m, point):
        seen.append(m)
        return exact(e, m, point)

    monkeypatch.setattr(curves, "_multiple_at_infinity", traced)
    return seen


@pytest.mark.parametrize("places", [0, 1, 2])
def test_verify_order_matches_exact_checks_on_a_grid_over_q(monkeypatch, places):
    # every nonsingular Tate curve over Q with |b|, |c| <= 4 and b != 0,
    # against orders by repeated addition: with no order up to 40, no [k]P
    # with k <= 40 is O; verify_order sees at most `places` good places
    claims = [*range(2, 17), 18, 20, 24, 25, 27, 32, 36, 40]
    monkeypatch.setattr(curves, "place_orders",
                        lambda e, point: itertools.islice(place_orders(e, point), places))
    exact = traced_multiples(monkeypatch)
    cases = tested = 0
    for b, c in itertools.product([*range(-4, 0), *range(1, 5)], range(-4, 5)):
        e = tate_over_q(b, c)
        if e.is_singular():
            continue
        marked = e.point(Q.zero(), Q.zero())
        order = naive_order_of_marked_point(e, max(claims))
        found = len(list(itertools.islice(place_orders(e, marked), places)))
        for n in claims:
            exact.clear()
            ks = [n] + [n // q for q in prime_factors(n)]
            checks = verify_order(e, marked, n).checks
            assert checks == tuple((k, order is not None and k % order == 0) for k in ks), (b, c, n)
            if found == 0:  # with no place, each check is its own exact test
                assert exact == ks, (b, c, n, exact)
            if found == 1:
                assert all(any(k % m == 0 for k in ks) for m in exact), (b, c, n, exact)
            assert len(exact) <= 1 or found < 2, (b, c, n, exact)
            cases += 1
            tested += len(exact)
    assert cases == 1656 and tested > 0


def test_order_at_a_good_place_may_fall_short_by_a_power_of_its_characteristic(monkeypatch):
    # b = 3, c = -6 over Q (the order-8 family b = (2t - 1)(t - 1),
    # c = b / t at t = -1/2): [4]P reduces to O at p = 2, so P has order 4
    # there and 8 at p = 5; its one possible order is lcm(4, 8) = 8
    e = tate_over_q(3, -6)
    marked = e.point(Q.zero(), Q.zero())
    assert list(itertools.islice(place_orders(e, marked), 2)) == [(2, 4), (5, 8)]
    assert naive_order_of_marked_point(e, 8) == 8
    exact = traced_multiples(monkeypatch)
    assert verify_order(e, marked, 8).checks == ((8, True), (4, False))
    assert verify_order(e, marked, 16).checks == ((16, True), (8, True))
    assert verify_order(e, marked, 4).checks == ((4, False), (2, False))
    assert exact == [8, 8]
    # at the first place alone, m = gcd(k, 4 * the 2-part of k/4): 8 for k = 8, 4 for k = 4
    monkeypatch.setattr(curves, "place_orders",
                        lambda e, point: itertools.islice(place_orders(e, point), 1))
    exact.clear()
    assert verify_order(e, marked, 8).checks == ((8, True), (4, False))
    assert exact == [8, 4]
    exact.clear()
    assert verify_order(e, marked, 24).checks == ((24, True), (12, False), (8, True))
    assert exact == [8, 4]  # [24]P and [12]P are settled by [8]P and [4]P


def test_verify_order_refuses_orders_past_the_factoring_bound(monkeypatch):
    e = tate_over_q(1, 1)
    marked = e.point(Q.zero(), Q.zero())
    cert = verify_order(e, marked, 2 ** 32 - 1)  # 3 * 5 * 17 * 257 * 65537
    assert cert.n == 2 ** 32 - 1 and not cert.passed

    def no_group_law(*args):
        raise AssertionError("the group law ran")

    # refused before any group law: trial division of 2^61 - 1 has no budget
    monkeypatch.setattr(curves, "scalar_mul", no_group_law)
    monkeypatch.setattr(curves, "_multiple_at_infinity", no_group_law)
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

