"""Group law, invariants, order certificates, and the coordinate map."""

import random
from fractions import Fraction

import pytest

from x1torsion import (
    Curve,
    CurveError,
    DegenerateCoordinatesError,
    FieldDescriptor,
    FieldElement,
    PointNotOnCurveError,
    SingularCurveError,
    TateParams,
    add_points,
    curve_invariants,
    load_fixture,
    negate,
    scalar_mul,
    shipped_fixture_paths,
    sutherland_to_tate,
    tate_curve,
    verify_order,
)
from x1torsion.curves import prime_factors

from support import (
    check_closed_forms,
    check_closure,
    check_group_laws,
    check_naive_vs_double_add,
    check_scalar_homomorphism,
    random_point,
    random_tate_curve,
)

Q = FieldDescriptor.rationals()
F101 = FieldDescriptor.prime_field(101)


def tate_over_q(b, c):
    return tate_curve(TateParams(Q.from_scalar(b), Q.from_scalar(c)))


# ------------------------------------------------------------- construction

def test_tate_coefficients():
    e = tate_over_q(0, 0)
    assert (e.a1, e.a2, e.a3, e.a4, e.a6) == (Q.one(), Q.zero(), Q.zero(), Q.zero(), Q.zero())
    e = tate_over_q(1, 1)
    assert (e.a1, e.a2, e.a3) == (Q.zero(), Q.from_int(-1), Q.from_int(-1))
    assert e.a4.is_zero() and e.a6.is_zero()


def test_marked_point_is_always_on_curve():
    rng = random.Random(3)
    for _ in range(20):
        _, e = random_tate_curve(rng, F101)
        e.point(F101.zero(), F101.zero())  # must not raise


def test_off_curve_point_rejected():
    e = tate_over_q(1, 1)
    with pytest.raises(PointNotOnCurveError):
        e.point(Q.from_int(1), Q.from_int(2))
    with pytest.raises(ValueError):
        e.point(Q.zero(), None)


def test_invariants_singular_origin():
    inv = curve_invariants(tate_over_q(0, 0))
    assert inv.b2 == 1 and inv.b4.is_zero() and inv.b6.is_zero() and inv.b8.is_zero()
    assert inv.disc.is_zero() and inv.j is None


def test_invariants_of_five_torsion_curve():
    inv = curve_invariants(tate_over_q(1, 1))
    assert inv.disc == Q.from_int(-11)
    assert inv.j == Q.from_scalar(Fraction(-4096, 11))


def test_invariant_identities_random():
    rng = random.Random(8)
    for desc in (Q, F101):
        for _ in range(50):
            b = desc.from_scalar(rng.randint(-9, 9)) if desc is Q else desc.from_int(rng.randrange(101))
            c = desc.from_scalar(rng.randint(-9, 9)) if desc is Q else desc.from_int(rng.randrange(101))
            inv = curve_invariants(tate_curve(TateParams(b, c)))
            assert 4 * inv.b8 == inv.b2 * inv.b6 - inv.b4 * inv.b4
            assert 1728 * inv.disc == inv.c4 ** 3 - inv.c6 ** 2


def test_invariants_match_disc_rederived_from_identity():
    # recompute disc through the b8 identity instead of the direct formula
    f5 = FieldDescriptor.prime_field(5)
    inv = curve_invariants(tate_curve(TateParams(f5.one(), f5.one())))
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
        params, e = random_tate_curve(rng, F101)
        marked = e.point(F101.zero(), F101.zero())
        d = add_points(e, marked, marked)
        assert (d.x, d.y) == (params.b, params.b * params.c)


def test_doubling_inverts_once(monkeypatch):
    params = load_fixture(shipped_fixture_paths()[-1]).params()  # n37_deg6
    e = tate_curve(params)
    zero = params.b.descriptor.zero()
    marked = e.point(zero, zero)
    calls = []
    inverse = FieldElement.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(FieldElement, "inverse", counted)
    double = add_points(e, marked, marked)
    assert len(calls) == 1
    assert (double.x, double.y) == (params.b, params.b * params.c)


def test_tripling_closed_form():
    rng = random.Random(9)
    for _ in range(40):
        params, e = random_tate_curve(rng, F101)
        marked = e.point(F101.zero(), F101.zero())
        t = scalar_mul(e, 3, marked)
        assert (t.x, t.y) == (params.c, params.b - params.c)


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


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(2) == [2]
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(37) == [37]
    assert prime_factors(2 ** 10 * 31) == [2, 31]
    with pytest.raises(ValueError):
        prime_factors(0)


# ------------------------------------------------------------ coordinate map

def test_coordinate_map_degenerate_inputs():
    with pytest.raises(DegenerateCoordinatesError):
        sutherland_to_tate(Q.one(), Q.one())  # x^2 y - x = 0
    with pytest.raises(DegenerateCoordinatesError):
        sutherland_to_tate(Q.from_int(2), Q.zero())  # x y = 0


def test_coordinate_map_hand_value():
    params = sutherland_to_tate(Q.from_int(2), Q.one())
    assert params.b.is_zero() and params.c.is_zero()


def test_coordinate_map_second_code_path():
    rng = random.Random(0x77)
    checked = 0
    while checked < 100:
        x = F101.from_int(rng.randrange(101))
        y = F101.from_int(rng.randrange(101))
        if (x * x * y - x).is_zero() or (x * y).is_zero():
            continue
        params = sutherland_to_tate(x, y)
        # independent re-derivation of r and s
        r = (x * x * y - x * y + y - 1) * (x * x * y - x).inverse()
        s = (x * y - y + 1) * (x * y).inverse()
        assert params.b == r * s * (r - 1)
        assert params.c == s * (r - 1)
        checked += 1


def test_coordinate_map_lands_on_torsion_curve():
    # a map output with disc != 0 carries (0,0) as a point of order >= 4
    rng = random.Random(0x88)
    found = 0
    while found < 10:
        x = F101.from_int(rng.randrange(101))
        y = F101.from_int(rng.randrange(101))
        try:
            params = sutherland_to_tate(x, y)
        except DegenerateCoordinatesError:
            continue
        e = tate_curve(params)
        if e.invariants.disc.is_zero():
            continue
        marked = e.point(F101.zero(), F101.zero())
        for n in (1, 2, 3):
            assert not scalar_mul(e, n, marked).is_infinity
        found += 1
