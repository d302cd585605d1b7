"""Field arithmetic: construction, canonical forms, axioms, inversion."""

import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from x1torsion import (
    DescriptorMismatchError,
    FieldDescriptor,
    FieldZeroDivision,
    ShapeError,
    ZeroDivisorError,
    fields,
    is_prime,
    load_fixture,
    shipped_fixture_paths,
)
from x1torsion.fields import MAX_MODULUS, _eliminate, parse_rational

from support import check_inversion, check_ring_axioms, random_element, random_nonzero

Q = FieldDescriptor.rationals()
QTAU = FieldDescriptor.rationals([("tau", [-1, -1, 1])])
QAT = FieldDescriptor.rationals([("alpha", [-1, -2, 1, 1]), ("tau", [-1, -1, 1])])
F10007 = FieldDescriptor.prime_field(10007)
F7T = FieldDescriptor.prime_field(7, [("t", [1, 0, 1])])
F5UV = FieldDescriptor.prime_field(5, [("u", [2, 0, 1]), ("v", [1, 1, 0, 1])])
# monic minpolys with non-integral coefficients, so the fold rows carry a scale:
# r^3 - r/2 - 1/3 (no rational root), and u^3 - u - 1 beside v^2 + v/2 + 1,
# a cubic field and Q(sqrt(-15)) whose tensor product is a field of degree 6
QR = FieldDescriptor.rationals([("r", ["-1/3", "-1/2", "0", "1"])])
QUV = FieldDescriptor.rationals([("u", [-1, -1, 0, 1]), ("v", ["1", "1/2", "1"])])

ALL_FIELDS = [Q, QTAU, QAT, QR, QUV, F10007, F7T, F5UV]

# three quadratic generators over F_3: w^2 + w + 1 = (w - 1)^2, so a ring only
F3UVW = FieldDescriptor.prime_field(3, [("u", [1, 0, 1]), ("v", [2, 2, 1]), ("w", [1, 1, 1])])

# more shapes for the chained inverse columns (QR and QUV carry fold scales):
# three generators of coprime degrees 2, 3, 5 over F_2 (irreducible, so the
# field F_{2^30}), and degree-1 generators (h = 1/2, k = -3), which never
# carry a chain step, in the middle, first and last
F2UVW = FieldDescriptor.prime_field(
    2, [("u", [1, 1, 1]), ("v", [1, 1, 0, 1]), ("w", [1, 0, 1, 0, 0, 1])])
QUHV = FieldDescriptor.rationals(
    [("u", [-1, -1, 0, 1]), ("h", ["-1/2", "1"]), ("v", ["1", "1/2", "1"])])
QKT = FieldDescriptor.rationals([("k", [3, 1]), ("tau", [-1, -1, 1])])
QTK = FieldDescriptor.rationals([("tau", [-1, -1, 1]), ("k", [3, 1])])
CHAIN_SHAPES = [F2UVW, QUHV, QKT, QTK]


# ---------------------------------------------------------------- descriptors

def test_descriptor_dimensions():
    assert Q.dimension == 1
    assert QTAU.dimension == 2
    assert QAT.dimension == 6 and QAT.degrees == (3, 2)
    assert F5UV.dimension == 6
    assert not QAT.is_finite and F7T.is_finite


def test_descriptor_rejects_bad_modulus():
    with pytest.raises(ValueError):
        FieldDescriptor.prime_field(6)
    with pytest.raises(ValueError):
        FieldDescriptor.prime_field(MAX_MODULUS + 7)


def test_descriptor_rejects_bad_generators():
    with pytest.raises(ValueError):
        FieldDescriptor.rationals([("t", [1, 2])])  # not monic
    with pytest.raises(ValueError):
        FieldDescriptor.rationals([("t", [1])])  # degree 0
    with pytest.raises(ValueError):
        FieldDescriptor.rationals([("t", [0, 1]), ("t", [0, 1])])  # duplicate name


F5 = FieldDescriptor.prime_field(5)


@pytest.mark.parametrize("call, outcome", [
    (lambda: Q.from_scalar(True), ValueError("bool is not a scalar")),
    (lambda: Q.from_scalar(1.5), ValueError("cannot coerce 1.5 to a field scalar")),
    # 2^62 + 135 is the first prime past the bound, so the size check speaks
    (lambda: FieldDescriptor.prime_field(MAX_MODULUS + 135),
     ValueError("modulus 4611686018427388039 exceeds the machine-width bound 2^62")),
    (lambda: FieldDescriptor.prime_field(5, [("", [1, 1])]), ValueError("empty generator name")),
    (lambda: F7T.gen("x"), ValueError("no generator named 'x'")),
    (lambda: F7T.gen(1), ValueError("generator index 1 out of range")),
    (lambda: next(Q.iter_elements()), ValueError("cannot enumerate an infinite field")),
    # 1/5 has no residue mod 5: no sum, and equal to no element
    (lambda: F5.one() + Fraction(1, 5), TypeError("unsupported operand type")),
    (lambda: F5.one() == Fraction(1, 5), False),
], ids=["bool", "float", "modulus-bound", "empty-name", "gen-name", "gen-index",
        "enumerate-q", "add-fifth-mod-5", "eq-fifth-mod-5"])
def test_refused_inputs_raise_where_they_enter(call, outcome):
    if isinstance(outcome, Exception):
        with pytest.raises(type(outcome), match=re.escape(str(outcome))):
            call()
    else:
        assert call() is outcome


def test_is_prime_small_and_carmichael():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(561) and not is_prime(1)  # Carmichael number, unit
    # strong pseudoprimes to every base below 11, 13, 17, 23 and 37 in turn,
    # so each is exposed only by a late witness; then 41 * 61 * 101, one to base 2
    for n in (3215031751, 2152302898747, 3474749660383, 341550071728321,
              3825123056546413051, 252601):
        assert not is_prime(n), n
    assert is_prime(10007) and is_prime((1 << 61) - 1)


# ------------------------------------------------------------ worked examples

def test_golden_ratio_square():
    tau = QAT.gen("tau")
    assert tau * tau == tau + 1


def test_cube_generator_reduction():
    alpha = QAT.gen("alpha")
    assert alpha * (alpha * alpha) == -(alpha * alpha) + 2 * alpha + 1


def test_known_tower_element_coordinates():
    # (6*tau-3)*alpha^2 + (14*tau-8)*alpha + (5*tau-3), assembled by arithmetic,
    # must land on the expected dense coordinate array
    alpha, tau = QAT.gen("alpha"), QAT.gen("tau")
    b = (6 * tau - 3) * alpha ** 2 + (14 * tau - 8) * alpha + 5 * tau - 3
    assert b.to_text() == [["-3", "5"], ["-8", "14"], ["-3", "6"]]
    assert str(b) == "[[-3, 5], [-8, 14], [-3, 6]]"


def test_invert_one_and_golden_ratio():
    assert Q.one().inverse() == 1
    tau = QTAU.gen(0)
    assert tau.inverse() == tau - 1


def test_invert_cubic_generator():
    qa = FieldDescriptor.rationals([("alpha", [-1, -2, 1, 1])])
    alpha = qa.gen(0)
    expected = alpha * alpha + alpha - 2
    assert alpha.inverse() == expected
    assert alpha * expected == 1


# ------------------------------------------------------- randomized properties

@pytest.mark.parametrize("desc", ALL_FIELDS + [F3UVW], ids=repr)
def test_ring_axioms_thousand_samples(desc):
    assert check_ring_axioms(desc, 1000, seed=0xA5A5) == 1000


@pytest.mark.parametrize("desc", ALL_FIELDS + CHAIN_SHAPES, ids=repr)
def test_inversion_five_hundred_samples(desc):
    assert check_inversion(desc, 500, seed=0x1DE1) == 500


def test_inversion_with_fold_scale_matches_sympy():
    sympy = pytest.importorskip("sympy")
    r = sympy.Symbol("r")
    minpoly = sympy.Poly(r ** 3 - r / 2 - sympy.Rational(1, 3), r, domain="QQ")
    rng = random.Random(0x5CA1E)
    for _ in range(20):
        x = random_nonzero(rng, QR)
        coeffs = [sympy.Rational(v.numerator, v.denominator) for v in x.flat_coords()]
        inv = sympy.invert(sympy.Poly(list(reversed(coeffs)), r, domain="QQ"), minpoly)
        expected = [Fraction(int(v.p), int(v.q)) for v in reversed(inv.all_coeffs())]
        assert x.inverse().flat_coords() == tuple(expected + [Fraction(0)] * (3 - len(expected)))


def test_division_round_trip():
    rng = random.Random(77)
    for desc in (QAT, F7T, F5UV):
        for _ in range(50):
            x = random_element(rng, desc)
            y = random_element(rng, desc)
            if y.is_zero():
                continue
            assert (x / y) * y == x


def test_pow_negative_and_fermat():
    rng = random.Random(5)
    f = FieldDescriptor.prime_field(101)
    for _ in range(30):
        x = f.from_scalar(rng.randrange(1, 101))
        assert x ** 100 == 1
        assert x ** -1 == x.inverse()
        assert x ** 0 == 1


def test_pow_starts_from_the_leading_bit(monkeypatch):
    x = F7T.gen(0) + 2
    expected = x * x * x * x * x * x * x * x * x * x * x * x * x
    products = []
    mul = type(x).__mul__

    def counted(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(type(x), "__mul__", counted)
    # 13 = 0b1101: three squarings and two products by x, none by one
    assert x ** 13 == expected
    assert len(products) == 5
    assert all(a != 1 and b != 1 for a, b in products)


# --------------------------------------------------------------- zero handling

def test_zero_division_raises():
    with pytest.raises(FieldZeroDivision):
        Q.zero().inverse()
    # the error doubles as the standard zero-division type
    with pytest.raises(ZeroDivisionError):
        QAT.one() / QAT.zero()


def test_zero_divisor_detected_in_ring():
    ring = FieldDescriptor.rationals([("t", [-1, 0, 1])])  # t^2 = 1, not a field
    t = ring.gen(0)
    with pytest.raises(ZeroDivisorError):
        (t - 1).inverse()
    # units still invert fine
    assert t * t.inverse() == 1
    assert (t - 1) * (t + 1) == ring.zero()


def test_zero_divisor_detected_over_prime_field():
    ring = FieldDescriptor.prime_field(5, [("t", [-1, 0, 1])])  # t^2 = 1 over F_5
    t = ring.gen(0)
    with pytest.raises(ZeroDivisorError):
        (t - 1).inverse()
    assert t * t.inverse() == 1
    assert (t + 2).inverse() * (t + 2) == 1


def test_three_generator_relations_and_layout():
    u, v, w = (F3UVW.gen(name) for name in "uvw")
    assert u * u == -1
    assert v * v == v + 1
    assert w * w == -w - 1
    # first generator's exponent is the most significant flat digit
    assert u.flat_coords() == (0, 0, 0, 0, 1, 0, 0, 0)
    assert (u * v * w).flat_coords() == (0, 0, 0, 0, 0, 0, 0, 1)
    assert (u * v * w).coords == (((0, 0), (0, 0)), ((0, 0), (0, 1)))


# ------------------------------------------------------------- canonical forms

def test_rational_text_canonicalization():
    assert str(parse_rational("2/4")) == "1/2"
    assert str(parse_rational("-0")) == "0"
    assert str(parse_rational("7")) == "7"
    assert str(parse_rational("-6/3")) == "-2"
    for bad in ("", "1/0", "a", "1.5", "1/-2", "+3", "1/2/3"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_element_text_round_trip():
    rng = random.Random(0xBEEF)
    for desc in ALL_FIELDS:
        for _ in range(40):
            x = random_element(rng, desc)
            text = x.to_text()
            assert desc.from_coords(text) == x
            # serialize -> parse -> serialize is the identity
            assert desc.from_coords(text).to_text() == text


def test_from_coords_validates_shape():
    with pytest.raises(ShapeError) as err:
        QAT.from_coords([[1, 2], [3, 4]], where="b")
    assert "b" in str(err.value)
    with pytest.raises(ShapeError):
        QAT.from_coords([[1, 2, 3], [0, 0], [0, 0]])
    with pytest.raises(ShapeError) as err:
        QTAU.from_coords(["1", "nope"])
    assert "[1]" in str(err.value)  # the offending position is named


def test_fraction_coercion_mod_p():
    f7 = FieldDescriptor.prime_field(7)
    assert f7.from_scalar(Fraction(1, 2)) == f7.from_scalar(4)  # 2*4 = 1 mod 7
    with pytest.raises(ValueError):
        f7.from_scalar(Fraction(1, 7))  # denominator divisible by p


def test_descriptor_mismatch_is_structural_error():
    with pytest.raises(DescriptorMismatchError):
        QTAU.gen(0) + QAT.gen("tau")


def test_elements_hashable_and_comparable():
    xs = {QTAU.gen(0), QTAU.gen(0) + 1, QTAU.gen(0)}
    assert len(xs) == 2
    assert QTAU.gen(0) != QTAU.zero()
    assert Q.from_scalar(Fraction(3, 2)) == Fraction(3, 2)
    assert F7T.from_scalar(9) == 2


def test_mixed_scalar_arithmetic():
    tau = QTAU.gen(0)
    assert 2 * tau - tau == tau
    assert (tau + Fraction(1, 2)) - Fraction(1, 2) == tau
    assert 1 / tau == tau - 1
    assert (6 - tau) + tau == 6


def _assert_canonical_q(z):
    assert all(type(v) is int for v in z.flat) and type(z.den) is int
    # gcd(den, 0, ..., 0) = den, so this also pins zero to den = 1
    assert z.den > 0 and math.gcd(z.den, *z.flat) == 1


@pytest.mark.parametrize("desc", [Q, QTAU, QAT, QR, QUV], ids=repr)
def test_q_results_are_canonical_and_hash_by_value(desc):
    rng = random.Random(0xD1CE)
    for _ in range(100):
        x = random_element(rng, desc)
        y = random_nonzero(rng, desc)
        results = [x + y, x - y, x * y, x / y, y.inverse(), -x, 2 * x, x - x, y * y.inverse()]
        for z in results:
            _assert_canonical_q(z)
        assert (x - x).flat == (0,) * desc.dimension and (x - x).den == 1
        # the same values reached by other routes are equal and hash equal
        twins = [(x + y, y + x), (x * y, y * x), ((x + y) - y, x), ((x / y) * y, x),
                 (y.inverse().inverse(), y), (x * y, desc.from_coords((x * y).to_text()))]
        for a, b in twins:
            assert a == b and hash(a) == hash(b)
        assert len({x * y, y * x, desc.from_coords((x * y).coords)}) == 1


def test_rational_minpoly_generator_relations():
    r = QR.gen(0)
    assert r ** 3 == r / 2 + Fraction(1, 3)
    assert r ** 3 * 6 == 3 * r + 2
    u, v = QUV.gen("u"), QUV.gen("v")
    assert u ** 3 == u + 1
    assert v * v == -v / 2 - 1
    assert (v * v).den == 2 and (v * v).to_text() == [["-1", "-1/2"], ["0", "0"], ["0", "0"]]


def test_prime_field_layout_is_residues_over_one():
    for desc in (F7T, F5UV, FieldDescriptor.prime_field(3, [("t", [1, 0, 1])])):
        p = desc.base
        expected = itertools.product(range(p), repeat=desc.dimension)
        for z, flat in zip(desc.iter_elements(), expected):
            assert z.den == 1 and z.flat == flat and z.flat_coords() == flat
        rng = random.Random(3)
        for _ in range(50):
            x, y = random_element(rng, desc), random_nonzero(rng, desc)
            for z in (x + y, x - y, x * y, -x, y.inverse(), 3 * x):
                assert z.den == 1 and all(type(v) is int and 0 <= v < p for v in z.flat)


def test_q_coordinates_come_back_as_the_supplied_fractions():
    values = [[Fraction(-3, 4), Fraction(5, 6)],
              [Fraction(0), Fraction(7)],
              [Fraction(1, 9), Fraction(-2, 3)]]
    x = QAT.from_coords(values)
    assert x.den == 36 and x.flat == (-27, 30, 0, 252, 4, -24)
    assert x.coords == tuple(tuple(row) for row in values)
    assert x.flat_coords() == tuple(v for row in values for v in row)
    assert all(type(v) is Fraction for v in x.flat_coords())
    assert Q.from_scalar(Fraction(-5, 10)).coords == Fraction(-1, 2)
    assert type(Q.from_scalar(4).coords) is Fraction


def test_degree_eleven_field_matches_sympy():
    sympy = pytest.importorskip("sympy")
    path = Path(__file__).resolve().parent.parent / "src" / "x1torsion" / "data" / "n31_deg11a.json"
    record = json.loads(path.read_text())
    (gen,) = record["generators"]
    desc = FieldDescriptor.rationals([(gen["name"], gen["minpoly"])])
    a = sympy.Symbol("a")

    def to_sympy(el):
        coeffs = [sympy.Rational(v.numerator, v.denominator) for v in el.flat_coords()]
        return sympy.Poly(list(reversed(coeffs)), a, domain="QQ")

    def from_sympy(poly):
        coeffs = [Fraction(int(v.p), int(v.q)) for v in reversed(poly.all_coeffs())]
        return desc.from_coords(coeffs + [Fraction(0)] * (desc.dimension - len(coeffs)))

    minpoly_coeffs = [sympy.Rational(s) for s in gen["minpoly"]]
    minpoly = sympy.Poly(list(reversed(minpoly_coeffs)), a, domain="QQ")
    b, c = desc.from_coords(record["b"]), desc.from_coords(record["c"])
    elements = [b, c, b * c, b + c]
    for x in elements:
        for y in elements:
            assert x * y == from_sympy(sympy.rem(to_sympy(x) * to_sympy(y), minpoly))
        assert x.inverse() == from_sympy(sympy.invert(to_sympy(x), minpoly))


# ------------------------------------------------- tower consistency oracle

def _reduce_bivariate(poly):
    """Oracle reduction: alpha^3 -> -alpha^2+2alpha+1, tau^2 -> tau+1.

    Treats elements of the two-generator tower as {(i, j): Fraction}
    exponent dictionaries, fully independent of the package internals.
    """
    work = {k: v for k, v in poly.items() if v != 0}
    while True:
        key = next((k for k in work if k[0] >= 3 or k[1] >= 2), None)
        if key is None:
            return {k: v for k, v in work.items() if v != 0}
        i, j = key
        coeff = work.pop(key)
        if i >= 3:
            for di, dc in ((2, Fraction(-1)), (1, Fraction(2)), (0, Fraction(1))):
                k2 = (i - 3 + di, j)
                work[k2] = work.get(k2, Fraction(0)) + coeff * dc
        else:
            for dj, dc in ((1, Fraction(1)), (0, Fraction(1))):
                k2 = (i, j - 2 + dj)
                work[k2] = work.get(k2, Fraction(0)) + coeff * dc


def _oracle_mul(x, y):
    out = {}
    for (i1, j1), c1 in x.items():
        for (i2, j2), c2 in y.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return _reduce_bivariate(out)


def _tower_to_dict(el):
    out = {}
    for i, inner in enumerate(el.coords):
        for j, coeff in enumerate(inner):
            if coeff != 0:
                out[(i, j)] = coeff
    return out


def _dict_to_tower(d):
    coords = [[d.get((i, j), Fraction(0)) for j in range(2)] for i in range(3)]
    return QAT.from_coords(coords)


def test_tower_multiplication_matches_independent_model():
    rng = random.Random(0xCAFE)
    for _ in range(200):
        x = random_element(rng, QAT)
        y = random_element(rng, QAT)
        expected = _dict_to_tower(_oracle_mul(_tower_to_dict(x), _tower_to_dict(y)))
        assert x * y == expected


# ------------------------------------------------------------------ Frobenius

@pytest.mark.parametrize("p,minpoly", [(7, [1, 0, 1]), (2, [1, 1, 0, 1]), (3, [1, -1, 0, 1])])
def test_frobenius_fixes_every_element(p, minpoly):
    desc = FieldDescriptor.prime_field(p, [("t", minpoly)])
    q = p ** desc.dimension
    count = 0
    for z in desc.iter_elements():
        assert z ** q == z
        count += 1
    assert count == q


def test_enumeration_is_sorted_and_complete():
    f9 = FieldDescriptor.prime_field(3, [("t", [1, 0, 1])])
    flats = [z.flat_coords() for z in f9.iter_elements()]
    assert len(flats) == 9 == len(set(flats))
    assert flats == sorted(flats)


def test_linear_generator_matches_prime_field():
    plain = FieldDescriptor.prime_field(7)
    lifted = FieldDescriptor.prime_field(7, [("t", [3, 1])])  # t = -3 = 4
    assert lifted.dimension == 1
    assert lifted.gen(0) == lifted.from_scalar(4)
    for a in range(7):
        for b in range(7):
            lhs = (lifted.from_scalar(a) * lifted.from_scalar(b)).flat_coords()
            rhs = (plain.from_scalar(a) * plain.from_scalar(b)).flat_coords()
            assert lhs == rhs


# --------------------------------------------------------------- linear solves
# _eliminate is the one elimination route: FieldElement.inverse solves with it
# over Q, and over F_p it multiplies the Cramer numerators by det^-1 mod p.

def _solve_q(matrix, rhs):
    """x with M x = rhs over Q, or None when M is singular; each row of
    [M | rhs] is scaled to integers, which leaves x unchanged."""
    aug = []
    for row, r in zip(matrix, rhs):
        row = [Fraction(v) for v in row] + [Fraction(r)]
        scale = math.lcm(*(v.denominator for v in row))
        aug.append([int(v * scale) for v in row])
    det, nums = _eliminate(aug)
    return None if not det else [Fraction(v, det) for v in nums]


def _solve_mod_p(matrix, rhs, p):
    """x with M x = rhs over F_p, or None when M is singular mod p, the way
    FieldElement.inverse reads the elimination over F_p."""
    det, nums = _eliminate([list(row) + [r] for row, r in zip(matrix, rhs)])
    if det % p == 0:
        return None
    inv = pow(det, -1, p)
    return [v * inv % p for v in nums]


def test_solve_rational_known_system():
    assert _eliminate([[2, 1, 5], [1, 3, 10]]) == (5, [5, 15])  # x = 1, y = 3
    assert _solve_q([[2, 1], [1, 3]], [5, 10]) == [Fraction(1), Fraction(3)]
    assert _eliminate([[1, 2, 1], [2, 4, 1]]) == (0, None)


def test_solve_mod_p_known_system():
    assert _solve_mod_p([[2, 1], [1, 3]], [0, 1], 7) == [4, 6]  # 2*4+6=14, 4+3*6=22
    assert _solve_mod_p([[1, 0], [0, 1]], [4, 2], 7) == [4, 2]
    assert _solve_mod_p([[1, 2], [2, 4]], [1, 1], 5) is None


def _det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def test_solve_rational_property():
    rng = random.Random(0x501)
    entries = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2)]
    singular = 0
    for _ in range(300):
        n = rng.randrange(1, 5)
        m = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        if n > 2 and rng.random() < 0.3:  # make the last row depend on the first two
            m[-1] = [a - 2 * b for a, b in zip(m[0], m[1])]
        rhs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(n)]
        sol = _solve_q(m, rhs)
        if _det(m) == 0:
            singular += 1
            assert sol is None
        else:
            assert all(sum(a * x for a, x in zip(row, sol)) == r for row, r in zip(m, rhs))
    assert 30 < singular < 270  # both outcomes were exercised


def test_solve_mod_p_singular_mod_p_only():
    # det = -5: invertible over Q, singular over F_5
    m = [[1, 2], [3, 1]]
    assert _eliminate([[1, 2, 1], [3, 1, 0]]) == (-5, [1, -3])
    assert _solve_q(m, [1, 0]) == [Fraction(-1, 5), Fraction(3, 5)]
    assert _solve_mod_p(m, [1, 0], 5) is None
    assert _solve_mod_p(m, [1, 0], 7) == [4, 2]  # 4 + 4 = 8 = 1 and 12 + 2 = 14 = 0 mod 7


def test_solve_mod_p_agrees_with_substitution():
    rng = random.Random(11)
    solved = 0
    for _ in range(40):
        p = 11
        m = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        rhs = [rng.randrange(p) for _ in range(3)]
        sol = _solve_mod_p(m, rhs, p)
        if sol is None:
            assert _det(m) % p == 0
            continue
        solved += 1
        for i in range(3):
            assert sum(m[i][j] * sol[j] for j in range(3)) % p == rhs[i] % p
    assert solved > 30


# --------------------------------------------------------------- residue walk

def test_residue_walk_skips_primes_in_denominators(monkeypatch):
    # r^3 - r/2 - 1/3 is not 2- or 3-integral, and x = r/5 is not 5-integral
    x = QR.gen(0) * Fraction(1, 5)
    assert [A.base for A in QR.residues()] == [p for p in fields.CERTIFY_PRIMES if p > 3]
    rings = list(QR.residues(x))
    assert [A.base for A in rings] == [p for p in fields.CERTIFY_PRIMES if p > 5]
    f7 = rings[0]
    assert f7 == FieldDescriptor.prime_field(7, [("r", ["-1/3", "-1/2", "0", "1"])])
    assert f7.generators[0].minpoly == (2, 3, 0, 1)  # -1/3 = 2 and -1/2 = 3 mod 7
    assert f7.image(x) == f7.gen(0) * 3  # 1/5 = 3 mod 7
    with pytest.raises(ValueError):
        FieldDescriptor.prime_field(5, [("r", ["-1/3", "-1/2", "0", "1"])]).image(x)
    with pytest.raises(DescriptorMismatchError):
        f7.image(QTAU.gen(0))
    with pytest.raises(ValueError):
        next(F7T.residues())
    # the walk reads the prime list when it starts, not when it is defined
    monkeypatch.setattr(fields, "CERTIFY_PRIMES", (2, 5, 11))
    assert [A.base for A in QR.residues(x)] == [11]


def test_descriptors_are_shared_per_process():
    path = shipped_fixture_paths()[0]
    assert load_fixture(path).b.descriptor is load_fixture(path).b.descriptor
    walk = list(QAT.residues())
    assert len(walk) > 10
    assert all(a is b for a, b in zip(walk, QAT.residues(), strict=True))
    assert FieldDescriptor.prime_field(7, [("t", ["1", 0, 8])]) is FieldDescriptor.prime_field(
        7, [("t", [1, 0, 1])])
    # invalid input raises as it did before the table, and is not kept
    with pytest.raises(ValueError, match="modulus 6 is not prime"):
        FieldDescriptor.prime_field(6)
    with pytest.raises(ValueError, match="not monic"):
        FieldDescriptor.prime_field(3, [("t", [1, 0, 3])])
    with pytest.raises(ValueError, match="not monic"):
        FieldDescriptor.rationals([("t", [1, 2])])
    assert FieldDescriptor.prime_field(2).base == 2
    with pytest.raises(ValueError, match="modulus 2.0 is not prime"):
        FieldDescriptor.prime_field(2.0)  # equal to a kept key, but not an int


def test_descriptor_table_is_bounded_and_evicted_fields_agree():
    ring = FieldDescriptor.prime_field(7, [("t", [5, 0, 1])])  # t^2 - 2 = (t - 3)(t - 4)
    x = ring.gen(0) + 2
    expected = (x * x, x.inverse(), ring.minpoly_roots)
    assert expected[2] == ((3, 4),)
    bound = fields._interned.cache_info().maxsize
    for k in range(bound + 10):
        FieldDescriptor.prime_field(10007, [("t", [k, 1])])
    assert fields._interned.cache_info().currsize == bound
    again = FieldDescriptor.prime_field(7, [("t", [5, 0, 1])])
    assert again is not ring and again == ring
    y = again.gen(0) + 2
    assert (y * y, y.inverse(), again.minpoly_roots) == expected


def test_residue_image_is_a_ring_homomorphism():
    rng = random.Random(0x1A)
    for path in shipped_fixture_paths():
        desc = load_fixture(path).b.descriptor
        xs = [random_element(rng, desc) for _ in range(5)]
        rings = list(itertools.islice(desc.residues(*xs), 2))
        assert len(rings) == 2, path.name
        for A in rings:
            image = A.image
            assert image(desc.one()) == A.one()
            for x, y in itertools.combinations(xs, 2):
                assert image(x * y) == image(x) * image(y), (path.name, A.base)
                assert image(x + y) == image(x) + image(y), (path.name, A.base)
