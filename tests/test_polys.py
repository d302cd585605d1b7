"""Irreducibility over F_p and Q, and the moduli the extension scans use."""

import itertools
from fractions import Fraction

import pytest

from x1torsion import (
    FieldDescriptor,
    FieldError,
    certify_irreducible_over_q,
    find_irreducible,
    is_irreducible_mod_p,
    polys,
)

from support import brute_generates_field, brute_is_field


def _divides(g, f, p):
    """Whether the monic g divides f over F_p (coefficients constant first)."""
    rem = [v % p for v in f]
    for shift in range(len(rem) - len(g), -1, -1):
        top = rem[shift + len(g) - 1]
        for i, b in enumerate(g):
            rem[shift + i] = (rem[shift + i] - top * b) % p
    return not any(rem)


def _monics(p, degree):
    for tail in itertools.product(range(p), repeat=degree):
        yield list(tail) + [1]


def test_irreducibility_quadratics_mod_3():
    assert is_irreducible_mod_p([1, 0, 1], 3) is True
    # oracle for the same claim: no root in F_3
    assert all((z * z + 1) % 3 for z in range(3))
    assert is_irreducible_mod_p([-1, 0, 1], 3) is False
    assert is_irreducible_mod_p([2, 1], 3) is True  # linear


def test_irreducibility_matches_trial_division():
    # every monic cubic over F_3, against dividing by all 9 monic linears
    # and 9 monic quadratics
    for f in _monics(3, 3):
        has_factor = any(_divides(g, f, 3) for deg in (1, 2) for g in _monics(3, deg))
        assert is_irreducible_mod_p(f, 3) == (not has_factor), f


def test_irreducibility_matches_root_count_up_to_degree_3():
    # below degree 4 a polynomial is reducible exactly when it has a root
    for p in (2, 3, 5):
        for degree in (1, 2, 3):
            for f in _monics(p, degree):
                has_root = any(sum(c * z ** i for i, c in enumerate(f)) % p == 0
                               for z in range(p))
                assert is_irreducible_mod_p(f, p) == (degree == 1 or not has_root), (f, p)


def test_irreducibility_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for p, top in ((2, 8), (3, 5)):
        for degree in range(1, top + 1):
            for f in _monics(p, degree):
                oracle = sympy.Poly(list(reversed(f)), x, modulus=p).is_irreducible
                assert is_irreducible_mod_p(f, p) == oracle, (f, p)


def check_ring_against_search(ring):
    """The memo and generates_field on every element of a ring, against search."""
    is_field = brute_is_field(ring)
    assert polys._is_field(ring) is is_field, ring
    for theta in ring.iter_elements():
        assert polys.generates_field(theta) is brute_generates_field(theta, is_field), theta
    return is_field


@pytest.mark.parametrize("p", [2, 3])
def test_one_generator_rings_agree_with_search(p):
    fields = 0
    for degree in range(1, 5):
        for f in _monics(p, degree):
            ring = FieldDescriptor.prime_field(p, [("t", f)])
            fields += check_ring_against_search(ring)
            assert is_irreducible_mod_p(f, p) is polys._is_field(ring)
    # the irreducible monics of degree 1 to 4: 2 + 1 + 2 + 3 over F_2, 3 + 3 + 8 + 18 over F_3
    assert fields == {2: 8, 3: 32}[p]


def test_two_generator_rings_agree_with_search():
    fields = 0
    for d1, d2 in itertools.product(range(1, 4), range(1, 3)):
        for f, g in itertools.product(_monics(2, d1), _monics(2, d2)):
            ring = FieldDescriptor.prime_field(2, [("u", f), ("v", g)])
            fields += check_ring_against_search(ring)
    # 2, 1 and 2 irreducibles of degree 1, 2 and 3 over F_2; by degrees (1, 1), (1, 2),
    # (2, 1), (3, 1) and (3, 2), as F_4 (x) F_4 is not a field
    assert fields == 2 * 2 + 2 * 1 + 1 * 2 + 2 * 2 + 2 * 1


def test_certified_degree_nine_polynomial():
    coeffs = [Fraction(v) for v in [-1, -1, 4, -2, -8, 7, 5, -5, -1, 1]]
    p = certify_irreducible_over_q(coeffs)
    assert p is not None
    # independent oracle at that prime: trial division by every monic
    # polynomial of degree at most 4
    f = [int(v) for v in coeffs]
    for deg in range(1, 5):
        for g in _monics(p, deg):
            assert not _divides(g, f, p), f"factor {g} at p={p}"


def test_certification_skips_bad_denominators():
    # x^2 + 1/43: the prime 43 cannot be used, another one certifies
    p = certify_irreducible_over_q([Fraction(1, 43), Fraction(0), Fraction(1)])
    assert p is not None and p != 43
    # x^2 + 1/2: 2 is skipped, x^2 - 1 splits mod 3, -1/2 = 2 is no square mod 5
    assert certify_irreducible_over_q([Fraction(1, 2), Fraction(0), Fraction(1)]) == 5


def test_reducible_over_q_is_never_certified():
    assert certify_irreducible_over_q([Fraction(-1), Fraction(0), Fraction(1)]) is None
    assert certify_irreducible_over_q([Fraction(0), Fraction(0), Fraction(1)]) is None


def test_find_irreducible_deterministic_and_valid():
    for p, d in [(2, 5), (5, 4), (13, 3)]:
        f = find_irreducible(p, d)
        assert len(f) == d + 1 and f[-1] == 1
        assert all(isinstance(v, int) and 0 <= v < p for v in f)
        assert is_irreducible_mod_p(f, p)
        assert find_irreducible(p, d) == f


def test_find_irreducible_pins_the_scan_moduli():
    # scan_fp's extension fields, and so its output order, rest on these
    assert find_irreducible(2, 3) == (1, 1, 0, 1)
    assert find_irreducible(3, 2) == (1, 0, 1)
    assert find_irreducible(2, 4) == (1, 0, 0, 1, 1)
    assert find_irreducible(5, 2) == (1, 1, 1)
    assert find_irreducible(2, 10) == (1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1)
    assert find_irreducible(3, 11) == (2, 0, 1, 2, 0, 0, 2, 0, 0, 0, 0, 1)
    assert find_irreducible(101, 3) == (88, 21, 42, 1)


@pytest.mark.parametrize("d", [1, 3])
def test_find_irreducible_without_an_irreducible_trial(monkeypatch, d):
    # every trial refused: degree 1 needs no trial, degree 3 runs out of them
    monkeypatch.setattr(polys, "is_irreducible_mod_p", lambda coeffs, p: False)
    find_irreducible.cache_clear()
    try:
        if d == 1:
            assert find_irreducible(5, 1) == (0, 1)
        else:
            with pytest.raises(FieldError, match="no irreducible of degree 3 over F_5 found"):
                find_irreducible(5, 3)
    finally:
        find_irreducible.cache_clear()


def test_irreducibility_rejects_wrong_domains():
    with pytest.raises(ValueError):
        is_irreducible_mod_p([2, 2], 3)  # not monic
    with pytest.raises(ValueError):
        is_irreducible_mod_p([1, 0, 3], 3)  # not monic mod 3
    with pytest.raises(ValueError):
        is_irreducible_mod_p([1], 3)  # degree 0
    with pytest.raises(ValueError):
        is_irreducible_mod_p([1, 0, 1], 4)  # not a prime
    with pytest.raises(ValueError):
        is_irreducible_mod_p([Fraction(1, 3), 0, 1], 3)  # denominator vanishes mod 3
