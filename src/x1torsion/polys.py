"""Irreducibility over F_p and Q, all decided by one Rabin test.

Rabin's test (Rabin 1980) runs on t in F_p[t]/(f) only: _is_field decides by
it, once per ring, whether A = F_p[gens]/(minpolys mod p) is a field, and
generates_field then asks whether b + lam*c lies in a maximal subfield of A.
Polynomials are plain coefficient sequences, constant coefficient first.
"""

from __future__ import annotations

import math
import random
from functools import cache, lru_cache

from .fields import (
    FieldDescriptor,
    FieldError,
    FieldZeroDivision,
    ZeroDivisorError,
    prime_factors,
)

IRREDUCIBLE_TRIALS = 1000


def _is_unit(x):
    try:
        x.inverse()
    except (FieldZeroDivision, ZeroDivisorError):
        return False
    return True


@lru_cache(maxsize=4096)  # as fields._interned: above the rings of a long verify run
def _is_field(ring):
    """Whether the ring F_p[gens]/(minpolys) is a field: the generator degrees
    are pairwise coprime (F_{p^a} (x) F_{p^b} is a field iff gcd(a, b) = 1), and
    each minpoly f passes Rabin's test on t in F_p[t]/(f): t^(p^d) = t, and
    t^(p^(d/r)) - t is a unit for each prime r | d, that is, prime to f."""
    p, degrees = ring.base, ring.degrees
    if math.lcm(*degrees) != ring.dimension:  # a pair of degrees has a common factor
        return False
    for g, d in zip(ring.generators, degrees):
        frob = [FieldDescriptor.prime_field(p, [(g.name, g.minpoly)]).gen(0)]
        for _ in range(d):
            frob.append(frob[-1] ** p)
        t = frob[0]
        if frob[d] != t or not all(_is_unit(frob[d // r] - t) for r in prime_factors(d)):
            return False
    return True


def generates_field(theta):
    """Whether theta generates its ring A (over F_p, of dimension d) as the
    field F_{p^d}: A is a field (_is_field) and theta lies in none of its
    maximal subfields, the fixed points of x -> x^(p^(d/r)) for primes r | d.
    That is Rabin's test on theta, with d/r powers, r the least, and no unit test."""
    A = theta.descriptor
    if not _is_field(A):
        return False
    p, d, frob = A.base, A.dimension, [theta]
    primes = prime_factors(d)
    for _ in range(d // min(primes, default=d)):  # to theta^(p^(d/r)) for the least r
        frob.append(frob[-1] ** p)
    return all(frob[d // r] != theta for r in primes)


def is_irreducible_mod_p(coeffs, p):
    """Whether the monic polynomial f with these coefficients is irreducible
    over F_p; Fraction coefficients are reduced mod p.

    Rabin's test on t in F_p[t]/(f), by _is_field.  Raises ValueError
    unless p is prime and f is monic of degree >= 1 mod p.
    """
    return _is_field(FieldDescriptor.prime_field(p, [("t", coeffs)]))


@cache
def find_irreducible(p, d):
    """Search for a monic irreducible of degree d over F_p by up to
    IRREDUCIBLE_TRIALS random trials seeded from (p, d), so the same (p, d)
    always gives the same answer: a tuple of ints in [0, p), constant first.
    The answer is memoised per (p, d)."""
    if d == 1:
        return (0, 1)
    rng = random.Random(f"irreducible:{p}:{d}")
    for _ in range(IRREDUCIBLE_TRIALS):
        coeffs = tuple(rng.randrange(p) for _ in range(d)) + (1,)
        if is_irreducible_mod_p(coeffs, p):
            return coeffs
    raise FieldError(
        f"no irreducible of degree {d} over F_{p} found in {IRREDUCIBLE_TRIALS} trials")


def certify_irreducible_over_q(coeffs):
    """Find a prime p at which the given monic rational polynomial stays
    irreducible, which certifies irreducibility over Q.

    Tries the residue ring of Q[t]/(f) at each prime of the certificate walk
    (FieldDescriptor.residues), which skips the primes in a coefficient
    denominator, for the first that is a field; raises ValueError unless f
    is monic of degree >= 1.  Returns the certifying prime, or None when
    none works ("irreducibility not certified"), not a reducibility verdict.
    """
    for A in FieldDescriptor.rationals([("t", coeffs)]).residues():
        if _is_field(A):
            return A.base
    return None
