"""Irreducibility over F_p and Q, all decided by one Rabin test.

generates_field runs Rabin's test (Rabin 1980) on an element of a finite
ring A = F_p[gens]/(minpolys mod p); fixtures.field_certificate asks it
about b + lam*c, and is_irreducible_mod_p asks it about t in F_p[t]/(f).
Polynomials are plain coefficient sequences, constant coefficient first.
"""

from __future__ import annotations

import random
from functools import cache

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


def generates_field(theta):
    """Whether theta generates its ring A (over F_p, of dimension d) as the
    field F_{p^d}.

    Rabin's test: theta^(p^d) = theta, and theta^(p^(d/r)) - theta is a
    unit of A for each prime r | d.  Then the minimal polynomial of theta
    is irreducible of degree d, so F_p[theta] = A = F_{p^d}.
    """
    p, d = theta.descriptor.base, theta.descriptor.dimension
    frob = [theta]
    for _ in range(d):
        frob.append(frob[-1] ** p)
    return frob[d] == theta and all(_is_unit(frob[d // r] - theta) for r in prime_factors(d))


def is_irreducible_mod_p(coeffs, p):
    """Whether the monic polynomial f with these coefficients is irreducible
    over F_p; Fraction coefficients are reduced mod p.

    This is Rabin's test on t in F_p[t]/(f): for monic f, h is a unit mod f
    exactly when gcd(h, f) = 1.  Raises ValueError unless p is prime and f
    is monic of degree >= 1 mod p.
    """
    return generates_field(FieldDescriptor.prime_field(p, [("t", coeffs)]).gen(0))


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
    denominator; raises ValueError unless f is monic of degree >= 1.
    Returns the certifying prime, or None when none of them works
    ("irreducibility not certified"); a None is not a reducibility verdict.
    """
    for A in FieldDescriptor.rationals([("t", coeffs)]).residues():
        if is_irreducible_mod_p(A.generators[0].minpoly, A.base):
            return A.base
    return None
