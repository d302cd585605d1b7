"""Dense univariate polynomials over any field from `fields`, plus the
gcd / modular-powering / irreducibility machinery built on them.

Coefficients are stored constant-first with no trailing zeros; the zero
polynomial has an empty coefficient tuple and degree NEG_INFINITY.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .fields import FieldDescriptor, FieldElement, FieldError, is_prime, prime_factors

NEG_INFINITY = float("-inf")
IRREDUCIBLE_TRIALS = 1000
CERTIFY_PRIMES = 25


class PolyDomainError(FieldError):
    """A polynomial operation was asked for over an unsuitable domain."""


@dataclass(frozen=True)
class Poly:
    """A univariate polynomial with FieldElement coefficients."""

    domain: FieldDescriptor
    coeffs: tuple

    @classmethod
    def make(cls, domain, coeffs):
        """Build from an iterable of coefficients (elements, ints, strings)."""
        out = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.descriptor != domain:
                    raise PolyDomainError("coefficient from a different descriptor")
                out.append(c)
            else:
                out.append(domain.from_scalar(c))
        while out and out[-1].is_zero():
            out.pop()
        return cls(domain, tuple(out))

    @classmethod
    def zero(cls, domain):
        return cls(domain, ())

    @classmethod
    def one(cls, domain):
        return cls(domain, (domain.one(),))

    @classmethod
    def x(cls, domain):
        return cls(domain, (domain.zero(), domain.one()))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.domain.one()

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self):
        if self.is_zero() or self.is_monic():
            return self
        inv = self.lc().inverse()
        return Poly(self.domain, tuple(c * inv for c in self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def _combine(self, other, op):
        """Coefficient-wise op, the shorter operand padded with zeros."""
        self._check(other)
        pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=self.domain.zero())
        return Poly.make(self.domain, [op(a, b) for a, b in pairs])

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __neg__(self):
        return Poly(self.domain, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            other = Poly(self.domain, (other,))
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.domain)
        zero = self.domain.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly.make(self.domain, out)

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        zero = self.domain.zero()
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(self.domain), self
        quot = [zero] * (dq + 1)
        inv_lead = other.lc().inverse()
        for shift in range(dq, -1, -1):
            top = rem[shift + len(other.coeffs) - 1]
            if top.is_zero():
                continue
            factor = top * inv_lead
            quot[shift] = factor
            for i, b in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - factor * b
        return Poly.make(self.domain, quot), Poly.make(self.domain, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __call__(self, x):
        """Evaluate by Horner's rule."""
        acc = self.domain.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def _check(self, other):
        if not isinstance(other, Poly) or other.domain != self.domain:
            raise PolyDomainError("polynomials over different domains")

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            term = "1" if i == 0 else ("x" if i == 1 else f"x^{i}")
            parts.append(f"({c})*{term}" if i else f"{c}")
        return " + ".join(parts)


def poly_gcd(f, g):
    """Monic greatest common divisor over a field domain; gcd(f, 0) = monic(f)."""
    f._check(g)
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


def powmod(f, e, m):
    """f^e reduced modulo a monic m of degree >= 1, by square and multiply."""
    if not m.is_monic() or m.degree < 1:
        raise PolyDomainError("modulus must be monic of degree >= 1")
    if e < 0:
        raise ValueError("negative exponent")
    result = Poly.one(m.domain) % m
    f = f % m
    while e:
        if e & 1:
            result = result * f % m
        e >>= 1
        if e:
            f = f * f % m
    return result


def is_irreducible_mod_p(f):
    """Rabin irreducibility test for a monic f over a prime field F_p.

    f of degree n is irreducible iff x^(p^n) = x (mod f) and, for every
    prime q dividing n, gcd(x^(p^(n/q)) - x, f) = 1.
    """
    domain = f.domain
    if domain.base is None or domain.generators:
        raise PolyDomainError("irreducibility test requires coefficients in a prime field")
    if not f.is_monic() or f.degree < 1:
        raise PolyDomainError("polynomial must be monic of degree >= 1")
    p = domain.base
    n = f.degree
    if n == 1:
        return True
    x = Poly.x(domain)
    if powmod(x, p ** n, f) != x % f:
        return False
    for q in prime_factors(n):
        h = powmod(x, p ** (n // q), f) - (x % f)
        if poly_gcd(h, f).degree != 0:
            return False
    return True


def find_irreducible(p, d):
    """Search for a monic irreducible of degree d over F_p by up to
    IRREDUCIBLE_TRIALS random trials seeded from (p, d), so the same (p, d)
    always gives the same answer."""
    domain = FieldDescriptor.prime_field(p)
    if d == 1:
        return Poly.make(domain, [0, 1])
    rng = random.Random(f"irreducible:{p}:{d}")
    for _ in range(IRREDUCIBLE_TRIALS):
        coeffs = [rng.randrange(p) for _ in range(d)] + [1]
        f = Poly.make(domain, coeffs)
        if is_irreducible_mod_p(f):
            return f
    raise FieldError(
        f"no irreducible of degree {d} over F_{p} found in {IRREDUCIBLE_TRIALS} trials")


def certify_irreducible_over_q(coeffs):
    """Find a prime p at which the given monic rational polynomial stays
    irreducible, which certifies irreducibility over Q.

    Tries the first CERTIFY_PRIMES primes that do not divide any coefficient
    denominator.  Returns the certifying prime, or None when none of the
    tried primes works ("irreducibility not certified"); a None is not a
    reducibility verdict.
    """
    coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    if not coeffs or coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    if len(coeffs) < 2:
        raise ValueError("polynomial must have degree >= 1")
    tried = 0
    p = 2
    while tried < CERTIFY_PRIMES:
        if not is_prime(p):
            p += 1
            continue
        if any(c.denominator % p == 0 for c in coeffs):
            p += 1
            continue
        tried += 1
        domain = FieldDescriptor.prime_field(p)
        f = Poly.make(domain, [domain.from_scalar(c) for c in coeffs])
        if f.degree == len(coeffs) - 1 and is_irreducible_mod_p(f):
            return p
        p += 1
    return None
