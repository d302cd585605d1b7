"""Exact arithmetic in Q, prime fields F_p, and multi-generator extensions.

A field (or ring) is described by a FieldDescriptor: a base -- Q or F_p --
together with an ordered list of generators, each carrying a monic defining
polynomial with coefficients in the base, constant coefficient first.  The
descriptor names the tensor product of these simple extensions, so its
dimension over the base is the product of the generator degrees.

An element stores its coordinates on the monomial basis
x1^e1 * x2^e2 * ..., 0 <= ej < deg(xj), as one flat tuple in mixed-radix
order with the first generator's exponent most significant.  Over Q the
tuple holds integer numerators over one positive common denominator `den`,
with gcd(den, *numerators) = 1 and zero stored as all zeros over 1 (Cohen,
GTM 138, 4.2.1); over F_p it holds ints in [0, p) and den is 1.  A product
convolves plain ints into a box of exponents up to 2(deg - 1) per
generator; basis positions copy straight out and every other box position
folds back through its reduced monomial, from a table the descriptor builds
once with its rows scaled to integers.  Base scalars -- Fractions over Q --
and nested coordinate arrays, with the first generator on the outermost
index, appear only at the I/O edge: from_coords, from_scalar, to_text,
flat_coords and the read-only coords property.

Every operation returns the canonical form, so two elements are equal
exactly when their numerators and denominators are equal.  All values are
immutable and safe to share between threads or processes.

A descriptor with several generators whose defining polynomials do not cut
out a field is still a ring; the problem only surfaces at inversion time,
as a ZeroDivisorError.

Every certificate over Q reduces mod p through one walk and one map:
residues(*elements) of a Q descriptor yields A = F_p[gens]/(minpolys mod p)
at each prime of CERTIFY_PRIMES, in order, that divides no minpoly
denominator and no den of an element, and A.image(x) is flat * den^-1 mod p.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


class FieldError(Exception):
    """Base class for errors raised by field arithmetic."""


class DescriptorMismatchError(FieldError):
    """Operands belong to different field descriptors."""


class ShapeError(FieldError):
    """A coordinate array does not match the descriptor's dimensions."""


class FieldZeroDivision(FieldError, ZeroDivisionError):
    """Inversion of zero."""


class ZeroDivisorError(FieldError):
    """Inversion hit a nonzero zero divisor: the descriptor is not a field."""


MAX_MODULUS = 1 << 62

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin test, exact for machine-width inputs."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 41 * 41:  # a composite with no prime factor <= 37 is at least 41^2
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# orders are factored by trial division (prime_factors), so they stay below 2^32
MAX_ORDER = 1 << 32
# the first 25 primes: every certificate over Q walks these, in this order
CERTIFY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def prime_factors(n):
    """Distinct prime factors by trial division (intended for n < MAX_ORDER)."""
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


_RATIONAL_RE = re.compile(r"^-?[0-9]+(?:/[0-9]+)?$")


def parse_rational(text):
    """Parse a rational written as "num" or "num/den" (decimal strings).

    Raises ValueError on anything else; in particular decimal points and
    exponents are rejected rather than silently converted.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"malformed rational {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"malformed rational {text!r}: zero denominator")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


# ---------------------------------------------------------------------------
# base scalars: an int or Fraction over Q (base None), an int in [0, p) over F_p

def _coerce_scalar(v, base):
    """Coerce an int, Fraction, or rational string to a canonical scalar."""
    if isinstance(v, str):
        v = parse_rational(v)
    if isinstance(v, bool):
        raise ValueError("bool is not a scalar")
    if isinstance(v, int):
        return v if base is None else v % base
    if isinstance(v, Fraction):
        if base is None:
            return v.numerator if v.denominator == 1 else v
        if v.denominator % base == 0:
            raise ValueError(f"denominator of {v} vanishes mod {base}")
        return v.numerator * pow(v.denominator, -1, base) % base
    raise ValueError(f"cannot coerce {v!r} to a field scalar")


def _flatten_checked(data, dims, base, where, out):
    """Validate nested arrays of shape dims; append canonical scalars to out."""
    if not dims:
        try:
            out.append(_coerce_scalar(data, base))
        except ValueError as exc:
            raise ShapeError(f"{where}: {exc}") from exc
        return
    if not isinstance(data, (list, tuple)):
        raise ShapeError(f"{where}: expected an array of length {dims[0]}, got {data!r}")
    if len(data) != dims[0]:
        raise ShapeError(f"{where}: expected length {dims[0]}, got {len(data)}")
    for i, x in enumerate(data):
        _flatten_checked(x, dims[1:], base, f"{where}[{i}]", out)


def _nest(items, dims, kind):
    """Group a flat sequence into nested `kind`s of shape dims.

    With no dims the single item comes back bare.
    """
    for size in reversed(dims[1:]):
        items = [kind(items[i:i + size]) for i in range(0, len(items), size)]
    return kind(items) if dims else items[0]


def _mul_flat(desc, a, b):
    """Product of two flat int tuples over desc.

    Over F_p the canonical residue tuple.  Over Q the numerator list of the
    product times desc's fold scale, not yet in lowest terms: the caller
    divides by the operands' denominators and that scale.
    """
    p = desc.base
    if len(a) == 1:
        return (a[0] * b[0],) if p is None else (a[0] * b[0] % p,)
    offsets, box, folds, scale = desc._mul_table
    acc = list(box)
    bs = [(o, y) for o, y in zip(offsets, b) if y]
    for oi, x in zip(offsets, a):
        if x:
            for oj, y in bs:
                acc[oi + oj] += x * y
    out = [acc[o] for o in offsets] if scale == 1 else [acc[o] * scale for o in offsets]
    for pos, row in folds:
        v = acc[pos]
        if v:
            for k, c in row:
                out[k] += v * c
    if p is None:
        return out
    return tuple([v % p for v in out])


def _normalised(desc, nums, den):
    """The element nums / den of Q-descriptor desc (den > 0) in lowest terms."""
    g = math.gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [v // g for v in nums]
    return FieldElement(desc, tuple(nums), den)


def _combine(x, y, op):
    """x op y for op operator.add or operator.sub, in canonical form."""
    d = x.descriptor
    p = d.base
    if p is not None:
        return FieldElement(d, tuple([v % p for v in map(op, x.flat, y.flat)]))
    dx, dy = x.den, y.den
    if dx == dy:
        return _normalised(d, list(map(op, x.flat, y.flat)), dx)
    return _normalised(d, [op(u * dy, v * dx) for u, v in zip(x.flat, y.flat)], dx * dy)


# ---------------------------------------------------------------------------
# the exact linear solver, used for inversion

def _eliminate(aug):
    """Fraction-free elimination (Bareiss) over Z with exact back substitution.

    aug is the integer matrix [M | rhs] with n rows, overwritten in place.
    Returns (det M, numerators) with x_i = numerators[i] / det M, or
    (0, None) when M is singular.  Forward step k turns every row below
    the pivot into (pivot * row - row[k] * pivot row) / previous pivot;
    each division is exact, so entries stay the size of minors of
    [M | rhs] and the last pivot is the determinant D of the row-swapped M.
    Back substitution solves the triangle U x = c for the Cramer
    numerators num_i = (D c_i - sum_{j>i} u_ij num_j) / u_ii, again exact.
    """
    n = len(aug)
    prev, sign = 1, 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if aug[i][k]), None)
        if pivot_row is None:
            return 0, None
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
            sign = -sign
        rk = aug[k]
        pk = rk[k]
        for ri in aug[k + 1:]:
            lik = ri[k]
            for j in range(k + 1, n + 1):
                ri[j] = (ri[j] * pk - lik * rk[j]) // prev
        prev = pk
    nums = [0] * n
    for i in range(n - 1, -1, -1):
        ri = aug[i]
        acc = prev * ri[n]
        for j in range(i + 1, n):
            acc -= ri[j] * nums[j]
        nums[i] = acc // ri[i]
    return sign * prev, [sign * v for v in nums]


# ---------------------------------------------------------------------------
# descriptors and elements

@dataclass(frozen=True)
class Generator:
    """A named extension generator with its monic defining polynomial.

    The polynomial is stored constant-coefficient-first over the base; the
    leading coefficient must equal one.
    """

    name: str
    minpoly: tuple

    @property
    def degree(self):
        return len(self.minpoly) - 1


@dataclass(frozen=True)
class FieldDescriptor:
    """Base field plus ordered generators; base is None for Q, else a prime."""

    base: object = None
    generators: tuple = ()

    def __post_init__(self):
        if self.base is not None:
            p = self.base
            if not isinstance(p, int) or not is_prime(p):
                raise ValueError(f"modulus {p!r} is not prime")
            if p >= MAX_MODULUS:
                raise ValueError(f"modulus {p} exceeds the machine-width bound 2^62")
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names in {names}")
        for g in self.generators:
            if not g.name:
                raise ValueError("empty generator name")
            if len(g.minpoly) < 2:
                raise ValueError(f"minpoly of {g.name} must have degree >= 1")
            if g.minpoly[-1] != 1:
                raise ValueError(f"minpoly of {g.name} is not monic")

    @classmethod
    def rationals(cls, generators=()):
        """Descriptor over Q; generators as (name, minpoly coeffs) pairs."""
        return cls(None, cls._build_generators(generators, None))

    @classmethod
    def prime_field(cls, p, generators=()):
        """Descriptor over F_p; generators as (name, minpoly coeffs) pairs."""
        return cls(p, cls._build_generators(generators, p))

    @staticmethod
    def _build_generators(generators, base):
        built = []
        for name, coeffs in generators:
            built.append(Generator(str(name), tuple(_coerce_scalar(c, base) for c in coeffs)))
        return tuple(built)

    @property
    def degrees(self):
        return tuple(g.degree for g in self.generators)

    @property
    def dimension(self):
        return math.prod(self.degrees)

    @property
    def is_finite(self):
        return self.base is not None

    @cached_property
    def _zeros(self):
        return (0,) * self.dimension

    @cached_property
    def _mul_table(self):
        """(offsets, empty box, folds, scale) for _mul_flat.

        The box holds exponents 0..2(deg - 1) of each generator in mixed
        radix, first generator most significant; flat index k sits at box
        position offsets[k], so basis monomials i and j multiply into
        offsets[i] + offsets[j].  folds pairs every box position outside
        the basis with its reduced monomial, the tensor product of each
        generator's x^e mod minpoly row, as sparse (flat index, coefficient)
        pairs.  Over Q the fold coefficients are multiplied by scale, the
        lcm of their denominators, so that every row holds ints; scale is 1
        over F_p and for integral minpolys.
        """
        base = self.base
        canon = (lambda v: v) if base is None else (lambda v: v % base)
        powers = []
        for g in self.generators:
            row = [1] + [0] * (g.degree - 1)
            rows = [row]
            for _ in range(2 * g.degree - 2):
                top = row[-1]
                row = [canon(r - top * m) for r, m in zip([0] + row[:-1], g.minpoly)]
                rows.append(row)
            powers.append(rows)
        radices = [2 * d - 1 for d in self.degrees]
        box_strides = [math.prod(radices[j + 1:]) for j in range(len(radices))]
        offsets = tuple(
            sum(e * s for e, s in zip(exps, box_strides))
            for exps in itertools.product(*(range(d) for d in self.degrees)))
        folds = []
        for pos, exps in enumerate(itertools.product(*(range(r) for r in radices))):
            if all(e < d for e, d in zip(exps, self.degrees)):
                continue
            vec = [1]
            for rows, e in zip(powers, exps):
                vec = [canon(v * c) for v in vec for c in rows[e]]
            folds.append((pos, [(k, c) for k, c in enumerate(vec) if c]))
        scale = math.lcm(*(c.denominator for _, row in folds for _, c in row))
        folds = tuple((pos, tuple((k, c.numerator * (scale // c.denominator)) for k, c in row))
                      for pos, row in folds)
        return offsets, (0,) * math.prod(radices), folds, scale

    @cached_property
    def _chain(self):
        """For flat indices k = 1, 2, ...: (k - stride, the flat tuple of g),
        with g the last generator whose exponent in monomial k is nonzero
        and stride its flat place value, so that monomial k is monomial
        k - stride times g."""
        degrees = self.degrees
        strides = [math.prod(degrees[j + 1:]) for j in range(len(degrees))]
        steps = []
        for k in range(1, self.dimension):
            stride = next(s for s, deg in zip(reversed(strides), reversed(degrees))
                          if k // s % deg)
            steps.append((k - stride, self._zeros[:stride] + (1,) + self._zeros[stride + 1:]))
        return tuple(steps)

    def _embed(self, s):
        """The element for a canonical scalar (int or Fraction over Q, residue over F_p)."""
        return FieldElement(self, (s.numerator,) + self._zeros[1:], s.denominator)

    def zero(self):
        return FieldElement(self, self._zeros)

    def one(self):
        return self._embed(1)

    def from_scalar(self, v):
        return self._embed(_coerce_scalar(v, self.base))

    def from_coords(self, data, where="coords"):
        """Build an element from nested lists of scalars or rational strings."""
        flat = []
        _flatten_checked(data, self.degrees, self.base, where, flat)
        den = math.lcm(*(v.denominator for v in flat))
        return FieldElement(self, tuple([v.numerator * (den // v.denominator) for v in flat]), den)

    def gen(self, which=0):
        """The element representing one generator (by index or name)."""
        if isinstance(which, str):
            names = [g.name for g in self.generators]
            if which not in names:
                raise ValueError(f"no generator named {which!r}")
            which = names.index(which)
        if not 0 <= which < len(self.generators):
            raise ValueError(f"generator index {which} out of range")
        g = self.generators[which]
        if g.degree == 1:
            # x + m0 = 0, so the generator is the scalar -m0
            return self.from_scalar(-g.minpoly[0])
        flat = list(self._zeros)
        flat[math.prod(self.degrees[which + 1:])] = 1
        return FieldElement(self, tuple(flat))

    def residues(self, *elements):
        """The residue rings F_p[gens]/(minpolys mod p), in the order of
        CERTIFY_PRIMES (read per call), at the primes where the minpolys and
        the given elements over Q are p-integral."""
        if self.base is not None:
            raise ValueError("residue rings are taken of a descriptor over Q")
        gens = [(g.name, g.minpoly) for g in self.generators]
        den = math.lcm(*(x.den for x in elements), *(c.denominator for _, m in gens for c in m))
        for p in CERTIFY_PRIMES:
            if den % p:
                yield FieldDescriptor.prime_field(p, gens)

    def image(self, x):
        """The image of x, a p-integral element over Q with this residue
        ring's generator degrees, in this ring over F_p: flat * den^-1 mod p."""
        p = self.base
        if p is None or x.descriptor.base is not None or x.descriptor.degrees != self.degrees:
            raise DescriptorMismatchError(f"{x.descriptor!r} does not reduce to {self!r}")
        inv = pow(x.den, -1, p)
        return FieldElement(self, tuple([v * inv % p for v in x.flat]))

    def iter_elements(self):
        """All elements in lexicographic coordinate order (finite base only)."""
        if self.base is None:
            raise ValueError("cannot enumerate an infinite field")
        for flat in itertools.product(range(self.base), repeat=self.dimension):
            yield FieldElement(self, flat)

    def __repr__(self):
        base = "Q" if self.base is None else f"F_{self.base}"
        if not self.generators:
            return f"FieldDescriptor({base})"
        gens = ", ".join(g.name for g in self.generators)
        return f"FieldDescriptor({base}({gens}))"


@dataclass(frozen=True)
class FieldElement:
    """An element of the ring/field named by its descriptor, in canonical form.

    flat holds int numerators over the positive common denominator den, in
    lowest terms over Q; over F_p it holds residues and den is 1.
    """

    descriptor: FieldDescriptor
    flat: tuple
    den: int = 1

    def __init__(self, descriptor, flat, den=1):
        # the state the frozen dataclass __init__ would set through
        # object.__setattr__, written straight to the instance dict: half
        # the construction cost, which every arithmetic result pays, for a
        # materialised dict of about 64 bytes more per element
        state = self.__dict__
        state["descriptor"] = descriptor
        state["flat"] = flat
        state["den"] = den

    def _peer(self, other):
        if isinstance(other, FieldElement):
            d = self.descriptor
            if other.descriptor is not d and other.descriptor != d:
                raise DescriptorMismatchError(
                    f"cannot combine elements of {d!r} and {other.descriptor!r}")
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            try:
                return self.descriptor.from_scalar(other)
            except ValueError:
                return None
        return None

    @property
    def coords(self):
        """Nested coordinate tuples, first generator outermost.

        A bare scalar when the descriptor has no generators.
        """
        return _nest(self.flat_coords(), self.descriptor.degrees, tuple)

    def is_zero(self):
        return not any(self.flat)

    def __bool__(self):
        return any(self.flat)

    def __add__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return _combine(self, o, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return _combine(self, o, operator.sub)

    def __rsub__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        d = self.descriptor
        if d.base is not None:
            return FieldElement(d, _mul_flat(d, self.flat, o.flat))
        if not (any(self.flat) and any(o.flat)):  # a zero factor builds no product table
            return d.zero()
        flat = _mul_flat(d, self.flat, o.flat)
        return _normalised(d, flat, self.den * o.den * d._mul_table[3])

    __rmul__ = __mul__

    def __neg__(self):
        d = self.descriptor
        p = d.base
        if p is None:
            return FieldElement(d, tuple([-v for v in self.flat]), self.den)
        return FieldElement(d, tuple([-v % p for v in self.flat]))

    def __truediv__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            return self.descriptor.one()
        # left to right from the leading bit, so no product has a factor one
        result = self
        for bit in bin(e)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.flat == other.flat and self.den == other.den and (
                self.descriptor is other.descriptor or self.descriptor == other.descriptor)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            try:
                o = self.descriptor.from_scalar(other)
            except ValueError:
                return False
            return self.flat == o.flat and self.den == o.den
        return NotImplemented

    def __hash__(self):
        return hash((self.descriptor, self.flat, self.den))

    def inverse(self):
        """Multiplicative inverse in canonical form.

        Dimension 1 is a scalar inverse.  Above that, solve the linear
        system given by the multiplication-by-numerators matrix M, by one
        fraction-free elimination over Z for both Q and F_p; a singular
        matrix means self is a zero divisor and raises ZeroDivisorError.
        Over F_p, M holds residues, so det M mod p decides singularity and
        the inverse is nums * det^-1 mod p.  Over Q, M carries the fold
        scale s, so M z = s e_1 gives z = nums / det and the inverse is
        den * nums / det.

        Column 0 of M is self; column k is an earlier column times one
        generator (descriptor._chain), which folds back far fewer box
        positions than a product with basis monomial k.  Over Q each such
        product carries s once more, so the column is divided by s, exactly.
        """
        d = self.descriptor
        p = d.base
        a = self.flat
        if not any(a):
            raise FieldZeroDivision("division by zero")
        n = len(a)
        if n == 1:
            if p is not None:
                return FieldElement(d, (pow(a[0], -1, p),))
            return FieldElement(d, (self.den if a[0] > 0 else -self.den,), abs(a[0]))
        zeros = d._zeros
        scale = d._mul_table[3]
        # column k holds the numerators of self * (basis monomial k), times s over Q
        cols = [a if scale == 1 else [v * scale for v in a]]
        for prev, g in d._chain:
            col = _mul_flat(d, cols[prev], g)
            cols.append(col if scale == 1 else [v // scale for v in col])
        rhs = (scale,) + zeros[1:]
        det, nums = _eliminate([[col[i] for col in cols] + [rhs[i]] for i in range(n)])
        if p is not None:
            if det % p:
                inv = pow(det, -1, p)
                return FieldElement(d, tuple([v * inv % p for v in nums]))
        elif det:
            if det < 0:
                det, nums = -det, [-v for v in nums]
            return _normalised(d, [self.den * v for v in nums], det)
        raise ZeroDivisorError("multiplication matrix is singular: descriptor is not a field")

    def flat_coords(self):
        """Coordinates as a flat tuple of base scalars (Fractions over Q),
        outer generator most significant."""
        if self.descriptor.base is None:
            return tuple([Fraction(v, self.den) for v in self.flat])
        return self.flat

    def to_text(self):
        """Nested arrays of canonical rational/integer strings."""
        return _nest([str(s) for s in self.flat_coords()], self.descriptor.degrees, list)

    def __repr__(self):
        return f"FieldElement({self.to_text()!r} over {self.descriptor!r})"

    def __str__(self):
        return _render_nested(self.to_text())


def _render_nested(t):
    if isinstance(t, str):
        return t
    return "[" + ", ".join(_render_nested(x) for x in t) + "]"
