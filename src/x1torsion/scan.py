"""Exhaustive enumeration of Tate parameter pairs over small finite fields.

A pair (b, c) in F_q x F_q with nonvanishing discriminant carries the
marked point (0, 0) on its Tate curve; the scan keeps exactly the pairs
where that point has a requested exact order N.  Each hit records its
place degree, the least e with b, c both fixed by the e-th power of
Frobenius.  Hits of place degree below a gonality bound are the
low-degree survivors the filter retains.

The scan runs on one integer kernel for every F_q, d = 1 included: an
element is its log to a primitive element (None for 0), so products are
exponent sums mod q - 1 and sums go through a Zech table.  The exp, log
and Zech tables, and the primitive element with them, are built from
flat residue tuples once per scan (once per worker with --jobs).  Each
pair costs a closed-form disc test and a walk along the elliptic
divisibility sequence of the marked point: its first zero is the exact
order, so the walk stops at the first zero and takes at most N - 4
steps of one Zech lookup each.  A hit's place degree is read off its
logs too, as Frobenius multiplies a log by p.  FieldElement appears only
in the two elements of each hit; place_degree and the group law in
curves stay the references the tests compare against.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

from .fields import FieldDescriptor, FieldElement, _mul_flat, is_prime
from .polys import find_irreducible

DEFAULT_BUDGET = 10 ** 8

DEFAULT_GONALITIES = {29: 11, 31: 12, 37: 18}


class BudgetError(Exception):
    """The requested enumeration exceeds the configured work budget."""


@dataclass(frozen=True)
class ScanHit:
    """One surviving (b, c) pair with its certified order and place degree."""

    p: int
    d: int
    b: FieldElement
    c: FieldElement
    order: int
    place_degree: int


def place_degree(b, c):
    """Least e >= 1 with b^(p^e) = b and c^(p^e) = c; divides the field degree."""
    desc = b.descriptor
    if desc != c.descriptor:
        raise ValueError("b and c must live in one field")
    p = desc.base
    if p is None:
        raise ValueError("place degrees are defined over finite fields only")
    d = desc.dimension
    fb, fc = b, c
    for e in range(1, d + 1):
        fb = fb ** p
        fc = fc ** p
        if fb == b and fc == c:
            return e
    raise AssertionError("Frobenius failed to close after d steps")


class _LogField:
    """F_q in log form, for the scan kernel.

    An element is its exponent k in [0, q - 1) to a primitive element g,
    or None for 0.  A product adds exponents mod q - 1, and a sum uses the
    Zech table: g^a + g^b = g^(a + zech[(b - a) mod (q - 1)]), where
    g^zech[k] = 1 + g^k and zech[k] is None when 1 + g^k = 0.  `flats`
    lists F_q as flat residue tuples in iter_elements order, and log[i] is
    the log of flats[i].  Element `step` = q/p is 1.  For each candidate g
    in flats[1:] order the walk x <- x g (by _mul_flat) from 1 runs until
    it returns to 1; it takes the order of g steps, so the first walk of
    q - 1 steps finds the primitive element g and is the exp table.  Adding
    1 to element i gives element (i + step) mod q, so the Zech table and
    minus_one need no sums.
    """

    def __init__(self, desc):
        p = desc.base
        self.flats = flats = list(itertools.product(range(p), repeat=desc.dimension))
        q = len(flats)
        self.step = step = q // p
        index = {x: i for i, x in enumerate(flats)}
        one = flats[step]
        for g in flats[1:]:
            exp, x = [step], g
            while x != one:
                exp.append(index[x])
                x = _mul_flat(desc, x, g)
            if len(exp) == q - 1:
                break
        self.log = log = [None] * q
        for k, i in enumerate(exp):
            log[i] = k
        self.zech = [log[(i + step) % q] for i in exp]
        self.minus_one = log[(p - 1) * step]

    def ops(self):
        """(add, mul, neg) on logs, as closures over the tables."""
        zech, m, minus_one = self.zech, len(self.zech), self.minus_one

        def add(a, b):
            if a is None:
                return b
            if b is None:
                return a
            z = zech[(b - a) % m]
            return None if z is None else (a + z) % m

        def mul(a, b):
            return None if a is None or b is None else (a + b) % m

        def neg(a):
            return None if a is None else (a + minus_one) % m

        return add, mul, neg


def _scan_rows(args):
    """All hits with b in flats[lo:hi]; the per-process work item.

    args is (desc, n, lo, hi), with desc the F_q descriptor scan_fp built;
    each worker builds its own tables from it.
    For each pair: disc != 0 by its closed form, then a walk along the
    elliptic divisibility sequence W_k of the marked point P = (0, 0),
    whose first zero is the order of P on a nonsingular curve.  With
    W_1 = 1, W_2 = -b, W_3 = -b^3, W_4 = b^5 c and
    W_{k+2} W_{k-2} = b^2 W_{k+1} W_{k-1} + b^3 W_k^2, the ratios
    f_k = W_{k+1} W_{k-1} / W_k^2 start at f_2 = -b, f_3 = -c and satisfy
    f_{k+1} = b^2 (f_k + b) / (f_k^2 f_{k-1}); W_{k+2} = 0 exactly when
    f_k = -b.  In logs a step is one Zech lookup for f_k + b, and the walk
    takes at most n - 4 steps, leaving at the first zero.  A hit's place
    degree is read off the logs: Frobenius sends log k to k p, so b and c
    are fixed by its e-th power when k (p^e - 1) = 0 mod q - 1 for k the
    gcd of their logs (0, with log None, is fixed).  Only hits become
    FieldElements.  Rows and columns run in element order, so the hits
    come out sorted.
    """
    desc, n, lo, hi = args
    p, d = desc.base, desc.dimension
    field = _LogField(desc)
    add, mul, neg = field.ops()
    log, flats = field.log, field.flats
    m8, m20, sixteen = (log[k % p * field.step] for k in (-8, -20, 16))
    zech, m, minus_one = field.zech, len(field.zech), field.minus_one
    early = range(n - 5)  # k = 3 .. n - 3, where W_{k+2} must not vanish
    hits = []

    def record(i, j):
        k = math.gcd(log[i], log[j] or 0)  # log[i] is not None: b != 0 on a hit
        degree = next(e for e in range(1, d + 1) if k * (p ** e - 1) % m == 0)
        hits.append(ScanHit(p, d, FieldElement(desc, flats[i]), FieldElement(desc, flats[j]),
                            n, degree))

    for i in range(lo, hi):
        b = log[i]
        if b is None:
            continue  # disc = b^3 * (...) vanishes on the whole row
        nb, b2 = neg(b), 2 * b
        # disc / b^3 = 16 b^2 + b - 20 bc - 8 bc^2 + c (c - 1)^3
        const = add(mul(sixteen, mul(b, b)), b)
        m20b, m8b = mul(m20, b), mul(m8, b)
        for j, c in enumerate(log):
            cm1 = add(c, minus_one)
            cubic = mul(c, mul(cm1, mul(cm1, cm1)))
            if add(add(const, mul(m20b, c)), add(mul(m8b, mul(c, c)), cubic)) is None:
                continue
            if c is None:
                if n == 4:  # W_4 = b^5 c is the first zero, as b != 0
                    record(i, j)
            elif n > 4:
                f, fp = (c + minus_one) % m, nb  # logs of f_3 = -c and f_2 = -b
                for _ in early:
                    # f_k + b = f_k (1 + b / f_k); a negative index wraps mod m
                    z = zech[b - f]
                    if z is None:
                        break  # W vanishes before index n
                    f, fp = (b2 + z - f - fp) % m, f
                else:
                    if zech[b - f] is None:
                        record(i, j)
    return hits


def scan_fp(p, d, n, budget=DEFAULT_BUDGET, jobs=1):
    """Enumerate all (b, c) in F_{p^d}^2 whose marked point has exact order n.

    The grid holds p^(2d) pairs; runs beyond `budget` are refused with
    BudgetError before any work starts.  For d > 1 the extension is
    F_p[t]/(find_irreducible(p, d)).  Every pair runs on the log-form
    kernel of _scan_rows, and FieldElement is built only for the hits.
    Output is sorted by (b, c) coordinates, identical for any `jobs`
    value.  The rows b are split among min(jobs, q, CPU count) processes.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not isinstance(d, int) or d < 1:
        raise ValueError("extension degree must be a positive integer")
    if not isinstance(n, int) or n < 1:
        raise ValueError("target order must be a positive integer")
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError("jobs must be a positive integer")
    pairs = p ** (2 * d)
    if pairs > budget:
        raise BudgetError(
            f"scan of p^(2d) = {pairs} pairs exceeds the budget of {budget}; "
            "raise the budget explicitly to run this"
        )
    desc = FieldDescriptor.prime_field(p, [("t", find_irreducible(p, d))] if d > 1 else [])
    q = p ** d
    workers = min(jobs, q, os.cpu_count() or 1)
    cuts = [q * k // workers for k in range(workers + 1)]
    work = [(desc, n, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays its import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_scan_rows, work))
    else:
        rows = [_scan_rows(item) for item in work]
    return [h for row in rows for h in row]


def point_count(e, budget=DEFAULT_BUDGET):
    """#E(F_q) by full enumeration: 1 + #{(x, y) on the affine curve}.

    Exact, and quadratic in q, so runs with q^2 beyond `budget` are refused.
    """
    desc = e.descriptor
    if not desc.is_finite:
        raise ValueError("point counting needs a finite field")
    if e.is_singular():
        raise ValueError("point counting is for nonsingular curves")
    q = desc.base ** desc.dimension
    if q * q > budget:
        raise BudgetError(
            f"point count enumerates q^2 = {q * q} pairs, over the budget of {budget}"
        )
    a1, a2, a3, a4, a6 = e.a1, e.a2, e.a3, e.a4, e.a6
    elements = list(desc.iter_elements())
    count = 1
    for x in elements:
        rhs = ((x + a2) * x + a4) * x + a6
        shear = a1 * x + a3
        for y in elements:
            if y * (y + shear) == rhs:
                count += 1
    return count


def low_degree_filter(hits, n, override=None):
    """Keep the hits with place_degree strictly below gon(n); order preserved.

    The bound is `override` when given, else DEFAULT_GONALITIES[n]; an
    unknown n without an override raises KeyError naming the known N, and
    an override below 1 raises ValueError.
    """
    if override is not None and override < 1:
        raise ValueError(f"gonality must be at least 1, got {override}")
    bound = override
    if bound is None:
        if n not in DEFAULT_GONALITIES:
            raise KeyError(f"no gonality bound for N={n}; known N: {sorted(DEFAULT_GONALITIES)}")
        bound = DEFAULT_GONALITIES[n]
    return [h for h in hits if h.place_degree < bound]


def hit_record(hit):
    """The machine-readable form of one hit; field elements in text form."""
    return {
        "p": hit.p,
        "d": hit.d,
        "b": hit.b.to_text(),
        "c": hit.c.to_text(),
        "order": hit.order,
        "place_degree": hit.place_degree,
    }


def format_hit_line(hit):
    return json.dumps(hit_record(hit), separators=(", ", ": "))


def summary_record(p, d, hits, elapsed):
    return {
        "pairs_scanned": p ** (2 * d),
        "hits": len(hits),
        "elapsed_seconds": round(elapsed, 3),
    }
