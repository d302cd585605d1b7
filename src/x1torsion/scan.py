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
flat residue tuples once per (p, d) per process, for the last few
fields, and later scans of the field share them.  Each pair walks the
elliptic divisibility sequence of the marked point: on a nonsingular
curve its first zero is the exact order, so the walk stops at the first
zero and takes at most N - 4 steps of one lookup each in a per-row
table.  Only the pairs whose walk first vanishes at N take the
closed-form disc test, which drops the walk zeros of singular curves.
Frobenius multiplies a log by p, so one walk serves a whole orbit of
rows b -> b^p, and a hit's place degree is read off its logs.  With
--jobs the processes share out whole orbits.  FieldElement appears only
in the two elements of each hit; place_degree and the group law in
curves stay the references the tests compare against.
"""

from __future__ import annotations

import functools
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
        self.desc = desc
        self.p = p = desc.base
        self.d = desc.dimension
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
        self.exp = exp
        self.log = log = [None] * q
        for k, i in enumerate(exp):
            log[i] = k
        self.zech = [log[(i + step) % q] for i in exp]
        self.minus_one = log[(p - 1) * step]

    def conjugates(self, i):
        """{row of x^(p^e): p^e} over the distinct conjugates of x = flats[i] != 0."""
        k, p, m = self.log[i], self.p, len(self.zech)
        return {self.exp[k * p ** e % m]: p ** e for e in reversed(range(self.d))}

    def ops(self):
        """(add, mul) on logs, as closures over the tables."""
        zech, m = self.zech, len(self.zech)

        def add(a, b):
            if a is None:
                return b
            if b is None:
                return a
            z = zech[(b - a) % m]
            return None if z is None else (a + z) % m

        def mul(a, b):
            return None if a is None or b is None else (a + b) % m

        return add, mul


@functools.lru_cache(maxsize=8)
def _log_field(p, d):
    """The _LogField of F_p[t]/(find_irreducible(p, d)), F_p for d = 1; built
    once per (p, d) per process for the last eight fields.  No scan mutates it."""
    return _LogField(FieldDescriptor.prime_field(
        p, [("t", find_irreducible(p, d))] if d > 1 else []))


def _scan_rows(args):
    """The hits (i, j, place degree) with b = flats[i] for i in `rows`,
    c = flats[j]; the per-process work item.

    args is (field, n, rows), with field the _LogField scan_fp built.
    Each pair with c != 0 walks the elliptic divisibility sequence W_k of
    the marked point P = (0, 0), whose first zero is the order of P on a
    nonsingular curve.  With W_1 = 1, W_2 = -b, W_3 = -b^3, W_4 = b^5 c and
    W_{k+2} W_{k-2} = b^2 W_{k+1} W_{k-1} + b^3 W_k^2, the ratios
    f_k = W_{k+1} W_{k-1} / W_k^2 start at f_2 = -b, f_3 = -c and satisfy
    f_{k+1} = b^2 (f_k + b) / (f_k^2 f_{k-1}); W_{k+2} = 0 exactly when
    f_k = -b.  A row's table step[f] = log(b^2 (f + b) / f^2), None at
    f = -b, makes each step one lookup; the walk takes at most n - 4 steps
    and leaves at the first zero.  It never divides by zero, but singular
    curves have walk zeros too, so only the pairs whose walk first vanishes
    at n (and the c = 0 column, where W_4 = 0, when n = 4) take the
    closed-form disc test.  Frobenius is an automorphism, so the hits of
    row b^(p^e) are those of row b with c -> c^(p^e), which multiplies a
    log by p^e: one walk, at the first row of an orbit in `rows`, serves
    every row of that orbit in `rows`.  The hits come out unsorted.
    The place degree is read off the logs: b and c are fixed by the e-th
    power of Frobenius when k (p^e - 1) = 0 mod q - 1 for k the gcd of
    their logs (0, with log None, is fixed).
    """
    field, n, rows = args
    p, d, log, exp = field.p, field.d, field.log, field.exp
    add, mul = field.ops()
    m8, m20, sixteen = (log[k % p * field.step] for k in (-8, -20, 16))
    zech, m, minus_one = field.zech, len(field.zech), field.minus_one
    early = range(n - 5)  # k = 3 .. n - 3, where W_{k+2} must not vanish
    todo, found = set(rows), []
    for i in rows:
        b = log[i]
        if b is None or i not in todo:
            continue  # disc = b^3 * (...) vanishes on row 0; other rows were mapped
        # f + b = f (1 + b / f), so step[f] = 2b + zech[b - f] - f; f_3 = -c for each c != 0
        step = [None if z is None else (2 * b + z - f) % m
                for f, z in enumerate(zech[b::-1] + zech[:b:-1])]
        nb, survivors = (b + minus_one) % m, [None] if n == 4 else []
        for f3 in range(m) if n > 4 else ():
            f, fp = f3, nb
            for _ in early:
                s = step[f]
                if s is None:
                    break  # W vanishes before index n
                f, fp = (s - fp) % m, f
            else:
                if step[f] is None:
                    survivors.append((f3 - minus_one) % m)
        # disc / b^3 = 16 b^2 + b - 20 bc - 8 bc^2 + c (c - 1)^3
        hits, const, m20b, m8b = [], add(mul(sixteen, mul(b, b)), b), mul(m20, b), mul(m8, b)
        for c in survivors:
            cm1 = add(c, minus_one)
            cubic = mul(c, mul(cm1, mul(cm1, cm1)))
            if add(add(const, mul(m20b, c)), add(mul(m8b, mul(c, c)), cubic)) is not None:
                k = math.gcd(b, c or 0)
                hits.append((c, next(e for e in range(1, d + 1) if k * (p ** e - 1) % m == 0)))
        for r, pe in field.conjugates(i).items():
            if r in todo:
                todo.discard(r)
                found += [(r, 0 if c is None else exp[c * pe % m], e) for c, e in hits]
    return found


def scan_fp(p, d, n, budget=DEFAULT_BUDGET, jobs=1):
    """Enumerate all (b, c) in F_{p^d}^2 whose marked point has exact order n.

    The grid holds p^(2d) pairs; runs beyond `budget` are refused with
    BudgetError before any work starts.  For d > 1 the extension is
    F_p[t]/(find_irreducible(p, d)).  Every pair runs on the log-form
    kernel of _scan_rows, and FieldElement is built only for the hits.
    Output is sorted by (b, c) coordinates, identical for any `jobs`
    value.  min(jobs, q, CPU count) processes share the Frobenius orbits
    of the rows b, whole orbits each, so no row is walked twice.
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
    field = _log_field(p, d)
    desc, q = field.desc, p ** d
    workers = 1 if jobs == 1 else min(jobs, q, os.cpu_count() or 1)
    if workers > 1:
        orbits = list({min(o): o for o in map(field.conjugates, range(1, q))}.values())
        work = [(field, n, [r for orbit in orbits[k::workers] for r in orbit])
                for k in range(workers)]
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays its import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            found = [t for share in pool.map(_scan_rows, work) for t in share]
    else:
        found = _scan_rows((field, n, range(q)))
    flats = field.flats
    return [ScanHit(p, d, FieldElement(desc, flats[i]), FieldElement(desc, flats[j]), n, e)
            for i, j, e in sorted(found)]


def point_count(e, budget=DEFAULT_BUDGET):
    """#E(F_q): 1 + the number of y with y^2 + s y = r, summed over x, for
    s = a1 x + a3 and r = x^3 + a2 x^2 + a4 x + a6.

    For odd p that number is 1 + chi(s^2 + 4 r), chi the quadratic character
    by Euler's criterion.  For p = 2 it is 1 where s = 0, as squaring is a
    bijection; otherwise y = s z gives z^2 + z = r / s^2, with 2 solutions
    when the trace of r / s^2 is 0 and none when it is 1.  Exact and linear
    in q, so runs with q beyond `budget` are refused.
    """
    desc = e.descriptor
    if not desc.is_finite:
        raise ValueError("point counting needs a finite field")
    if e.is_singular():
        raise ValueError("point counting is for nonsingular curves")
    p, d = desc.base, desc.dimension
    q = p ** d
    if q > budget:
        raise BudgetError(f"point count takes q = {q} values of x, over the budget of {budget}")
    count = 1
    for x in desc.iter_elements():
        r = ((x + e.a2) * x + e.a4) * x + e.a6
        s = e.a1 * x + e.a3
        if p > 2:
            t = s * s + 4 * r
            count += 1 if t.is_zero() else 2 if t ** (q // 2) == desc.one() else 0
        elif s.is_zero():
            count += 1
        else:
            t = trace = r / (s * s)
            for _ in range(d - 1):
                t = t * t
                trace = trace + t
            count += 0 if trace else 2
    return count


def low_degree_filter(hits, n):
    """Keep the hits with place_degree strictly below gon(n) =
    DEFAULT_GONALITIES[n]; order preserved.  An n not in the table raises
    KeyError naming the known N.
    """
    if n not in DEFAULT_GONALITIES:
        raise KeyError(f"no gonality bound for N={n}; known N: {sorted(DEFAULT_GONALITIES)}")
    return [h for h in hits if h.place_degree < DEFAULT_GONALITIES[n]]


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
    return json.dumps(hit_record(hit))


def summary_record(p, d, hits, elapsed):
    return {
        "pairs_scanned": p ** (2 * d),
        "hits": len(hits),
        "elapsed_seconds": round(elapsed, 3),
    }
