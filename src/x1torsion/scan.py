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
curve its first zero is the exact order.  The walk stops at a zero and
takes at most N // 2 - 2 steps, each one lookup in a per-row table and
one subtraction, unreduced; Ward's duplication formulas then read W_N = 0
off its last ratios.  Only the pairs with W_N = 0 take the closed-form
disc test, which drops the walk zeros of singular curves.  Frobenius
multiplies a log by p, so one walk serves a whole orbit of rows
b -> b^p, and a hit's place degree is read off its logs.  One estimate
of the work, made before any table is built, refuses grids past
MAX_STEPS and deals large ones to a process pool by whole orbits; a
grid that Hasse's bound leaves empty builds no table.
FieldElement appears only in the two elements of each hit; place_degree
and the group law in curves stay the references the tests compare against.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass

from .fields import FieldDescriptor, FieldElement, _mul_flat, is_prime
from .polys import find_irreducible

# refusal seconds: F_1009 and F_10007 rows at N = 5 ... 37 fit 180-220 ns a pair plus 17-24 a step
NS_PER_PAIR, NS_PER_STEP = 200, 20
MAX_STEPS = 26 * 10 ** 8  # estimated steps: about 70 s serial at N = 29, up to 4x that at N = 5
STEPS_PER_WORKER = 25 * 10 ** 5  # estimated steps: about 75 ms, near a pool of two's break-even

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
    g^zech[k] = 1 + g^k and zech[k] is None when 1 + g^k = 0; zx[k] =
    k + zech[k], None with it, gives g^zx[k] = g^k + g^2k, unreduced, for
    the scan's row tables.  `flats` lists F_q as flat residue tuples in
    iter_elements order, and log[i] is the log of flats[i].  Element
    `step` = q/p is 1.  For each candidate g in flats[1:] order the walk
    x <- x g (by _mul_flat, reduced mod p here) from 1 runs until it
    returns to 1; it takes the order of g steps, so the first walk of
    q - 1 steps finds the primitive element g and is the exp table.
    Adding 1 to element i gives element (i + step) mod q, so the Zech
    table and minus_one need no sums.
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
                x = tuple([v % p for v in _mul_flat(desc, x, g)])
            if len(exp) == q - 1:
                break
        self.exp = exp
        self.log = log = [None] * q
        for k, i in enumerate(exp):
            log[i] = k
        self.zech = zech = [log[(i + step) % q] for i in exp]
        self.zx = [None if z is None else z + k for k, z in enumerate(zech)]
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

    args is (field, n, rows, pooled), field the _LogField scan_fp built; a
    pooled worker exits at a row where the scan that started it is gone.
    Each pair with c != 0 walks the elliptic divisibility sequence W_k of
    the marked point P = (0, 0), whose first zero is the order of P on a
    nonsingular curve.  With W_1 = 1, W_2 = -b, W_3 = -b^3, W_4 = b^5 c and
    W_{k+2} W_{k-2} = b^2 W_{k+1} W_{k-1} + b^3 W_k^2, the ratios
    f_k = W_{k+1} W_{k-1} / W_k^2 start at f_2 = -b, f_3 = -c and satisfy
    f_{k+1} = b^2 (f_k + b) / (f_k^2 f_{k-1}); W_{k+2} = 0 exactly when
    f_k = -b.  A row's table step[f] = log(b^2 (f + b) / f^2), None at
    f = -b, makes each step one lookup and one subtraction.  The W_k are
    division polynomials at P: W_{m+j} W_{m-j} = W_{m+1} W_{m-1} W_j^2 -
    W_{j+1} W_{j-1} W_m^2 for every (b, c) (Ward 1948).  For k = n // 2 the
    walk takes k - 2 steps, to f_{k+1}, leaving at a zero; with W_j != 0 for
    j <= k + 2, (m, j) = (k + 1, k) gives W_{2k+1} = 0 iff f_{k+1} = f_k, and
    (k + 1, k - 1) gives W_{2k} = 0 iff f_{k+1} = f_{k-1}.  On a nonsingular curve
    W_n = 0 then puts the order of P in (n/2, n], dividing n: it is n.  n <= 4
    walks nothing and builds no row table.  The walk never divides by zero,
    but singular curves have walk zeros too, so only the pairs with W_n = 0
    (and the c = 0 column, where W_4 = 0, when n = 4) take the closed-form
    disc test.  Frobenius is an automorphism,
    so the hits of row b^(p^e) are those of row b with c -> c^(p^e), which
    multiplies a log by p^e: one walk, at the first row of an orbit in
    `rows`, serves every row of that orbit in `rows`.  Hits are unsorted.
    The place degree is read off the logs: b and c are fixed by the e-th
    power of Frobenius when k (p^e - 1) = 0 mod q - 1 for k the gcd of
    their logs (0, with log None, is fixed).
    """
    field, n, rows, pooled = args
    p, d, log, exp = field.p, field.d, field.log, field.exp
    add, mul = field.ops()
    m8, m20, sixteen = (log[k % p * field.step] for k in (-8, -20, 16))
    m, minus_one, even = len(field.zech), field.minus_one, n % 2 == 0
    # u and v take turns at f_{j+1} = step[f_j] - f_{j-1}, unreduced: step is the row table
    # plus lift, repeated reps times.  An update reflects a register about base + m/2 and
    # adds less than m, so at f_j it is within (j // 4 + 1/2) m of it; j <= k keeps every
    # index in (0, (2g + 1) m), non-negative: the only ints CPython specialises indexing on.
    t = n // 2 - 2  # k = n // 2: the walk reads f_3 .. f_{k+1}
    g = t // 4 + 2
    base, lift, reps = g * m, (2 * g + 1) * m, 2 * g + 1
    pairs, odd, walks = range(t // 2), t % 2, range(m) if n > 4 else ()
    todo, found, parent = set(rows), [], None
    if pooled:  # a pool worker has imported multiprocessing already; a serial scan does not
        from multiprocessing import parent_process
        parent = parent_process()  # the scan, under fork, spawn and forkserver alike
    for i in rows:
        b = log[i]
        if b is None or i not in todo:
            continue  # disc = b^3 * (...) vanishes on row 0; other rows were mapped
        if parent and not parent.is_alive():
            os._exit(0)  # its scan is gone; a worker that returned would block on its queue
        if walks:  # f + b = f (1 + b / f), so step[f] = 2b + zech[b - f] - f = b + zx[b - f]
            step = [None if z is None else (b + z) % m + lift
                    for z in field.zx[b::-1] + field.zx[:b:-1]] * reps
        nb, survivors = base + (b + minus_one) % m, [None] if n == 4 else []
        for f3 in walks:  # f_3 = -c for each c != 0
            u, v = base + f3, nb
            if odd:
                s = step[u]
                if s is None:
                    continue  # W_5 = 0
                u, v = s - v, u
            for _ in pairs:
                s = step[u]
                if s is None:
                    break  # W vanishes by index k + 2
                v = s - v
                s = step[v]
                if s is None:
                    break
                u = s - u
            else:  # u = f_{k+1}, v = f_k, s = f_{k+1} + f_{k-1}: is W_n = 0?
                if (u + u - s if even else u - v) % m == 0:
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


def scan_fp(p, d, n):
    """Enumerate all (b, c) in F_{p^d}^2 whose marked point has exact order n.

    For d > 1 the extension is F_p[t]/(find_irreducible(p, d)).  Every pair
    runs on the log-form kernel of _scan_rows; FieldElement is built only
    for the hits, sorted by (b, c).  Its work, s = q^2 // d * max(1, min(n,
    q + 2 sqrt(q) + 2) - 3) steps (a row-table entry per pair and two per
    step of a walk of at most min(n, Hasse) // 2 - 2 steps), is estimated
    before any table is built: past MAX_STEPS it is refused with
    BudgetError, stating s and NS_PER_PAIR per pair, q^2 // d of them, plus
    NS_PER_STEP per step as seconds.  A grid
    whose Hasse interval for #E(F_q) holds no multiple of n has no hit and
    builds no table, so row tables, of at most q (n/4 + 4) entries, stay
    below q (q/4 + sqrt(q)/2 + 5).
    Otherwise whole Frobenius orbits of rows b go to min(usable CPUs,
    orbits, 1 + s // STEPS_PER_WORKER) processes, or stay here.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not isinstance(d, int) or d < 1:
        raise ValueError("extension degree must be a positive integer")
    if not isinstance(n, int) or n < 1:
        raise ValueError("target order must be a positive integer")
    q = p ** d
    pairs = q * q // d
    steps = pairs * max(1, min(n, q + 2 * math.isqrt(q) + 2) - 3)
    if steps > MAX_STEPS:
        seconds = (pairs * NS_PER_PAIR + steps * NS_PER_STEP) // 10 ** 9
        raise BudgetError(f"scan takes about {steps} walk steps (about {seconds} s), "
                          f"over the budget of {MAX_STEPS}")
    r = math.isqrt(4 * q)
    if (q + 1 + r) // n * n < q + 1 - r:  # n | #E(F_q) in [q + 1 - r, q + 1 + r] (Hasse)
        return []
    field = _log_field(p, d)
    desc, workers = field.desc, 1 + steps // STEPS_PER_WORKER
    if workers > 1:
        orbits = list({min(o): o for o in map(field.conjugates, range(1, q))}.values())
        cpus = getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))(0)
        workers = min(workers, len(orbits), len(cpus))  # the CPUs taskset allows
    if workers > 1:
        work = [(field, n, [r for orbit in orbits[k::workers] for r in orbit], True)
                for k in range(workers)]
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays its import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            found = [t for share in pool.map(_scan_rows, work) for t in share]
    else:
        found = _scan_rows((field, n, range(q), False))
    flats = field.flats
    return [ScanHit(p, d, FieldElement(desc, flats[i]), FieldElement(desc, flats[j]), n, e)
            for i, j, e in sorted(found)]


def point_count(e):
    """#E(F_q): 1 + the number of y with y^2 + s y = r, summed over x, for
    s = a1 x + a3 and r = x^3 + a2 x^2 + a4 x + a6.

    For odd p that number is 1 + chi(s^2 + 4 r), chi the quadratic character
    by Euler's criterion.  For p = 2 it is 1 where s = 0, as squaring is a
    bijection; otherwise y = s z gives z^2 + z = r / s^2, with 2 solutions
    when the trace of r / s^2 is 0 and none when it is 1.  Exact and linear
    in q; at 1,000 estimated steps per x, q > MAX_STEPS / 1000 is refused first.
    """
    desc = e.descriptor
    if not desc.is_finite:
        raise ValueError("point counting needs a finite field")
    if e.is_singular():
        raise ValueError("point counting is for nonsingular curves")
    p, d = desc.base, desc.dimension
    q = p ** d
    if 1000 * q > MAX_STEPS:  # an x takes about 80 us (F_10007), 1000 estimated steps 20 us
        raise BudgetError(f"point count of q = {q} x values, 1000 steps each, exceeds {MAX_STEPS}")
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
    """json.dumps(hit_record(hit)) for a hit of scan_fp, from its ints and flat residues."""
    b, c = [f'"{x.flat[0]}"' if hit.d == 1 else '["' + '", "'.join(map(str, x.flat)) + '"]'
            for x in (hit.b, hit.c)]
    return (f'{{"p": {hit.p}, "d": {hit.d}, "b": {b}, "c": {c}, "order": {hit.order}, '
            f'"place_degree": {hit.place_degree}}}')


def summary_record(p, d, hits, elapsed):
    return {
        "pairs_scanned": p ** (2 * d),
        "hits": len(hits),
        "elapsed_seconds": round(elapsed, 3),
    }
