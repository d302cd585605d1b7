"""Exhaustive enumeration of Tate parameter pairs over small finite fields.

A pair (b, c) in F_q x F_q with nonvanishing discriminant carries the
marked point (0, 0) on its Tate curve; the scan keeps exactly the pairs
where that point has a requested exact order N.  Each hit records its
place degree, the least e with b, c both fixed by the e-th power of
Frobenius.  Hits of place degree below a gonality bound are the
low-degree survivors the filter retains.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .curves import TateParams, scalar_mul, tate_curve, verify_order
from .fields import FieldDescriptor, FieldElement, is_prime
from .polys import Poly, find_irreducible, is_irreducible_mod_p

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

    def sort_key(self):
        return (self.b.flat_coords(), self.c.flat_coords())


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


def _hits_for_b(args):
    """All hits in the row of fixed b; the per-process work item."""
    b, n = args
    desc = b.descriptor
    p = desc.base
    d = desc.dimension
    hits = []
    for c in desc.iter_elements():
        params = TateParams(b, c)
        e = tate_curve(params)
        if e.invariants.disc.is_zero():
            continue
        point = e.point(desc.zero(), desc.zero())
        # Reject early on [N]P != infinity; the full certificate runs on
        # survivors only.
        if not scalar_mul(e, n, point).is_infinity:
            continue
        cert = verify_order(e, point, n)
        if not cert.passed:
            continue
        hits.append(ScanHit(p, d, b, c, n, place_degree(b, c)))
    return hits


def scan_fp(p, d, n, modpoly=None, budget=DEFAULT_BUDGET, jobs=1):
    """Enumerate all (b, c) in F_{p^d}^2 whose marked point has exact order n.

    The grid holds p^(2d) pairs; runs beyond `budget` are refused with
    BudgetError before any work starts.  For d > 1 a monic irreducible
    `modpoly` (a Poly over F_p or its coefficient list) may define the
    extension; otherwise a deterministic seeded search finds one.  Output
    is sorted by (b, c) coordinates, identical for any `jobs` value.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not isinstance(d, int) or d < 1:
        raise ValueError("extension degree must be a positive integer")
    if not isinstance(n, int) or n < 1:
        raise ValueError("target order must be a positive integer")
    pairs = p ** (2 * d)
    if pairs > budget:
        raise BudgetError(
            f"scan of p^(2d) = {pairs} pairs exceeds the budget of {budget}; "
            "raise the budget explicitly to run this"
        )
    desc = _extension_descriptor(p, d, modpoly)
    work = [(b, n) for b in desc.iter_elements()]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_hits_for_b, work))
    else:
        rows = [_hits_for_b(item) for item in work]
    hits = [h for row in rows for h in row]
    hits.sort(key=ScanHit.sort_key)
    return hits


def _extension_descriptor(p, d, modpoly):
    if d == 1:
        if modpoly is not None:
            raise ValueError("modpoly is only meaningful for d > 1")
        return FieldDescriptor.prime_field(p)
    if modpoly is None:
        poly = find_irreducible(p, d)
    else:
        prime = FieldDescriptor.prime_field(p)
        poly = modpoly if isinstance(modpoly, Poly) else Poly.make(prime, list(modpoly))
        if poly.domain != prime:
            raise ValueError("modpoly must be defined over F_p")
        if poly.degree != d or not poly.is_monic():
            raise ValueError(f"modpoly must be monic of degree {d}")
        if not is_irreducible_mod_p(poly):
            raise ValueError("modpoly is reducible; supply an irreducible polynomial")
    coeffs = tuple(int(coeff.coords) for coeff in poly.coeffs)
    return FieldDescriptor.prime_field(p, [("t", coeffs)])


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
    unknown n without an override raises KeyError naming the known N.
    """
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
