"""Shared randomized-property drivers for the unit and acceptance tests.

Every function takes explicit sample counts and a seed, asserts on any
violation, and returns the number of samples it checked.  Oracles here
deliberately avoid the code paths they are checking: the naive scan
walks the (b, c) grid with repeated addition only, and the exact order
verdict works over Q alone, with no reduction mod p.
"""

import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from x1torsion import (
    Curve,
    FieldDescriptor,
    FieldElement,
    FieldZeroDivision,
    ZeroDivisorError,
    add_points,
    cli,
    fields,
    find_irreducible,
    negate,
    parse_fixture,
    prime_factors,
    scalar_mul,
    scan,
    tate_curve,
)
from x1torsion.fixtures import FixtureError, fixture_record

# hit counts and stdout digests of `scan` grids, from the benchmark's
# independent oracle
SCAN_TABLE = Path(__file__).resolve().parents[1] / "bench" / "scan_table.json"
SCAN_GRIDS = [tuple(int(v) for v in key.replace("^", ":").split(":"))
              for key in json.loads(SCAN_TABLE.read_text(encoding="utf-8"))]
# every (p, d, N) the benchmark scans: its table, then its two warm-up scans
BENCH_GRIDS = SCAN_GRIDS + [(7, 1, 5), (2, 2, 5)]


def reference_main(argv=None):
    """cli.main with one parse by the top parser, then the same exit codes:
    the oracle for main's parse by the subcommand's parser alone."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except cli.BudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (FixtureError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (cli.CurveError, cli.FieldError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


def pool_every_grid(monkeypatch, cpus):
    """Make each later scan_fp a pool scan: STEPS_PER_WORKER = 1, `cpus` usable CPUs."""
    monkeypatch.setattr(scan, "STEPS_PER_WORKER", 1)
    monkeypatch.setattr(scan.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def random_scalar(rng, base):
    if base is None:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return rng.randrange(base)


def random_element(rng, desc):
    def build(dims):
        if not dims:
            return random_scalar(rng, desc.base)
        return [build(dims[1:]) for _ in range(dims[0])]

    return desc.from_coords(build(desc.degrees))


def random_nonzero(rng, desc):
    while True:
        x = random_element(rng, desc)
        if not x.is_zero():
            return x


def assert_canonical(*values):
    """Each value is in the one canonical form: over Q, den > 0 and
    gcd(den, *flat) = 1; over F_p, den = 1 and every coordinate in [0, p)."""
    for v in values:
        p = v.descriptor.base
        if p is None:
            assert v.den > 0 and math.gcd(v.den, *v.flat) == 1, v
        else:
            assert v.den == 1 and all(0 <= c < p for c in v.flat), v


def check_ring_axioms(desc, samples, seed):
    rng = random.Random(seed)
    zero, one = desc.zero(), desc.one()
    for _ in range(samples):
        x = random_element(rng, desc)
        y = random_element(rng, desc)
        z = random_element(rng, desc)
        xy, yz, xz, neg = x * y, y * z, x * z, -x
        pairs = [(x + y, y + x), ((x + y) + z, x + (y + z)), (xy, y * x), (xy * z, x * yz),
                 (x * (y + z), xy + xz), (x + neg, zero), (x * one, x), (x + zero, x)]
        for left, right in pairs:
            assert left == right
            assert_canonical(left, right)
        assert_canonical(yz, neg)
    return samples


def check_inversion(desc, samples, seed):
    rng = random.Random(seed)
    one = desc.one()
    for _ in range(samples):
        x = random_nonzero(rng, desc)
        inv = x.inverse()
        product = x * inv
        assert product == one
        assert_canonical(inv, product)
    return samples


def random_tate_curve(rng, desc):
    """A nonsingular random Tate curve; resamples the degenerate locus."""
    while True:
        b, c = random_element(rng, desc), random_element(rng, desc)
        e = tate_curve(b, c)
        if not e.invariants.disc.is_zero():
            return (b, c), e


def random_point(rng, e):
    zero = e.descriptor.zero()
    p = scalar_mul(e, rng.randint(0, 60), e.point(zero, zero))
    if rng.random() < 0.3:
        p = negate(e, p)
    return p


def check_group_laws(p, triples, seed):
    rng = random.Random(seed)
    desc = FieldDescriptor.prime_field(p)
    for _ in range(triples):
        _, e = random_tate_curve(rng, desc)
        a = random_point(rng, e)
        b = random_point(rng, e)
        c = random_point(rng, e)
        assert add_points(e, a, b) == add_points(e, b, a)
        assert add_points(e, add_points(e, a, b), c) == add_points(e, a, add_points(e, b, c))
        assert add_points(e, a, e.infinity()) == a
        assert add_points(e, a, negate(e, a)).is_infinity
    return triples


def check_closure(p, curve_count, seed):
    # add_points and negate build their results without checking them on
    # the curve, so each sum, its double and its negative are checked here
    rng = random.Random(seed)
    desc = FieldDescriptor.prime_field(p)
    for _ in range(curve_count):
        _, e = random_tate_curve(rng, desc)
        a = random_point(rng, e)
        b = random_point(rng, e)
        s = add_points(e, a, b)
        for point in (s, add_points(e, s, s), negate(e, s)):
            assert point.is_infinity or e.contains(point.x, point.y)
    return curve_count


def check_scalar_homomorphism(p, samples, seed, bound=1000):
    rng = random.Random(seed)
    desc = FieldDescriptor.prime_field(p)
    for _ in range(samples):
        _, e = random_tate_curve(rng, desc)
        point = random_point(rng, e)
        m = rng.randint(0, bound)
        n = rng.randint(0, bound)
        assert scalar_mul(e, m + n, point) == add_points(
            e, scalar_mul(e, m, point), scalar_mul(e, n, point))
        assert scalar_mul(e, m * n, point) == scalar_mul(e, m, scalar_mul(e, n, point))
    return samples


def check_naive_vs_double_add(p, curve_count, seed, kmax=50):
    rng = random.Random(seed)
    desc = FieldDescriptor.prime_field(p)
    for _ in range(curve_count):
        _, e = random_tate_curve(rng, desc)
        base = random_point(rng, e)
        acc = e.infinity()
        for k in range(1, kmax + 1):
            acc = add_points(e, acc, base)
            assert acc == scalar_mul(e, k, base), k
    return curve_count


def check_closed_forms(p, samples, seed):
    rng = random.Random(seed)
    desc = FieldDescriptor.prime_field(p)
    zero = desc.zero()
    for _ in range(samples):
        (b, c), e = random_tate_curve(rng, desc)
        marked = e.point(zero, zero)
        double = scalar_mul(e, 2, marked)
        assert (double.x, double.y) == (b, b * c)
        triple = scalar_mul(e, 3, marked)
        assert (triple.x, triple.y) == (c, b - c)
    return samples


def naive_order_of_marked_point(e, cap):
    """Order of (0, 0) by repeated addition only; None if it exceeds cap."""
    zero = e.descriptor.zero()
    marked = e.point(zero, zero)
    acc = marked
    order = 1
    while not acc.is_infinity:
        acc = add_points(e, acc, marked)
        order += 1
        if order > cap:
            return None
    return order


def naive_orders(p, d=1, cap=None):
    """Independent single-threaded scan oracle over F_{p^d}.

    Maps the (b, c) coordinate pairs of every nonsingular curve to the
    order of its marked point, using only repeated addition; orders past
    `cap` map to None.  For d > 1 the field is F_p[t] modulo
    find_irreducible(p, d), the modulus scan_fp picks.
    """
    if d == 1:
        desc = FieldDescriptor.prime_field(p)
    else:
        desc = FieldDescriptor.prime_field(p, [("t", find_irreducible(p, d))])
    orders = {}
    if cap is None:
        cap = 2 * p ** d + 3  # Hasse: group order is below this
    for b in desc.iter_elements():
        for c in desc.iter_elements():
            e = tate_curve(b, c)
            if not e.invariants.disc.is_zero():
                orders[b.flat_coords(), c.flat_coords()] = naive_order_of_marked_point(e, cap)
    return orders


def naive_scan(p, n, d=1):
    """The (b, c) coordinate pairs whose marked point has exact order n."""
    return {pair for pair, order in naive_orders(p, d, cap=n).items() if order == n}


def reference_walk_hits(field, orders):
    """{n: the (b, c) flat coordinate pairs with first zero of W_k at n and
    disc != 0} for each n in `orders`, over a scan._LogField.

    Each pair walks W_{k+2} W_{k-2} = b^2 W_{k+1} W_{k-1} + b^3 W_k^2 from
    W_1 .. W_4 = 1, -b, -b^3, b^5 c in logs, by field.ops() and exponent
    differences alone: no row table, no ratio and no half walk.  The disc
    comes from curve_invariants of the pair's Tate curve.
    """
    add, mul = field.ops()
    m, minus_one, flats = len(field.zech), field.minus_one, field.flats
    hits = {n: set() for n in orders}
    for b in range(m):
        b2 = mul(b, b)
        b3 = mul(b2, b)
        for c in [None, *range(m)]:
            w = [None, 0, mul(minus_one, b), mul(minus_one, b3), mul(mul(b3, b2), c)]
            while w[-1] is not None and len(w) <= max(orders):
                k = len(w) - 2
                top = add(mul(b2, mul(w[k + 1], w[k - 1])), mul(b3, mul(w[k], w[k])))
                w.append(None if top is None else (top - w[k - 2]) % m)
            if w[-1] is None and len(w) - 1 in hits:
                pair = [flats[0 if x is None else field.exp[x]] for x in (b, c)]
                bb, cc = (FieldElement(field.desc, x) for x in pair)
                if not tate_curve(bb, cc).is_singular():
                    hits[len(w) - 1].add(tuple(pair))
    return hits


def exact_order_verdict(fixture):
    """The disc, order, passed and reason fields of a fixture's report record,
    from exact arithmetic over its field: the exact disc, then plain
    scalar_mul for [N]P and every [N/q]P, q | N prime."""
    e = tate_curve(fixture.b, fixture.c)
    if e.invariants.disc.is_zero():
        return {"disc_nonzero": False, "order": None, "passed": False,
                "reason": "disc = 0: the curve is singular"}
    zero = fixture.b.descriptor.zero()
    point = e.point(zero, zero)
    n = fixture.expected_order
    primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]
    checks = [[k, scalar_mul(e, k, point).is_infinity] for k in [n] + [n // q for q in primes]]
    if not checks[0][1]:
        why = f"[{n}]P is not infinity"
    else:
        why = next((f"[{k}]P is already infinity" for k, inf in checks[1:] if inf), None)
    passed = why is None
    why = f"exact order {n}" if passed else why
    return {
        "disc_nonzero": True,
        "order": {"target": n, "passed": passed, "checks": checks, "reason": why},
        "passed": passed,
        "reason": why if passed else f"order check failed: {why}",
    }


def _monomials(gens, degrees):
    """The basis monomials prod gens[i]^e_i, in flat coordinate order."""
    one = gens[0].descriptor.one()
    return [math.prod((g ** e for g, e in zip(gens, exps)), start=one)
            for exps in itertools.product(*(range(d) for d in degrees))]


def shifted_fixture(fixture, ks):
    """The same claim with generator i re-presented as h_i = g_i + ks[i]:
    minpoly m_i(x - k_i), and b, c rewritten in the h_i by field arithmetic."""
    record = fixture_record(fixture)
    desc = fixture.b.descriptor
    for gen, g, k in zip(record["generators"], desc.generators, ks):
        m = [Fraction(v) for v in g.minpoly]
        gen["minpoly"] = [str(sum(m[e] * math.comb(e, j) * (-k) ** (e - j)
                                  for e in range(j, len(m)))) for j in range(len(m))]
    shifted = parse_fixture(record).b.descriptor
    # g_i = h_i - k_i
    monomials = _monomials([shifted.gen(i) - k for i, k in enumerate(ks)], desc.degrees)
    for side in ("b", "c"):
        coords = getattr(fixture, side).flat_coords()
        record[side] = sum((v * m for v, m in zip(coords, monomials)), shifted.zero()).to_text()
    return parse_fixture(record)


def perturbed_fixture(fixture, side, slot, delta):
    """The fixture with flat coordinate `slot` of b or c moved by delta."""
    record = fixture_record(fixture)
    desc = fixture.b.descriptor
    basis = _monomials([desc.gen(i) for i in range(len(desc.generators))], desc.degrees)
    record[side] = (getattr(fixture, side) + delta * basis[slot]).to_text()
    return parse_fixture(record)


def reference_good_places(e, point):
    """The good places of curves.place_orders by FieldElement arithmetic:
    the roots of each reduced minpoly by trying every r in F_p, each
    element's value at a place as a sum over its monomials, and disc from
    curve_invariants; yields (p, [a1, a2, a3, a4, a6, x, y]) as ints in [0, p)."""
    elems = (e.a1, e.a2, e.a3, e.a4, e.a6, point.x, point.y)
    for A in e.descriptor.residues(*elems):
        p = A.base
        roots = [[r for r in range(p) if sum(c * r ** i for i, c in enumerate(g.minpoly)) % p == 0]
                 for g in A.generators]
        exponents = list(itertools.product(*(range(d) for d in A.degrees)))
        for place in itertools.product(*roots):
            values = [sum(v * math.prod(r ** k for r, k in zip(place, exps))
                          for v, exps in zip(A.image(u).flat, exponents)) % p
                      for u in elems]
            e_bar, _ = place_curve(p, values)  # raises if the point is off the curve
            if not e_bar.invariants.disc.is_zero():
                yield p, values


def first_good_places(e, point):
    """The first place of each residue characteristic in reference_good_places,
    the one place_orders yields for it."""
    for _, places in itertools.groupby(reference_good_places(e, point), key=lambda pv: pv[0]):
        yield next(places)


def place_curve(p, values):
    """The curve and point over F_p of a place (p, [a1, ..., a6, x, y])."""
    F = FieldDescriptor.prime_field(p)
    *coeffs, x, y = (F.from_scalar(v) for v in values)
    e = Curve(*coeffs)
    return e, e.point(x, y)


def naive_point_count(e):
    """#E(F_q) by the double loop over (x, y): 1 + the affine points."""
    elements = list(e.descriptor.iter_elements())
    count = 1
    for x in elements:
        rhs = ((x + e.a2) * x + e.a4) * x + e.a6
        shear = e.a1 * x + e.a3
        for y in elements:
            if y * (y + shear) == rhs:
                count += 1
    return count


def brute_is_field(ring):
    """Whether every nonzero element of the finite ring has an inverse, each
    found by trying every element: no Rabin test and no linear algebra."""
    elements, one = list(ring.iter_elements()), ring.one()
    return all(any(x * y == one for y in elements) for x in elements[1:])


def rank_mod_p(rows, p):
    """The rank over F_p of a list of int vectors, by row reduction."""
    rows, rank = [list(r) for r in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col] * inv
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def brute_generates_field(theta, is_field):
    """Whether the ring of theta, a field by is_field, is spanned over F_p by
    1, theta, ..., theta^(d - 1)."""
    desc = theta.descriptor
    d, power, rows = desc.dimension, desc.one(), []
    for _ in range(d):
        rows.append(power.flat)
        power = power * theta
    return is_field and rank_mod_p(rows, desc.base) == d


def reference_field_certificate(b, c):
    """fixtures.field_certificate by Rabin's test on theta = b + lam*c itself,
    with no decision per ring: the first prime of CERTIFY_PRIMES, in neither
    a minpoly's nor b's or c's denominator, with theta^(p^d) = theta and
    theta^(p^(d/r)) - theta a unit for every prime r | d, for some lam below
    min(p, 1 + #{r}); None if there is none."""
    desc = b.descriptor
    d, gens = desc.dimension, [(g.name, g.minpoly) for g in desc.generators]
    primes = prime_factors(d)
    den = math.lcm(b.den, c.den, *(Fraction(v).denominator for _, m in gens for v in m))

    def is_unit(x):
        try:
            x.inverse()
        except (FieldZeroDivision, ZeroDivisorError):
            return False
        return True

    for p in fields.CERTIFY_PRIMES:
        if den % p == 0:
            continue
        A = FieldDescriptor.prime_field(p, gens)
        b_bar, c_bar = A.image(b), A.image(c)
        for lam in range(min(p, len(primes) + 1)):
            frob = [b_bar + lam * c_bar]
            for _ in range(d):
                frob.append(frob[-1] ** p)
            theta = frob[0]
            if frob[d] == theta and all(is_unit(frob[d // r] - theta) for r in primes):
                return p
    return None
