"""Finite-field scans checked against a repeated-addition oracle."""

import contextlib
import glob
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from x1torsion import (
    DEFAULT_GONALITIES,
    BudgetError,
    FieldDescriptor,
    FieldElement,
    ScanHit,
    find_irreducible,
    format_hit_line,
    low_degree_filter,
    place_degree,
    point_count,
    prime_factors,
    hit_record,
    scan_fp,
    summary_record,
    tate_curve,
)

from x1torsion import Curve, scalar_mul, scan
from x1torsion.curves import tate_normal_form
from x1torsion.scan import _LogField, _log_field, _scan_rows

from support import (
    BENCH_GRIDS,
    naive_orders,
    naive_point_count,
    naive_scan,
    pool_every_grid,
    random_element,
    random_tate_curve,
    reference_walk_hits,
)


def hit_coords(hits):
    return {(h.b.flat_coords(), h.c.flat_coords()) for h in hits}


# -------------------------------------------------------------- oracle match

@pytest.mark.parametrize("p,n", [(5, 4), (7, 5), (2, 37), (3, 7), (11, 6), (13, 9)])
def test_scan_matches_naive_oracle(p, n):
    hits = scan_fp(p, 1, n)
    assert hit_coords(hits) == naive_scan(p, n)
    for h in hits:
        assert h.order == n and h.p == p and h.d == 1 and h.place_degree == 1


@pytest.mark.parametrize("p,d", [(7, 1), (2, 3), (3, 2), (13, 1), (2, 4), (31, 1)])
def test_first_zero_of_the_walk_is_the_group_law_order(p, d):
    # the hit sets for N = 1 .. q + 1 + 2 sqrt(q) (Hasse) partition the
    # nonsingular pairs, each under its repeated-addition order: composite
    # N, N <= 4 and characteristics 2 and 3 at once; walks of every length
    # up to the Hasse bound, and the orders the Hasse prune drops
    q = p ** d
    found = {}
    for n in range(1, q + 2 + math.isqrt(4 * q)):
        for h in scan_fp(p, d, n):
            pair = (h.b.flat_coords(), h.c.flat_coords())
            assert pair not in found
            found[pair] = n
    assert found == naive_orders(p, d)


def test_scan_order_four_is_c_zero_locus():
    for h in scan_fp(5, 1, 4):
        assert h.c.is_zero() and not h.b.is_zero()


def test_scan_order_five_is_diagonal_locus():
    hits = scan_fp(7, 1, 5)
    assert len(hits) == 6
    for h in hits:
        assert h.b == h.c and not h.b.is_zero()


def test_scan_no_rational_37_torsion_over_f2():
    assert scan_fp(2, 1, 37) == []


def test_scan_results_sorted_deterministically():
    hits = scan_fp(11, 1, 6)
    assert hits == sorted(hits, key=lambda h: (h.b.flat_coords(), h.c.flat_coords()))
    assert hits == scan_fp(11, 1, 6)


def first_walk_zero(b, c, cap):
    """The first k with W_k = 0, by W_{k+2} W_{k-2} = b^2 W_{k+1} W_{k-1} + b^3 W_k^2
    from W_1 .. W_4 = 1, -b, -b^3, b^5 c, whatever the disc; None past cap."""
    w = [None, b.descriptor.one(), -b, -b ** 3, b ** 5 * c]
    while not w[-1].is_zero():
        if len(w) > cap:
            return None
        k = len(w) - 2
        w.append((b ** 2 * w[k + 1] * w[k - 1] + b ** 3 * w[k] ** 2) / w[k - 2])
    return len(w) - 1


@pytest.mark.parametrize("p,d,n,walk_zeros,hits", [(13, 1, 7, 11, 8), (2, 3, 7, 6, 3),
                                                   (29, 1, 29, 29, 28)])
def test_walk_zeros_of_singular_pairs_are_not_hits(p, d, n, walk_zeros, hits):
    # the walk divides by nothing that vanishes, so it runs on singular pairs
    # too and reaches zeros there; the disc test on its survivors drops them
    # (at F_29, N = 29, the additive-group case)
    desc = FieldDescriptor.prime_field(p, [("t", find_irreducible(p, d))] if d > 1 else [])
    elements = list(desc.iter_elements())[1:]
    zeros = sum(first_walk_zero(b, c, n) == n for b in elements for c in elements)
    found = scan_fp(p, d, n)
    assert (zeros, len(found)) == (walk_zeros, hits)
    assert hit_coords(found) == naive_scan(p, n, d)


@pytest.mark.parametrize("p,d", [(2, 6), (3, 4), (101, 1)])
def test_half_walk_matches_a_reference_walk_at_the_longest_orders(p, d):
    # the largest odd and even N under Hasse's bound: the longest half walks,
    # whose registers come nearest the ends of the row tables
    q = p ** d
    top = q + 1 + math.isqrt(4 * q)
    orders = (top, top - 1)
    reference = reference_walk_hits(_log_field(p, d), orders)
    for n in orders:
        assert hit_coords(scan_fp(p, d, n)) == reference[n]


def test_no_row_table_without_a_walk(monkeypatch):
    # N <= 4 walks nothing; the row tables are slices of zx, so none is built
    class Unsliced:
        def __getitem__(self, key):
            raise AssertionError("a row table was built")

    p = 1009
    monkeypatch.setattr(_log_field(p, 1), "zx", Unsliced())
    hits = scan_fp(p, 1, 4)  # c = 0: W_4 = b^5 c; disc = b^4 (16 b + 1)
    assert hit_coords(hits) == {((b,), (0,)) for b in range(1, p) if (16 * b + 1) % p}
    for n in (1, 2, 3):
        assert scan_fp(p, 1, n) == []


# ---------------------------------------------------------- extension fields

@pytest.mark.parametrize("p,d,n", [(3, 2, n) for n in range(4, 10)] + [(2, 3, 7), (5, 2, 4)])
def test_extension_scan_matches_naive_oracle(p, d, n):
    hits = scan_fp(p, d, n)
    expected = naive_scan(p, n, d)
    assert [(h.b.flat_coords(), h.c.flat_coords()) for h in hits] == sorted(expected)
    for h in hits:
        assert h.order == n and h.p == p and h.d == d and d % h.place_degree == 0


@pytest.mark.parametrize("p,d,n", [(3, 3, 7), (2, 6, 9), (3, 4, 6)])
def test_rows_shared_per_frobenius_orbit_match_naive_oracle(p, d, n):
    # hits of place degrees 1, 3 / 3, 6 / 1, 2, 4: conjugate rows of every size
    hits = scan_fp(p, d, n)
    assert [(h.b.flat_coords(), h.c.flat_coords()) for h in hits] == sorted(naive_scan(p, n, d))


def test_one_walk_per_frobenius_orbit(monkeypatch):
    # the kernel takes the conjugates of each row it walks; F_64 has 13 orbits
    # of nonzero elements: 1 + 2/2 + 6/3 + 54/6
    walked = []
    conjugates = _LogField.conjugates
    monkeypatch.setattr(_LogField, "conjugates", lambda f, i: walked.append(i) or conjugates(f, i))
    scan_fp(2, 6, 9)
    assert len(walked) == len(set(walked)) == 13


@pytest.mark.parametrize("p,d,n", [(2, 4, 4), (2, 4, 11), (3, 3, 7), (3, 3, 13)])
def test_rows_split_at_any_cut_give_the_whole_scan(p, d, n):
    # a cut inside an orbit walks it on both sides, each for its own rows
    desc = FieldDescriptor.prime_field(p, [("t", find_irreducible(p, d))])
    field, q = _LogField(desc), p ** d
    whole = sorted(_scan_rows((field, n, range(q), False)))
    assert whole
    for cut in range(q + 1):
        parts = _scan_rows((field, n, range(cut), False))
        parts += _scan_rows((field, n, range(cut, q), False))
        assert sorted(parts) == whole


def test_parallel_scan_through_a_real_pool(monkeypatch):
    solo = scan_fp(2, 6, 9)
    pool_every_grid(monkeypatch, 2)
    assert len(solo) == 57 and scan_fp(2, 6, 9) == solo


@pytest.fixture
def empty_log_fields():
    """An empty cache of log fields for the test, and none of its fields after it."""
    _log_field.cache_clear()
    yield _log_field
    _log_field.cache_clear()


def fresh_scan(p, d, n, **kwargs):
    _log_field.cache_clear()
    return scan_fp(p, d, n, **kwargs)


def test_log_field_built_once_for_repeated_scans(monkeypatch, empty_log_fields):
    # over F_16 Hasse's bound leaves #E in [9, 25], so N = 29 and 37 are pruned
    built = []
    init = _LogField.__init__
    monkeypatch.setattr(_LogField, "__init__", lambda f, desc: built.append(desc) or init(f, desc))
    for n in (4, 5, 7, 11, 29, 37, 5):
        scan_fp(2, 4, n)
    assert len(built) == 1 and built[0].dimension == 4
    assert empty_log_fields.cache_info()[:2] == (4, 1)  # (hits, misses): 29 and 37 never ask


def test_interleaved_fields_give_fresh_hits(empty_log_fields):
    fresh = {(p, d): fresh_scan(p, d, 7) for p, d in [(2, 4), (3, 2)]}
    assert all(fresh.values())
    empty_log_fields.cache_clear()
    for p, d in [(2, 4), (3, 2), (2, 4)]:
        hits = scan_fp(p, d, 7)
        assert hits == fresh[p, d]
        assert all(h.b.descriptor is _log_field(p, d).desc for h in hits)
    assert empty_log_fields.cache_info().misses == 2


def test_log_field_cache_is_bounded_and_evicted_fields_rescan_alike(empty_log_fields):
    # p = 2 at d = 1 .. 4 and p = 3 at d = 1, 2 share a p, so a cache
    # keyed on p alone hands a later scan the wrong field
    grids = [(7, 1), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2), (11, 1)]
    fresh = [fresh_scan(p, d, 5) for p, d in grids]
    assert all(fresh)
    empty_log_fields.cache_clear()
    assert [scan_fp(p, d, 5) for p, d in grids] == fresh
    info = empty_log_fields.cache_info()
    assert len(grids) > info.maxsize == info.currsize
    assert scan_fp(7, 1, 5) == fresh[0]
    assert empty_log_fields.cache_info().misses == len(grids) + 1  # F_7 was evicted


def test_parallel_scan_after_a_cached_serial_scan(monkeypatch, empty_log_fields):
    solo = scan_fp(2, 6, 9)
    pool_every_grid(monkeypatch, 2)
    assert scan_fp(2, 6, 9) == solo
    assert empty_log_fields.cache_info()[:2] == (1, 1)  # (hits, misses)


def test_serial_scan_does_not_ask_for_the_cpu_count(monkeypatch):
    # each benchmark grid, and F_101 at N = 29, is far below STEPS_PER_WORKER
    grids = BENCH_GRIDS + [(101, 1, 29)]
    before = [scan_fp(p, d, n) for p, d, n in grids]

    def refuse(*args, **kwargs):
        raise AssertionError("a serial scan asks for no CPU count and starts no pool")

    for name in ("sched_getaffinity", "cpu_count"):
        monkeypatch.setattr(scan.os, name, refuse, raising=False)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", refuse)
    assert [scan_fp(p, d, n) for p, d, n in grids] == before


@pytest.mark.parametrize("p,modulus", [(2, None), (7, None), (2, [1, 1, 1]), (3, [1, 0, 1]),
                                       (2, [1, 1, 0, 1]), (5, [2, 0, 1])])
def test_log_field_arithmetic_matches_field_elements(p, modulus):
    desc = FieldDescriptor.prime_field(p, [("t", modulus)] if modulus else [])
    field = _LogField(desc)
    add, mul = field.ops()
    logs = field.log  # t is not primitive mod t^2 + 1 over F_3, so g is searched for
    assert logs[0] is None and sorted(logs[1:]) == list(range(len(logs) - 1))
    elements = [FieldElement(desc, flat) for flat in field.flats]
    assert elements == list(desc.iter_elements())
    log_of = {x: a for x, a in zip(elements, logs)}
    assert field.minus_one == log_of[-desc.one()]
    for x, a in zip(elements, logs):
        for y, b in zip(elements, logs):
            assert add(a, b) == log_of[x + y]
            assert mul(a, b) == log_of[x * y]
    # the primitive element, of log 1, is the first element in iter_elements
    # order whose cofactor powers g^((q - 1)/r), r | q - 1 prime, all differ from 1
    q = len(elements)
    cofactors = [(q - 1) // r for r in prime_factors(q - 1)]
    first = next(x for x in elements[1:] if all(x ** k != desc.one() for k in cofactors))
    assert elements[logs.index(1 % (q - 1))] == first


@pytest.mark.parametrize("p,d,n,degrees", [(2, 6, 4, {1, 2, 3, 6}), (3, 4, 4, {1, 2, 4}),
                                            (3, 4, 6, {1, 2, 4}), (29, 1, 29, {1})])
def test_place_degree_read_off_the_logs_matches_frobenius(monkeypatch, p, d, n, degrees):
    # at N = 4 every c is 0; at N = 6 some c has a larger place degree than its b
    def refuse(b, c):
        raise AssertionError("the kernel computes place degrees from logs")

    monkeypatch.setattr(scan, "place_degree", refuse)
    hits = scan_fp(p, d, n)
    monkeypatch.undo()
    assert {h.place_degree for h in hits} == degrees
    assert [h.place_degree for h in hits] == [place_degree(h.b, h.c) for h in hits]
    assert any(place_degree(h.b, h.b) != h.place_degree for h in hits) == (n == 6)


def test_scan_extension_field_frobenius_closed():
    hits = scan_fp(3, 2, 8)
    assert len(hits) == 4
    found = hit_coords(hits)
    q = 3
    for h in hits:
        frob_b, frob_c = h.b ** q, h.c ** q
        assert (frob_b.flat_coords(), frob_c.flat_coords()) in found
        assert h.place_degree in (1, 2)


def test_scan_extension_contains_prime_field_hits():
    base = hit_coords(scan_fp(5, 1, 4))
    ext = scan_fp(5, 2, 4)
    # every F_5 hit reappears in F_25 with place degree 1
    lifted = {
        (h.b.flat_coords(), h.c.flat_coords())
        for h in ext
        if h.place_degree == 1
    }
    embedded = {((b, 0), (c, 0)) for (b,), (c,) in ((bb, cc) for bb, cc in base)}
    assert embedded <= lifted


def test_grids_hasse_leaves_empty_build_no_table(monkeypatch):
    # no multiple of N in [q + 1 - 2 sqrt(q), q + 1 + 2 sqrt(q)]: no #E(F_q) allows
    # a point of order N, so the scan returns [] before any log field is built; every
    # q <= 64, N up to the Hasse bound + 3 or 37, the bench grids F_8, F_16 and F_23
    def refuse(field, desc):
        raise AssertionError("a pruned grid builds no log field")

    fields = [(p, d) for p in range(2, 65) if prime_factors(p) == [p]
              for d in range(1, 7) if p ** d <= 64]
    pruned = [(p, d, n) for p, d in fields for q, r in [(p ** d, math.isqrt(4 * p ** d))]
              for n in range(1, max(q + 4 + r, 38))
              if all(k % n for k in range(q + 1 - r, q + 2 + r))]
    assert len(fields) == 27
    assert {(2, 3, 31), (2, 3, 37), (2, 4, 29), (2, 4, 31), (2, 4, 37), (23, 1, 37)} < set(pruned)
    _log_field.cache_clear()
    monkeypatch.setattr(_LogField, "__init__", refuse)
    for p, d, n in pruned:
        assert scan_fp(p, d, n) == []
    _log_field.cache_clear()


def test_scan_input_validation():
    with pytest.raises(ValueError):
        scan_fp(4, 1, 5)  # not prime
    with pytest.raises(ValueError):
        scan_fp(5, 0, 4)
    with pytest.raises(ValueError):
        scan_fp(5, 1, 0)


# -------------------------------------------------------------- hit sanity

def test_hits_satisfy_lagrange_and_hasse():
    for p, d, n in ((5, 1, 4), (7, 1, 5), (3, 2, 8), (13, 1, 10)):
        q = p ** d
        for h in scan_fp(p, d, n):
            e = tate_curve(h.b, h.c)
            count = point_count(e)
            assert count % n == 0
            assert (count - (q + 1)) ** 2 <= 4 * q


@pytest.mark.parametrize("p, d, n, count", [(2, 6, 13, 75), (3, 3, 13, 36), (5, 2, 11, 30)])
def test_diamond_images_of_each_hit_are_hits(p, d, n, count):
    # (E, [k]P) for k prime to n is again a point of X1(n) over F_q, and its
    # Tate normal form is a pair of the same scan
    hits = scan_fp(p, d, n)
    pairs = {(h.b, h.c) for h in hits}
    assert len(hits) == count
    for h in hits:
        e = tate_curve(h.b, h.c)
        zero = h.b.descriptor.zero()
        marked = e.point(zero, zero)
        for k in range(2, (n - 1) // 2 + 1):
            assert tate_normal_form(e, scalar_mul(e, k, marked)) in pairs, (h, k)


def test_parallel_scan_identical_output(monkeypatch):
    grids = [(7, 1, 5), (3, 2, 8), (2, 6, 9)]
    solo = [[format_hit_line(h) for h in scan_fp(p, d, n)] for p, d, n in grids]
    pool_every_grid(monkeypatch, 2)
    duo = [[format_hit_line(h) for h in scan_fp(p, d, n)] for p, d, n in grids]
    assert all(solo) and solo == duo


def proc_stat(pid):
    """The fields of /proc/<pid>/stat after the command name, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as f:
            return f.read().rsplit(")", 1)[1].split()
    except FileNotFoundError:
        return None


def descendants(pid):
    """The PIDs of every live process below pid, by /proc/<pid>/task/<tid>/children."""
    found, todo = [], [pid]
    while todo:
        for path in glob.glob(f"/proc/{todo.pop()}/task/*/children"):
            try:
                with open(path, encoding="ascii") as f:
                    kids = [int(kid) for kid in f.read().split()]
            except FileNotFoundError:
                continue
            found += kids
            todo += kids
    return found


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads processes off /proc")
@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_pool_workers_leave_when_their_scan_is_killed(method):
    # SIGKILL runs no cleanup in the scan, so each worker must see at its next
    # row that the scan is gone: under forkserver the workers are children of
    # the server, not of the scan, so their parent PID never changes
    code = ("import multiprocessing\n"
            f"multiprocessing.set_start_method({method!r})\n"
            "from x1torsion import scan\n"
            "scan.STEPS_PER_WORKER = 1\n"
            "scan.os.sched_getaffinity = lambda pid: {0, 1}\n"
            "scan.scan_fp(2003, 1, 29)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(scan.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", code], env=env)
    started, deadline = [], time.monotonic() + 20
    busy = 3 * os.sysconf("SC_CLK_TCK") // 10  # clock ticks in 0.3 s, past a worker's start
    try:
        while time.monotonic() < deadline:  # until two processes, the workers, are that busy
            started = descendants(proc.pid)
            if sum(int((proc_stat(pid) or [0] * 12)[11]) >= busy for pid in started) >= 2:
                break
            time.sleep(0.02)
    finally:
        proc.kill()
        proc.wait()
    assert len(started) >= 2
    deadline = time.monotonic() + 2
    alive = started
    while alive and time.monotonic() < deadline:
        time.sleep(0.02)
        alive = [pid for pid in alive if (proc_stat(pid) or ["Z"])[0] != "Z"]
    for pid in alive:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    assert alive == []


def test_serial_scan_imports_no_process_pool():
    # multiprocessing and concurrent.futures cost a serial scan memory and start-up
    code = ("import contextlib, io, sys\n"
            "import x1torsion.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert x1torsion.cli.main(['scan', '--p', '7', '--order', '5']) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(scan.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout == "[]\n"


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cpus,pool", [(64, 7), (3, 3), (1, None), (None, None)])
def test_jobs_capped_by_rows_and_cpus(monkeypatch, cpus, pool):
    # F_32 has 7 Frobenius orbits of rows b != 0: {1} and six of five rows
    serial = [format_hit_line(h) for h in scan_fp(2, 5, 5)]
    RecordingPool.sizes = []
    # scan imports the pool class only when it starts more than one worker
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    pool_every_grid(monkeypatch, cpus or 0)
    if cpus is None:  # no affinity call, and a CPU count the OS cannot tell
        monkeypatch.delattr(scan.os, "sched_getaffinity")
        monkeypatch.setattr(scan.os, "cpu_count", lambda: None)
    assert [format_hit_line(h) for h in scan_fp(2, 5, 5)] == serial
    assert RecordingPool.sizes == ([] if pool is None else [pool])


def test_budget_refusal(monkeypatch):
    # s = q^2 // d * max(1, min(n, q + 2 isqrt(q) + 2) - 3): one row-table entry per
    # pair and two per half-walk step; the Hasse bound binds F_8 at N = 29, the floor N <= 4
    grids = {(3, 1, 5): 18, (7, 1, 5): 98, (2, 2, 8): 40, (2, 3, 29): 231, (5, 1, 4): 25,
             (5, 1, 2): 25}
    expected = {grid: scan_fp(*grid) for grid in grids}
    for (p, d, n), steps in grids.items():
        monkeypatch.setattr(scan, "MAX_STEPS", steps)
        assert scan_fp(p, d, n) == expected[p, d, n]
        monkeypatch.setattr(scan, "MAX_STEPS", steps - 1)
        with pytest.raises(BudgetError, match=f"about {steps} walk steps"):
            scan_fp(p, d, n)
    monkeypatch.undo()
    with pytest.raises(BudgetError):
        scan_fp(10007, 2, 5)


@pytest.mark.parametrize("p,n,accepted", [(9973, 29, True), (10007, 29, False),
                                          (10007, 5, True), (9973, 1000, False),
                                          (10 ** 9 + 7, 4, False), (10 ** 9 + 7, 2, False)])
def test_budget_is_read_before_any_table(monkeypatch, p, n, accepted):
    # the estimate keeps a floor of q^2 at N <= 4, where no walk runs and no row table is built
    def sentinel(p, d):
        raise LookupError("past the budget check")

    monkeypatch.setattr(scan, "_log_field", sentinel)
    with pytest.raises(LookupError if accepted else BudgetError):
        scan_fp(p, 1, n)


# ------------------------------------------------------------- place degree

def test_place_degree_prime_subfield():
    desc = FieldDescriptor.prime_field(5, [("u", [2, 0, 1])])
    two = desc.from_scalar(2)
    assert place_degree(two, two) == 1
    u = desc.gen(0)
    assert place_degree(u, two) == 2
    assert place_degree(two, u) == 2


def test_place_degree_divides_extension_degree():
    desc = FieldDescriptor.prime_field(2, [("u", find_irreducible(2, 4))])
    for b in desc.iter_elements():
        deg = place_degree(b, desc.one())
        assert 4 % deg == 0
        assert b ** (2 ** deg) == b


# ------------------------------------------------------------- point counts

def test_point_count_small_curves():
    f7 = FieldDescriptor.prime_field(7)
    e = tate_curve(f7.one(), f7.one())
    assert point_count(e) == 10  # divisible by 5, per Lagrange
    f5 = FieldDescriptor.prime_field(5)
    e4 = tate_curve(f5.one(), f5.zero())
    assert point_count(e4) % 4 == 0


@pytest.mark.parametrize("p,d", [(5, 1), (7, 1), (3, 2), (2, 3), (2, 4), (5, 2)])
def test_point_count_matches_the_double_loop(p, d):
    # general Weierstrass curves and Tate curves; for p = 2 both the x with
    # a1 x + a3 = 0 and the trace test
    rng = random.Random(p ** d)
    desc = FieldDescriptor.prime_field(p, [("t", find_irreducible(p, d))] if d > 1 else [])
    curves = [random_tate_curve(rng, desc)[1] for _ in range(6)]
    while len(curves) < 12:
        e = Curve(*(random_element(rng, desc) for _ in range(5)))
        if not e.is_singular():
            curves.append(e)
    for e in curves:
        assert point_count(e) == naive_point_count(e)


def test_point_count_refuses_singular():
    f11 = FieldDescriptor.prime_field(11)
    e = tate_curve(f11.one(), f11.one())  # disc = -11 = 0 here
    assert e.is_singular()
    with pytest.raises(ValueError):
        point_count(e)


Q = FieldDescriptor.rationals()
F5, F7 = FieldDescriptor.prime_field(5), FieldDescriptor.prime_field(7)


@pytest.mark.parametrize("call, message", [
    (lambda: place_degree(F5.one(), F7.one()), "b and c must live in one field"),
    (lambda: place_degree(Q.one(), Q.one()), "place degrees are defined over finite fields only"),
    (lambda: point_count(tate_curve(Q.one(), Q.from_scalar(3))),
     "point counting needs a finite field"),
], ids=["place-degree-two-fields", "place-degree-over-q", "point-count-over-q"])
def test_finite_field_questions_refuse_other_inputs(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_point_count_budget(monkeypatch):
    # q = 100,000,007 and q = 2,600,011 are prime and past MAX_STEPS / 1000:
    # refused before any x
    def refuse(desc):
        raise AssertionError("the count is refused before any x is enumerated")

    monkeypatch.setattr(FieldDescriptor, "iter_elements", refuse)
    for q in (100_000_007, 2_600_011):
        fq = FieldDescriptor.prime_field(q)
        with pytest.raises(BudgetError, match=str(q)):
            point_count(tate_curve(fq.one(), fq.one()))


def test_point_count_representation_independent():
    f7 = FieldDescriptor.prime_field(7)
    tower = FieldDescriptor.prime_field(7, [("t", [4, 1])])  # t = 3, still F_7
    plain = tate_curve(f7.one(), f7.one())
    wrapped = tate_curve(tower.from_scalar(1), tower.from_scalar(1))
    assert point_count(plain) == point_count(wrapped)


# ---------------------------------------------------------------- filtering

def test_default_gonalities():
    assert DEFAULT_GONALITIES == {29: 11, 31: 12, 37: 18}


def test_gonality_table_api():
    assert sorted(DEFAULT_GONALITIES) == [29, 31, 37]
    assert DEFAULT_GONALITIES.get(29) == 11 and DEFAULT_GONALITIES.get(6) is None
    with pytest.raises(KeyError) as info:
        low_degree_filter([], 6)
    assert all(str(n) in str(info.value) for n in (29, 31, 37))


def fake_hit(p, d, pdeg):
    desc = FieldDescriptor.prime_field(p)
    return ScanHit(p=p, d=d, b=desc.one(), c=desc.one(), order=29, place_degree=pdeg)


def test_low_degree_filter_strict_boundary():
    hits = [fake_hit(3, 12, pdeg) for pdeg in (1, 10, 11, 12)]
    kept = low_degree_filter(hits, 29)
    assert [h.place_degree for h in kept] == [1, 10]  # 11 is not < 11


def test_low_degree_filter_empty_and_order_preserving():
    assert low_degree_filter([], 37) == []
    hits = [fake_hit(3, 12, pdeg) for pdeg in (5, 2, 9)]
    assert [h.place_degree for h in low_degree_filter(hits, 31)] == [5, 2, 9]


def test_low_degree_filter_unknown_order():
    with pytest.raises(KeyError):
        low_degree_filter([fake_hit(3, 1, 1)], 8)


# ------------------------------------------------------------------ records

def test_hit_record_and_line():
    h = scan_fp(5, 1, 4)[0]
    rec = hit_record(h)
    assert list(rec) == ["p", "d", "b", "c", "order", "place_degree"]
    line = format_hit_line(h)
    assert line.startswith('{"p": 5, "d": 1, ') and line.endswith("}")


@pytest.mark.parametrize("p,d,n", [(101, 1, 29), (3, 4, 7), (5, 2, 11)])
def test_hit_line_is_the_json_of_its_record(p, d, n):
    # three-digit residues, and flat residue lists at d = 4 and d = 2
    hits = scan_fp(p, d, n)
    assert hits and all(format_hit_line(h) == json.dumps(hit_record(h)) for h in hits)


def test_summary_record():
    hits = scan_fp(5, 1, 4)
    rec = summary_record(5, 1, hits, elapsed=0.25)
    assert rec["pairs_scanned"] == 25
    assert rec["hits"] == len(hits)
    assert rec["elapsed_seconds"] == 0.25


@pytest.mark.parametrize("p,d", [(2, 4), (3, 3), (5, 2), (2, 6)])
def test_place_degree_table_matches_frobenius_at_every_pair(p, d):
    # 0 and 1 = g^0 are both fixed by Frobenius, so 0 counts as log 0 here
    field = _log_field(p, d)
    m = p ** d - 1
    elements = [FieldElement(field.desc, x) for x in field.flats]
    for i, b in enumerate(elements):
        for j, c in enumerate(elements):
            k = math.gcd(field.log[i] or 0, field.log[j] or 0, m)
            assert field.degree[k] == place_degree(b, c), (b, c)
