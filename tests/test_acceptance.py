"""Acceptance gate.

Each criterion runs at its stated size and time budget and prints exactly
one "criterion N (...): PASS|FAIL" line, bypassing output capture so the
verdicts always reach the terminal.
"""

import json
import random
import time
from fractions import Fraction

from x1torsion import (
    FieldDescriptor,
    certify_irreducible_over_q,
    load_fixture,
    point_count,
    scan_fp,
    shipped_fixture_paths,
    tate_curve,
    verify_fixture,
    verify_fixtures,
)
from x1torsion.cli import main as cli_main
from x1torsion.fields import parse_rational

from support import (
    check_closed_forms,
    check_closure,
    check_group_laws,
    check_inversion,
    check_naive_vs_double_add,
    check_ring_axioms,
    check_scalar_homomorphism,
    naive_scan,
)


def report(capsys, num, desc, body):
    failure = None
    try:
        body()
    except Exception as exc:  # noqa: BLE001 - verdict line must print either way
        failure = f"{type(exc).__name__}: {exc}"
    verdict = "PASS" if failure is None else "FAIL"
    with capsys.disabled():
        print(f"criterion {num} ({desc}): {verdict}", flush=True)
    assert failure is None, failure


def shipped_by_n():
    fixtures = [load_fixture(p) for p in shipped_fixture_paths()]
    by_n = {}
    for f in fixtures:
        by_n.setdefault(f.n, []).append(f)
    return by_n


def test_criterion_1_order_37_certification(capsys):
    def body():
        (fixture,) = shipped_by_n()[37]
        t0 = time.monotonic()
        check = verify_fixture(fixture)
        elapsed = time.monotonic() - t0
        assert check.passed, check.reason
        assert check.disc_nonzero is True
        cert = check.order_certificate
        assert cert.n == 37 and (37, True) in cert.checks and (1, False) in cert.checks
        assert elapsed < 10, f"took {elapsed:.2f}s"

    report(capsys, 1, "degree-6 order-37 certification under 10s", body)


def test_criterion_2_orders_29_and_31(capsys):
    def body():
        by_n = shipped_by_n()
        assert len(by_n[29]) == 3 and len(by_n[31]) == 5
        t0 = time.monotonic()
        report_ = verify_fixtures(by_n[29] + by_n[31])
        elapsed = time.monotonic() - t0
        assert report_.all_passed, [c.reason for c in report_.checks if not c.passed]
        for check in report_.checks:
            assert check.order_certificate.n in (29, 31)
        assert elapsed < 120, f"took {elapsed:.2f}s"

    report(capsys, 2, "all 29- and 31-fixtures certify under 120s", body)


def test_criterion_3_degrees_below_gonality(capsys):
    def body():
        by_n = shipped_by_n()
        degrees = {n: sorted(f.degree for f in fs) for n, fs in by_n.items()}
        assert degrees == {37: [6], 29: [9, 10, 10], 31: [9, 10, 11, 11, 11]}
        bounds = {37: 18, 29: 11, 31: 12}
        for n, fixtures in by_n.items():
            for f in fixtures:
                assert f.gonality == bounds[n]
                assert f.degree < f.gonality
                for g in f.b.descriptor.generators:
                    prime = certify_irreducible_over_q(g.minpoly)
                    assert prime is not None, f"{f.label}: uncertified minpoly"

    report(capsys, 3, "field degrees strictly below gonality, minpolys certified", body)


def test_criterion_4_scan_oracle_equivalence(capsys):
    def body():
        t0 = time.monotonic()
        for p in (5, 7, 11, 13):
            for n in range(4, 13):
                fast = {(h.b.flat_coords(), h.c.flat_coords())
                        for h in scan_fp(p, 1, n)}
                assert fast == naive_scan(p, n), f"mismatch at p={p}, N={n}"
        elapsed = time.monotonic() - t0
        assert elapsed < 60, f"took {elapsed:.2f}s"

    report(capsys, 4, "scan equals naive oracle for p in {5,7,11,13}, N in 4..12", body)


def test_criterion_5_closed_forms(capsys):
    def body():
        # 10003 = 7 * 1429 names no field; the closure-suite prime stands in
        assert check_closed_forms(10007, 500, seed=0xACC5) == 500

    report(capsys, 5, "doubling and tripling closed forms, 500 samples", body)


def test_criterion_6_hasse_and_lagrange(capsys):
    def body():
        total_hits = 0
        for p, d, n in ((5, 1, 4), (7, 1, 5), (11, 1, 6), (13, 1, 10),
                        (3, 2, 8), (2, 3, 7), (5, 2, 4)):
            q = p ** d
            assert q <= 10 ** 4
            for hit in scan_fp(p, d, n):
                count = point_count(tate_curve(hit.b, hit.c))
                assert count % n == 0, f"Lagrange fails at p={p}, d={d}"
                assert (count - (q + 1)) ** 2 <= 4 * q, f"Hasse fails at p={p}, d={d}"
                total_hits += 1
        assert total_hits > 0

    report(capsys, 6, "Hasse and Lagrange integer checks on scan hits", body)


def test_criterion_7_property_suites(capsys):
    def body():
        rationals = FieldDescriptor.rationals()
        golden = FieldDescriptor.rationals([("t", [-1, -1, 1])])
        f10007 = FieldDescriptor.prime_field(10007)
        tower = FieldDescriptor.prime_field(5, [("u", [2, 0, 1]), ("v", [1, 1, 0, 1])])
        for desc in (rationals, golden, f10007, tower):
            assert check_ring_axioms(desc, 1000, seed=0xA71) == 1000
            assert check_inversion(desc, 500, seed=0xA72) == 500
        assert check_closure(101, 250, seed=0xA73) == 250
        assert check_closure(10007, 250, seed=0xA74) == 250
        assert check_group_laws(101, 200, seed=0xA75) == 200
        assert check_scalar_homomorphism(101, 100, seed=0xA76, bound=1000) == 100
        assert check_naive_vs_double_add(101, 50, seed=0xA77, kmax=50) == 50
        assert check_closed_forms(101, 500, seed=0xA78) == 500

    report(capsys, 7, "algebraic property suites at stated sizes", body)


def leaf_slots(node, path=()):
    if isinstance(node, list):
        for i, child in enumerate(node):
            yield from leaf_slots(child, path + (i,))
    else:
        yield path


def get_leaf(node, path):
    for i in path:
        node = node[i]
    return node


def set_leaf(node, path, value):
    for i in path[:-1]:
        node = node[i]
    node[path[-1]] = value


def test_criterion_8_mutation_sensitivity(tmp_path, capsys):
    def body():
        records = [json.loads(p.read_text(encoding="utf-8"))
                   for p in shipped_fixture_paths()]
        rng = random.Random(0xACC8)
        target = tmp_path / "mutated.json"
        for trial in range(50):
            record = json.loads(json.dumps(rng.choice(records)))
            side = rng.choice(["b", "c"])
            slot = rng.choice(list(leaf_slots(record[side])))
            delta = rng.choice([-3, -2, -1, 1, 2, 3])
            old = parse_rational(get_leaf(record[side], slot))
            set_leaf(record[side], slot, str(old + Fraction(delta)))
            target.write_text(json.dumps(record), encoding="utf-8")
            rc = cli_main(["verify", "--fixtures", str(target)])
            assert rc == 1, (
                f"trial {trial}: perturbing {record['label']} {side}{list(slot)} "
                f"by {delta} gave exit {rc}")

    report(capsys, 8, "50 single-coefficient perturbations all fail verification", body)
