"""End-to-end command line behavior, including exit codes."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from x1torsion import (
    cli, curves, fields, load_fixture, scalar_mul, scan, shipped_fixture_paths, tate_curve,
)
from x1torsion.cli import main
from x1torsion.fixtures import save_fixture

from support import (
    BENCH_GRIDS, SCAN_GRIDS, SCAN_TABLE, perturbed_fixture, place_curve, pool_every_grid,
    reference_good_places, reference_main,
)

# sha256 of `verify` stdout and of its --report JSON on the nine shipped
# fixtures: any change to the verify pipeline's output shows up here
VERIFY_STDOUT_SHA256 = "11bb9d3a5de27c74386a44e62c8d28458b222bce3723bef049ddbfc006f88f28"
VERIFY_REPORT_SHA256 = "48017628381ef1c73c98734872b38a58e640731ece9332359ae500d0c587feca"
# sha256 of `order` stdout on the nine shipped fixtures, then on n37_deg6
# with expected_order 36
ORDER_STDOUT_SHA256 = "959095d53e465b197362a9deb9630d03480915aa445ca9ada6773acaf5d83544"
# `order --k k` on each shipped fixture for k = -N ... N, in turn
MULTIPLES_STDOUT_SHA256 = "e5887b29332a696842d394782067f2cc7bee91b32d15a362cef3c7f3804f5eed"


def n37_path():
    return str(shipped_fixture_paths()[-1])


def write_tampered(tmp_path, **changes):
    fixture = load_fixture(shipped_fixture_paths()[-1])
    tampered = dataclasses.replace(fixture, **changes)
    target = tmp_path / "tampered.json"
    save_fixture(tampered, target)
    return str(target)


# ------------------------------------------------------------------- verify

def test_verify_shipped_all_pass(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(": PASS (" in line for line in lines[:-1])
    assert lines[-1] == "9 passed, 0 failed"
    assert "gonality" in lines[0]


def test_verify_tampered_fails(tmp_path, capsys):
    path = write_tampered(tmp_path, expected_order=36)
    assert main(["verify", "--fixtures", path]) == 1
    out = capsys.readouterr().out
    assert ": FAIL (" in out
    assert "0 passed, 1 failed" in out


def test_verify_gonality_mismatch_fails(tmp_path, capsys):
    source = next(p for p in shipped_fixture_paths() if p.name == "n29_deg9.json")
    record = json.loads(source.read_text(encoding="utf-8"))
    record["gonality"] = 40
    path = tmp_path / "n29_deg9.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    report_path = tmp_path / "report.json"
    assert main(["verify", "--fixtures", str(path), "--report", str(report_path)]) == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("X1(29)-deg9: FAIL (gonality 40 disagrees with gon(X1(29)) = 11)")
    check = json.loads(report_path.read_text(encoding="utf-8"))["fixtures"][0]
    assert check["disc_nonzero"] is None and check["order"] is None  # failed before both


def test_verify_stated_gonality_outside_the_table_fails(tmp_path, capsys):
    # b = c = 3 over Q has exact order 5, but gon(X1(5)) is not in the cited table
    path = tmp_path / "n5.json"
    path.write_text(json.dumps({
        "label": "n5-over-q", "N": 5, "generators": [{"name": "t", "minpoly": ["0", "1"]}],
        "b": ["3"], "c": ["3"], "expected_order": 5, "gonality": 100}), encoding="utf-8")
    assert main(["verify", "--fixtures", str(path)]) == 1
    assert capsys.readouterr().out == (
        "n5-over-q: FAIL (gonality 100 disagrees with gon(X1(5)) = unknown)\n"
        "0 passed, 1 failed\n")


def test_verify_certified_order_other_than_n_fails(tmp_path, capsys):
    # the point lies on X1(29), so gon(X1(37)) = 18 bounds nothing about it
    source = next(p for p in shipped_fixture_paths() if p.name == "n29_deg9.json")
    record = json.loads(source.read_text(encoding="utf-8"))
    record.update(N=37, gonality=18)
    path = tmp_path / "n29_deg9.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    assert main(["verify", "--fixtures", str(path)]) == 1
    assert capsys.readouterr().out == (
        "X1(29)-deg9: FAIL (exact order 29, but N = 37) [degree 9 < gonality 18]\n"
        "0 passed, 1 failed\n")


def test_verify_uncertified_minpoly_fails(tmp_path, capsys):
    record = {
        "label": "xsq",
        "N": 5,
        "generators": [{"name": "t", "minpoly": ["-1", "0", "1"]}],  # t^2 - 1 = (t - 1)(t + 1)
        "b": ["3", "0"],
        "c": ["3", "0"],
        "expected_order": 5,
        "gonality": 5,
    }
    path = tmp_path / "xsq.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    assert main(["verify", "--fixtures", str(path)]) == 1
    out = capsys.readouterr().out
    assert out == "xsq: FAIL (minpoly of t not certified irreducible)\n0 passed, 1 failed\n"


def test_verify_tensor_product_that_is_not_a_field_fails(tmp_path, capsys):
    # Q(sqrt 2) (x) Q(sqrt 2) is not a field, and Q(b, c) = Q has degree 1
    record = {
        "label": "sqrt2-twice",
        "N": 5,
        "generators": [{"name": "u", "minpoly": ["-2", "0", "1"]},
                       {"name": "v", "minpoly": ["-2", "0", "1"]}],
        "b": [["3", "0"], ["0", "0"]],
        "c": [["3", "0"], ["0", "0"]],
        "expected_order": 5,
    }
    path = tmp_path / "sqrt2.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    assert main(["verify", "--fixtures", str(path)]) == 1
    out = capsys.readouterr().out
    assert out == ("sqrt2-twice: FAIL (Q(b, c) not certified as a field of degree 4)\n"
                   "0 passed, 1 failed\n")


def test_verify_overstated_degree_fails(tmp_path, capsys):
    # b = c = 3 (a true order-5 point over Q) written into a degree-10 field
    source = next(p for p in shipped_fixture_paths() if p.name == "n29_deg10a.json")
    record = json.loads(source.read_text(encoding="utf-8"))
    record.update(N=5, expected_order=5, b=["3"] + ["0"] * 9, c=["3"] + ["0"] * 9)
    del record["gonality"]  # gon(X1(5)) is not in the table
    path = tmp_path / "deg10.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    assert main(["verify", "--fixtures", str(path)]) == 1
    out = capsys.readouterr().out
    assert out == ("X1(29)-deg10a: FAIL (Q(b, c) not certified as a field of degree 10)\n"
                   "0 passed, 1 failed\n")


def test_verify_shipped_bytes_are_pinned(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["verify", "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_STDOUT_SHA256
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == VERIFY_REPORT_SHA256


def test_verify_report_file(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["verify", "--fixtures", n37_path(), "--report", str(report_path)]) == 0
    capsys.readouterr()
    record = json.loads(report_path.read_text(encoding="utf-8"))
    assert record["pass_count"] == 1 and record["all_passed"] is True
    assert record["fixtures"][0]["order"]["target"] == 37


def test_verify_directory_of_fixtures(tmp_path, capsys):
    save_fixture(load_fixture(shipped_fixture_paths()[-1]), tmp_path / "a.json")
    assert main(["verify", "--fixtures", str(tmp_path)]) == 0
    assert "1 passed, 0 failed" in capsys.readouterr().out


def test_verify_refuses_an_order_past_the_factoring_bound(tmp_path, capsys):
    # refused while parsing, before any arithmetic: a huge stated order would
    # otherwise be factored by trial division with no budget
    path = write_tampered(tmp_path, expected_order=2 ** 61 - 1)
    assert main(["verify", "--fixtures", path]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "expected_order: order 2305843009213693951 is not below 2^32" in err


def test_verify_missing_input(tmp_path, capsys):
    assert main(["verify", "--fixtures", str(tmp_path / "absent.json")]) == 2
    assert "input error" in capsys.readouterr().err
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["verify", "--fixtures", str(empty)]) == 2


def test_verify_directory_names_an_undecodable_file(tmp_path, capsys):
    save_fixture(load_fixture(shipped_fixture_paths()[-1]), tmp_path / "a.json")
    (tmp_path / "bin.json").write_bytes(b"\xff\xfe")
    assert main(["verify", "--fixtures", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"input error: {tmp_path / 'bin.json'}: cannot read fixture: 'utf-8' codec can't decode")


@pytest.mark.parametrize("command", ["verify", "order", "jinv"])
def test_deeply_nested_fixture_is_an_input_error(tmp_path, capsys, command):
    # deeper than the parser's recursion limit: a located error, no traceback
    record = json.loads(shipped_fixture_paths()[0].read_text(encoding="utf-8"))
    text = json.dumps(record).replace(json.dumps(record["b"]), "[" * 5000 + '"1"' + "]" * 5000)
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    flag = "--fixtures" if command == "verify" else "--fixture"
    assert main([command, flag, str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {path}: arrays nested too deeply\n"


# -------------------------------------------------------------------- order

def test_order_certificate_passes(capsys):
    assert main(["order", "--fixture", n37_path()]) == 0
    out = capsys.readouterr().out
    assert "order 37: PASS" in out


def test_order_tampered_fails(tmp_path, capsys):
    path = write_tampered(tmp_path, expected_order=36)
    assert main(["order", "--fixture", path]) == 1
    assert "order 36: FAIL" in capsys.readouterr().out


def test_order_bytes_are_pinned(tmp_path, capsys):
    outs, codes = [], []
    for path in [*shipped_fixture_paths(), write_tampered(tmp_path, expected_order=36)]:
        codes.append(main(["order", "--fixture", str(path)]))
        outs.append(capsys.readouterr().out)
    assert codes == [0] * 9 + [1]
    assert hashlib.sha256("".join(outs).encode("utf-8")).hexdigest() == ORDER_STDOUT_SHA256


def test_order_multiple_bytes_are_pinned(capsys):
    # no multiple of a shipped fixture's point up to its order is refused
    outs = []
    for path in shipped_fixture_paths():
        n = load_fixture(path).expected_order
        for k in range(-n, n + 1):
            assert main(["order", "--fixture", str(path), "--k", str(k)]) == 0
            outs.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(outs).encode("utf-8")).hexdigest() == MULTIPLES_STDOUT_SHA256


def count_q_products(monkeypatch):
    """The descriptors of the field products over Q made from now on."""
    seen = []
    original = fields._mul_flat

    def counted(desc, a, b):
        if desc.base is None:
            seen.append(desc)
        return original(desc, a, b)

    monkeypatch.setattr(fields, "_mul_flat", counted)
    return seen


def test_claims_refuted_mod_p_make_no_product_over_q(tmp_path, capsys, monkeypatch):
    # a one-coefficient mutant of n37_deg6 whose [37]P is not O at its good place
    mutant = perturbed_fixture(load_fixture(n37_path()), "b", 0, 1)
    e = tate_curve(mutant.b, mutant.c)
    zero = e.descriptor.zero()
    e_bar, p_bar = place_curve(*next(reference_good_places(e, e.point(zero, zero)), None))
    assert not scalar_mul(e_bar, 37, p_bar).is_infinity
    path = tmp_path / "mutant.json"
    save_fixture(mutant, path)
    products = count_q_products(monkeypatch)
    assert main(["order", "--fixture", str(path)]) == 1
    assert capsys.readouterr().out == ("order 37: FAIL ([37]P is not infinity)\n"
                                       "  [37]P != infinity\n  [1]P != infinity\n")
    assert products == []
    assert main(["verify", "--fixtures", str(path)]) == 1
    assert "FAIL (order check failed: [37]P is not infinity)" in capsys.readouterr().out
    assert products == []


def test_claim_past_mazur_is_refuted_at_the_second_place(tmp_path, capsys, monkeypatch):
    # K = Q, b = 1, c = 3: P has order 5 at p = 2, so [5045]P = O there;
    # at p = 3 it has order 4, which divides none of 5045, 1009 and 5
    path = tmp_path / "mazur.json"
    path.write_text(json.dumps({
        "label": "order-5045-over-q", "N": 5045,
        "generators": [{"name": "t", "minpoly": ["0", "1"]}],
        "b": ["1"], "c": ["3"], "expected_order": 5045}), encoding="utf-8")

    def no_exact_multiple(e, k, point):
        raise AssertionError(f"[{k}]P was computed over K")

    monkeypatch.setattr(curves, "_multiple_at_infinity", no_exact_multiple)
    monkeypatch.setattr(curves, "scalar_mul", no_exact_multiple)
    t0 = time.perf_counter()
    assert main(["order", "--fixture", str(path)]) == 1
    assert main(["verify", "--fixtures", str(path)]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().out == (
        "order 5045: FAIL ([5045]P is not infinity)\n"
        "  [5045]P != infinity\n  [1009]P != infinity\n  [5]P != infinity\n"
        "order-5045-over-q: FAIL (order check failed: [5045]P is not infinity)\n"
        "0 passed, 1 failed\n")


def test_claim_whose_place_orders_disagree_is_refuted_without_exact_multiples(
        tmp_path, capsys, monkeypatch):
    # K = Q, b = 1, c = 3: P has order 5 at p = 2 and 4 at p = 3, both dividing
    # N = 5 * 2^25; a torsion point's orders there would agree away from 2 and 3
    n = 5 * 2 ** 25
    path = tmp_path / "orders-disagree.json"
    path.write_text(json.dumps({
        "label": "order-5x2^25-over-q", "N": n,
        "generators": [{"name": "t", "minpoly": ["0", "1"]}],
        "b": ["1"], "c": ["3"], "expected_order": n}), encoding="utf-8")

    def guarded(route):
        def no_exact_multiple(e, k, point):
            if e.descriptor.base is None:
                raise AssertionError(f"[{k}]P was computed over K")
            return route(e, k, point)
        return no_exact_multiple

    for name in ("_multiple_at_infinity", "scalar_mul"):
        monkeypatch.setattr(curves, name, guarded(getattr(curves, name)))
    t0 = time.perf_counter()
    assert main(["order", "--fixture", str(path)]) == 1
    assert main(["verify", "--fixtures", str(path)]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().out == (
        f"order {n}: FAIL ([{n}]P is not infinity)\n"
        f"  [{n}]P != infinity\n  [{n // 2}]P != infinity\n  [{n // 5}]P != infinity\n"
        f"order-5x2^25-over-q: FAIL (order check failed: [{n}]P is not infinity)\n"
        "0 passed, 1 failed\n")


@pytest.mark.parametrize("n", [1215, 5 * 3 ** 13], ids=["5x3^5", "5x3^13"])
def test_claim_on_a_point_of_infinite_order_computes_one_multiple(
        tmp_path, capsys, monkeypatch, n):
    # K = Q, b = -5, c = 1: P has order 5 at p = 2 and at p = 3, so 5 is the
    # only order it could have, and [5]P != O refutes every check
    path = tmp_path / "non-torsion.json"
    path.write_text(json.dumps({
        "label": "non-torsion-over-q", "N": n,
        "generators": [{"name": "t", "minpoly": ["0", "1"]}],
        "b": ["-5"], "c": ["1"], "expected_order": n}), encoding="utf-8")
    exact = []
    route = curves._multiple_at_infinity

    def traced(e, k, point):
        if e.descriptor.base is None:
            exact.append(k)
        return route(e, k, point)

    monkeypatch.setattr(curves, "_multiple_at_infinity", traced)
    for argv in (["order", "--fixture", str(path)], ["verify", "--fixtures", str(path)]):
        exact.clear()
        t0 = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - t0 < 1.0
        assert exact == [5], argv
    assert capsys.readouterr().out == (
        f"order {n}: FAIL ([{n}]P is not infinity)\n"
        f"  [{n}]P != infinity\n  [{n // 3}]P != infinity\n  [{n // 5}]P != infinity\n"
        f"non-torsion-over-q: FAIL (order check failed: [{n}]P is not infinity)\n"
        "0 passed, 1 failed\n")


@pytest.mark.parametrize("b,c", [
    ([["0", "1"], ["1", "0"]], [["3", "0"], ["0", "0"]]),  # b = u + v, c = 3
    ([["0", "1/2"], ["1/2", "0"]], [["0", "1/2"], ["1/2", "0"]]),  # b = c = (u + v)/2
], ids=["c=3", "b=c"])
def test_order_refuses_a_tower_that_is_not_a_field(tmp_path, capsys, b, c):
    # u^2 = v^2 = 2 cut out Q(sqrt 2) x Q(sqrt 2): the field certificate
    # fails before any group law, as under verify
    path = tmp_path / "zd.json"
    path.write_text(json.dumps({
        "label": "zd", "N": 5,
        "generators": [{"name": "u", "minpoly": ["-2", "0", "1"]},
                       {"name": "v", "minpoly": ["-2", "0", "1"]}],
        "b": b, "c": c, "expected_order": 5}), encoding="utf-8")
    for argv in (["order"], ["order", "--k", "2"]):
        assert main([*argv, "--fixture", str(path)]) == 1
        assert capsys.readouterr() == (
            "", "verification failure: Q(b, c) not certified as a field of degree 4\n")


def test_order_multiple_output(capsys):
    fixture = load_fixture(shipped_fixture_paths()[-1])
    assert main(["order", "--fixture", n37_path(), "--k", "2"]) == 0
    out = capsys.readouterr().out.strip()
    # [2]P = (b, bc): the printed x must be the fixture's own b
    expected_x = fixture.b.to_text()
    expected_y = (fixture.b * fixture.c).to_text()
    assert out == f"[2]P = ({expected_x}, {expected_y})"
    assert main(["order", "--fixture", n37_path(), "--k", "0"]) == 0
    assert capsys.readouterr().out.strip() == "[0]P = infinity"
    assert main(["order", "--fixture", n37_path(), "--k", "37"]) == 0
    assert capsys.readouterr().out.strip() == "[37]P = infinity"


def test_order_multiple_past_a_certified_order_is_taken_mod_n(capsys, monkeypatch):
    multiples = []

    def recorded(e, k, point):
        multiples.append(k)
        return scalar_mul(e, k, point)

    monkeypatch.setattr(cli, "scalar_mul", recorded)
    for k, big in (("2", "1000001"), ("-2", "-1000001")):  # 1000001 = 27027 * 37 + 2
        assert main(["order", "--fixture", n37_path(), "--k", k]) == 0
        small = capsys.readouterr().out
        assert main(["order", "--fixture", n37_path(), "--k", big]) == 0
        assert capsys.readouterr().out == small.replace(f"[{k}]P", f"[{big}]P", 1)
    assert multiples == [2, 2, -2, 35]

    def no_certificate(*args):
        raise AssertionError("verify_order ran")

    # |k| <= N is computed directly, as before
    monkeypatch.setattr(cli, "verify_order", no_certificate)
    for k in ("37", "-37", "5"):
        assert main(["order", "--fixture", n37_path(), "--k", k]) == 0


def test_order_multiple_past_an_uncertified_order_is_refused(tmp_path, capsys):
    # b[0] + 1 of n37_deg6: P has infinite order, and [1024]P over K is out
    # of reach (seconds at k = 256, and its text outgrows int-to-str limits)
    path = tmp_path / "mutant.json"
    save_fixture(perturbed_fixture(load_fixture(n37_path()), "b", 0, 1), path)
    t0 = time.perf_counter()
    assert main(["order", "--fixture", str(path), "--k", "1024"]) == 3
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("refused: [1024]P has |k| > N = 37, and P is not certified to "
                            "have order 37 ([37]P is not infinity)\n")


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int to str has no limit")
@pytest.mark.parametrize("argv,b,value", [
    # K = Q, c = 3: P has infinite order; [230]P has about 4,900 digits, under
    # the 8,600 that refuse it before the work, as its estimate reads 4,000
    (["order", "--k", "230"], "1", "[230]P"),
    (["jinv"], str(10 ** 1000 + 7), "disc"),  # a 1,001-digit b
], ids=["order", "jinv"])
def test_value_too_long_to_print_is_refused(tmp_path, capsys, argv, b, value):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({
        "label": "long-values-over-q", "N": 400,
        "generators": [{"name": "t", "minpoly": ["0", "1"]}],
        "b": [b], "c": ["3"], "expected_order": 400}), encoding="utf-8")
    assert main(["verify", "--fixtures", str(path)]) == 1  # a valid input
    capsys.readouterr()
    assert main([*argv, "--fixture", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"refused: {value} has more than {sys.get_int_max_str_digits()} "
                            "digits, the int to str conversion limit\n")


def infinite_order_fixture(tmp_path):
    """K = Q, b = 1, c = 3 and N = 5000: P has infinite order, and [k]P has
    ints of about 0.093 k^2 digits."""
    path = tmp_path / "long.json"
    path.write_text(json.dumps({
        "label": "long-multiples-over-q", "N": 5000,
        "generators": [{"name": "t", "minpoly": ["0", "1"]}],
        "b": ["1"], "c": ["3"], "expected_order": 5000}), encoding="utf-8")
    return str(path)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int to str has no limit")
@pytest.mark.parametrize("k", [400, 1500, 5000, -5000])
def test_order_multiple_too_long_to_print_is_refused_before_the_work(
        tmp_path, capsys, monkeypatch, k):
    # [400]P has 14,800 digits; [2]P and [4]P are all the command computes
    path = infinite_order_fixture(tmp_path)
    multiples = []
    monkeypatch.setattr(cli, "scalar_mul",
                        lambda e, j, point: multiples.append(j) or scalar_mul(e, j, point))
    t0 = time.perf_counter()
    assert main(["order", "--fixture", path, "--k", str(k)]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert multiples == [2, 2]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"refused: [{k}]P would have about ")
    assert captured.err.endswith("digits (extrapolated from [2]P and [4]P), past twice the int "
                                 f"to str limit of {sys.get_int_max_str_digits()}\n")


def test_order_multiple_is_refused_before_the_work_with_the_print_limit_off(
        tmp_path, capsys, monkeypatch):
    # with no int to str limit the estimate is held to twice the default one
    path = infinite_order_fixture(tmp_path)
    multiples = []
    monkeypatch.setattr(cli, "scalar_mul",
                        lambda e, j, point: multiples.append(j) or scalar_mul(e, j, point))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        t0 = time.perf_counter()
        assert main(["order", "--fixture", path, "--k", "5000"]) == 3
        assert time.perf_counter() - t0 < 1.0
    finally:
        sys.set_int_max_str_digits(limit)
    assert multiples == [2, 2]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused: [5000]P would have about ")
    assert captured.err.endswith(
        "past twice the int to str limit of "
        f"{sys.int_info.default_max_str_digits} by default (the limit is off)\n")


@pytest.mark.skipif(0 < sys.get_int_max_str_digits() < 4288, reason="a lower int to str limit")
@pytest.mark.parametrize("k", [215, -215])
def test_order_multiple_just_under_the_print_limit_is_printed(tmp_path, capsys, k):
    # [215]P has ints of up to 4,288 digits, and its estimate reads 3,500
    assert main(["order", "--fixture", infinite_order_fixture(tmp_path), "--k", str(k)]) == 0
    assert capsys.readouterr().out.startswith(f"[{k}]P = ([")


def test_cli_import_leaves_the_process_pool_unloaded():
    # scan imports the pool only when it starts more than one worker
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, x1torsion.cli; print(sorted(m for m in sys.modules " \
           "if m.startswith(('multiprocessing', 'concurrent.futures.process'))))"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "[]\n"


# --------------------------------------------------------------------- jinv

def test_jinv_output(capsys):
    assert main(["jinv", "--fixture", n37_path()]) == 0
    out = capsys.readouterr().out
    assert out.startswith("disc = ") and "\nj = " in out
    assert "undefined" not in out


def test_jinv_singular_curve(tmp_path, capsys):
    record = {
        "label": "singular-origin",
        "N": 1,
        "generators": [{"name": "t", "minpoly": ["-1", "-1", "1"]}],
        "b": ["0", "0"],
        "c": ["0", "0"],
        "expected_order": 1,
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    assert main(["jinv", "--fixture", str(path)]) == 0
    out = capsys.readouterr().out
    assert "disc = 0" in out and "j = undefined (disc = 0)" in out


def test_jinv_zero_divisor_disc(tmp_path, capsys):
    # u^2 = v^2 = 2 cut out Q(sqrt 2) x Q(sqrt 2), not a field: the disc is
    # nonzero but vanishes on the factor where v = -u, so it has no inverse
    record = {
        "label": "zd", "N": 5,
        "generators": [{"name": "u", "minpoly": ["-2", "0", "1"]},
                       {"name": "v", "minpoly": ["-2", "0", "1"]}],
        "b": [["0", "1"], ["1", "0"]], "c": [["3", "0"], ["0", "0"]],
        "expected_order": 5,
    }
    path = tmp_path / "zd.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    assert main(["jinv", "--fixture", str(path)]) == 0
    assert capsys.readouterr().out == (
        "disc = [['-4192', '1216'], ['1216', '-2096']]\n"
        "j = undefined (disc is a zero divisor: the generators do not cut out a field)\n")


# --------------------------------------------------------------------- scan

def test_scan_empty_result(capsys):
    assert main(["scan", "--p", "2", "--order", "37"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    summary = json.loads(captured.err.strip().splitlines()[-1])
    assert summary["hits"] == 0 and summary["pairs_scanned"] == 4


def test_scan_unfiltered_note_for_unknown_order(capsys):
    assert main(["scan", "--p", "7", "--order", "5"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.strip().splitlines()) == 6
    assert "unfiltered" in captured.err
    for line in captured.out.strip().splitlines():
        rec = json.loads(line)
        assert rec["order"] == 5 and rec["p"] == 7


@pytest.mark.parametrize("argv", [
    ["verify", "--report", "{tmp}/missing/r.json"],
    ["scan", "--p", "1009", "--order", "29", "--out", "{tmp}/missing/h.jsonl"],
    ["scan", "--p", "1009", "--order", "29", "--out", "{tmp}/file/h.jsonl"],
    ["verify", "--report", "{tmp}"],
], ids=["verify-report", "scan-out", "scan-out-under-a-file", "verify-report-a-directory"])
def test_unwritable_output_path_is_refused_before_the_work(tmp_path, capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran before the output path check")

    monkeypatch.setattr(cli, "verify_fixtures", no_work)
    monkeypatch.setattr(cli, "scan_fp", no_work)
    (tmp_path / "file").write_text("", encoding="utf-8")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"input error: cannot write {argv[-1]}: "
                            "not a file path in an existing directory\n")


def test_scan_known_order_is_filtered_silently(capsys):
    assert main(["scan", "--p", "3", "--order", "29"]) == 0
    captured = capsys.readouterr()
    assert "unfiltered" not in captured.err


def test_scan_out_file(tmp_path, capsys):
    out_path = tmp_path / "hits.jsonl"
    assert main(["scan", "--p", "7", "--order", "5", "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 6


def test_scan_jobs_flag_same_output(monkeypatch, capsys):
    # the worker count is the scan's own choice; a pool prints the serial bytes
    grids = [("7", "1", "5"), ("3", "2", "8"), ("2", "6", "9")]
    serial = []
    for p, d, n in grids:
        assert main(["scan", "--p", p, "--ext", d, "--order", n]) == 0
        serial.append(capsys.readouterr().out)
    pool_every_grid(monkeypatch, 2)
    for (p, d, n), out in zip(grids, serial):
        assert main(["scan", "--p", p, "--ext", d, "--order", n]) == 0
        assert out and capsys.readouterr().out == out


def test_bench_grids_scan_serially_without_the_pool():
    # each benchmark grid, and F_101 at N = 29, is far below STEPS_PER_WORKER
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, os, sys\n"
        "from x1torsion.cli import main\n"
        "def refuse(*args):\n"
        "    raise AssertionError('a serial scan asks for no CPU count')\n"
        "os.sched_getaffinity = os.cpu_count = refuse\n"
        f"for p, d, n in {BENCH_GRIDS + [(101, 1, 29)]}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert main(['scan', '--p', str(p), '--ext', str(d), '--order', str(n)]) == 0\n"
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('multiprocessing', 'concurrent.futures.process'))))\n")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("p,d,n", SCAN_GRIDS)
def test_scan_bytes_match_committed_table(p, d, n, capsys):
    expected = json.loads(SCAN_TABLE.read_text(encoding="utf-8"))[f"{p}^{d}:{n}"]
    assert main(["scan", "--p", str(p), "--ext", str(d), "--order", str(n)]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == expected["hits"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected["sha256"]


@pytest.mark.parametrize("p,d,digest,degrees", [
    (3, 6, "92e23eaf0b3a90f4916204eb25cb3c9cdba6fc6ef7201cb0d0f2259b5da65a5b", {6: 798, 3: 42}),
    (2, 10, "040a852065dbdcf33632fe64a9cc72ca52e0712ad9f82edcee0180e5879dc500", {10: 1190}),
])
def test_scan_large_grids_at_order_29_are_pinned(p, d, digest, degrees, capsys):
    # digests recorded from the kernel that tested the disc on every pair and
    # walked every row; the places of degree e are the hits of degree e over e
    assert main(["scan", "--p", str(p), "--ext", str(d), "--order", "29"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    lines, found = out.splitlines(), {}
    for line in lines:
        e = json.loads(line)["place_degree"]
        found[e] = found.get(e, 0) + 1
    assert found == degrees
    assert all(d % e == 0 and count % e == 0 for e, count in found.items())
    places = {e: count // e for e, count in found.items()}
    assert sum(e * places.get(e, 0) for e in range(1, d + 1) if d % e == 0) == len(lines)


def test_scan_budget_refusal(monkeypatch, capsys):
    assert main(["scan", "--p", "10007", "--ext", "2", "--order", "5"]) == 3
    assert "refused" in capsys.readouterr().err
    t0 = time.monotonic()
    assert main(["scan", "--p", "9973", "--order", "1000"]) == 3
    assert time.monotonic() - t0 < 1
    steps = 9973 ** 2 * 997  # walks capped at N = 1000 and row tables: 1000 - 3 per pair
    seconds = (9973 ** 2 * scan.NS_PER_PAIR + steps * scan.NS_PER_STEP) // 10 ** 9
    assert capsys.readouterr().err == (
        f"refused: scan takes about {steps} walk steps (about {seconds} s), "
        "over the budget of 2600000000\n")
    assert seconds == 2003  # 99.5 million pairs at 200 ns and 99.2 billion steps at 20 ns
    # F_11 at N = 4 is 121 steps: the budget reads the same estimate through main
    monkeypatch.setattr(scan, "MAX_STEPS", 121)
    assert main(["scan", "--p", "11", "--order", "4"]) == 0
    monkeypatch.setattr(scan, "MAX_STEPS", 120)
    assert main(["scan", "--p", "11", "--order", "4"]) == 3
    monkeypatch.undo()

    def sentinel(p, d):
        raise LookupError("past the budget check")

    # F_10007 at N = 5 passes the check: the sentinel shows it would run
    monkeypatch.setattr(scan, "_log_field", sentinel)
    with pytest.raises(LookupError, match="past the budget check"):
        main(["scan", "--p", "10007", "--order", "5"])


def test_scan_invalid_prime(capsys):
    assert main(["scan", "--p", "4", "--order", "5"]) == 2
    assert "input error" in capsys.readouterr().err


# -------------------------------------------------------------------- irred

def test_irred_verdicts(capsys):
    assert main(["irred", "--minpoly=-1,-1,1", "--p", "2"]) == 0
    assert "irreducible" in capsys.readouterr().out
    assert main(["irred", "--minpoly=-1,-1,1", "--p", "5"]) == 0
    out = capsys.readouterr().out
    assert "reducible" in out and "irreducible" not in out.replace("reducible", "", 1)
    assert main(["irred", "--minpoly", "7,1", "--p", "7"]) == 0  # x + 7 = x mod 7
    assert capsys.readouterr().out == "7,1 mod 7: irreducible\n"


def test_irred_normalizes_nonmonic(capsys):
    # 2x^2 + 2 is monic-normalized to x^2 + 1 before the test runs
    assert main(["irred", "--minpoly", "2,0,2", "--p", "3"]) == 0
    assert "irreducible" in capsys.readouterr().out


def test_irred_bad_input(capsys):
    assert main(["irred", "--minpoly", "1,x,3", "--p", "7"]) == 2
    assert "input error" in capsys.readouterr().err
    assert main(["irred", "--minpoly", "3", "--p", "7"]) == 2  # constant poly
    assert main(["irred", "--minpoly", "0", "--p", "7"]) == 2  # zero poly
    assert main(["irred", "--minpoly", "1,7", "--p", "7"]) == 2  # constant after reduction
    assert main(["irred", "--minpoly", "1,1", "--p", "4"]) == 2  # p not prime
    err = capsys.readouterr().err.splitlines()
    assert err == ["input error: polynomial must be monic of degree >= 1"] * 3 + [
        "input error: modulus 4 is not prime"]


# ------------------------------------------------------------------ plumbing

def test_usage_errors_and_help(capsys):
    assert main([]) == 2
    assert main(["bogus"]) == 2
    # the scan filter bound is only ever DEFAULT_GONALITIES[N]
    assert main(["scan", "--p", "7", "--order", "5", "--gonality", "2"]) == 2
    # and the scan picks its own worker count
    assert main(["scan", "--p", "7", "--order", "5", "--jobs", "2"]) == 2
    # and bounds its work by its own estimate
    assert main(["scan", "--p", "7", "--order", "5", "--budget", "5"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def parse_corpus(tmp_path):
    """argv for every command and for each way a parse can end: well formed,
    with --opt=value and abbreviations, and each kind of usage error."""
    n37, missing, report = n37_path(), str(tmp_path / "missing.json"), str(tmp_path / "r.json")
    well_formed = [
        ["verify", "--fixtures", n37], ["verify", "--fixtures", n37, "--report", report],
        ["verify", "--fix", missing], ["order", "--fixture", n37],
        ["order", "--fixture", n37, "--k", "5"], ["order", "--fixture", n37, "--k=-3"],
        ["order", "--fix", n37, "--k", "1", "--k", "2"], ["jinv", "--fixture", n37],
        ["scan", "--p", "5", "--order", "4"], ["scan", "--p=7", "--ord", "5"],
        ["scan", "--p", "2", "--ext", "2", "--order", "5", "--out", str(tmp_path / "h.jsonl")],
        ["scan", "--p", "4", "--order", "5"], ["irred", "--minpoly", "2,0,2", "--p", "3"],
        ["irred", "--minpoly=1,1,1", "--p", "2"], ["irred", "--minpoly", "a,b", "--p", "3"],
    ]
    usage = [
        [], ["bogus"], ["-h"], ["--help"], ["--bogus", "scan"], ["--", "jinv", "--fixture", n37],
        ["scan", "--p", "5", "--order", "4", "--bogus"], ["scan", "--p", "5", "--order", "4", "x"],
        ["scan", "--p", "5", "--order", "4", "--"], ["scan", "--p", "5", "--order", "4", "--", "x"],
        ["jinv", "--fixture", n37, "--k", "2"],
        ["scan", "--p"], ["scan", "--p", "x", "--order", "4"], ["scan", "--p", "5"], ["jinv"],
        ["scan", "--p", "5", "--o", "4"], ["order", "--fixture", n37, "--k"], ["scan", "-h"],
        ["verify", "--help"], ["irred", "--h"],
    ]
    return well_formed, usage


def recording_commands(monkeypatch):
    """Make every command record vars() of its namespace and return 0."""
    seen = []
    for sub in cli.build_parser().commands.values():
        monkeypatch.setitem(sub._defaults, "func", lambda args: seen.append(vars(args)) or 0)
    return seen


def test_main_parses_as_one_top_level_parse_would(tmp_path, capsys, monkeypatch):
    # same exit code, stdout and stderr as one parse by the top parser, and
    # for well-formed calls the same namespace
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(monotonic=lambda: 0.0))
    well_formed, usage = parse_corpus(tmp_path)
    for argv in well_formed + usage:
        results = []
        for run in (main, reference_main):
            code = run(list(argv))
            results.append((code, *capsys.readouterr()))
        assert results[0] == results[1], argv
    seen = recording_commands(monkeypatch)
    for argv in well_formed:
        seen.clear()
        assert main(list(argv)) == 0
        assert seen == [vars(cli.build_parser().parse_args(argv))], argv


def test_main_calls_the_top_parser_only_for_what_it_words(tmp_path, capsys, monkeypatch):
    parser, calls = cli.build_parser(), []
    for name in ("parse_args", "parse_known_args"):
        method = getattr(parser, name)
        monkeypatch.setattr(parser, name,
                            lambda *a, method=method, **kw: calls.append(a) or method(*a, **kw))
    recording_commands(monkeypatch)
    well_formed, usage = parse_corpus(tmp_path)
    for argv in [*well_formed, ["scan", "-h"], ["order", "--fixture"], ["scan", "--p", "x"]]:
        main(argv)
        assert calls == [], argv
    for argv in [["scan", "--p", "5", "--order", "4", "--bogus"],
                 ["scan", "--p", "5", "--order", "4", "x"], [], ["bogus"], ["--help"]]:
        calls.clear()
        main(argv)
        assert calls, argv
    capsys.readouterr()


def test_a_key_error_inside_a_command_propagates(monkeypatch):
    # no input raises KeyError, so one is a fault to show, not an input error
    def fault(*args, **kwargs):
        raise KeyError("fault")

    monkeypatch.setattr(cli, "scan_fp", fault)
    with pytest.raises(KeyError, match="fault"):
        main(["scan", "--p", "7", "--order", "5"])


def scan_7_5(capsys):
    assert main(["scan", "--p", "7", "--order", "5"]) == 0
    return capsys.readouterr().out


def test_one_process_recovers_from_errors_between_scans(tmp_path, capsys):
    first = scan_7_5(capsys)
    assert len(first.splitlines()) == 6
    failing = [(["scan", "--p", "7"], 2),  # --order missing: a usage error
               (["--help"], 0),
               (["scan", "--p", "7", "--ext", "2", "--order", "5"], 0),
               (["scan", "--p", "7", "--order", "5", "--out", str(tmp_path / "h.jsonl")], 0)]
    for argv, code in failing:
        assert main(argv) == code
        capsys.readouterr()
        # no option of the call before leaks into the next namespace
        assert scan_7_5(capsys) == first


def test_verify_and_scan_interleaved_give_the_pinned_bytes(capsys):
    table = json.loads(SCAN_TABLE.read_text(encoding="utf-8"))
    for p, d, n in [(2, 4, 29), (23, 1, 11), (2, 4, 37)]:
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_STDOUT_SHA256
        assert main(["scan", "--p", str(p), "--ext", str(d), "--order", str(n)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == table[f"{p}^{d}:{n}"]["sha256"]


def test_parser_is_built_once_per_process(capsys):
    cli.build_parser.cache_clear()
    calls = [["scan", "--p", "5", "--order", "4"], ["irred", "--minpoly", "2,0,2", "--p", "3"],
             ["bogus"], ["--help"], ["jinv", "--fixture", n37_path()]] * 4
    for argv in calls:
        main(argv)
    capsys.readouterr()
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)
    assert cli.build_parser() is cli.build_parser()
