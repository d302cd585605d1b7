"""Fixture parsing, canonical serialization, and end-to-end verification."""

import dataclasses
import itertools
import json
import random

import pytest

from x1torsion import (
    FixtureError,
    load_fixture,
    parse_fixture,
    scalar_mul,
    serialize_fixture,
    shipped_fixture_paths,
    tate_curve,
    verify_fixture,
    verify_fixtures,
    verify_order,
)
from x1torsion import curves, fields
from x1torsion.cli import main as cli_main
from x1torsion.curves import good_place
from x1torsion.fixtures import (
    check_record,
    field_certificate,
    fixture_record,
    report_record,
    save_fixture,
)

from support import exact_order_verdict, perturbed_fixture, shifted_fixture


def minimal_record():
    return {
        "label": "diagonal-over-golden-field",
        "N": 5,
        "generators": [{"name": "t", "minpoly": ["-1", "-1", "1"]}],
        "b": ["0", "0"],
        "c": ["0", "0"],
        "expected_order": 5,
    }


def zero_divisor_record():
    # t^2 - 1 is reducible, so t + 1 is a zero divisor downstream
    return {
        "label": "reducible-modulus",
        "N": 5,
        "generators": [{"name": "t", "minpoly": ["-1", "0", "1"]}],
        "b": ["1", "1"],
        "c": ["0", "0"],
        "expected_order": 5,
    }


def tensor_zero_divisor_record():
    # u^2 - 2 and v^2 - 2 each certify, but (u - v)(u + v) = 0: their
    # tensor product is not a field
    return {
        "label": "tensor-of-equal-fields",
        "N": 5,
        "generators": [{"name": "u", "minpoly": ["-2", "0", "1"]},
                       {"name": "v", "minpoly": ["-2", "0", "1"]}],
        "b": [["0", "-1"], ["1", "0"]],
        "c": [["0", "0"], ["0", "0"]],
        "expected_order": 5,
    }


# ------------------------------------------------------------------ shipped

def test_shipped_paths():
    paths = shipped_fixture_paths()
    assert len(paths) == 9
    names = [p.name for p in paths]
    assert names == sorted(names)
    assert names[0].endswith(".json")


def test_shipped_fixtures_round_trip_byte_identical():
    for path in shipped_fixture_paths():
        text = path.read_text(encoding="utf-8")
        fixture = parse_fixture(json.loads(text), source=path.name)
        assert serialize_fixture(fixture) == text


def test_shipped_degrees_and_orders():
    fixtures = [load_fixture(p) for p in shipped_fixture_paths()]
    by_n = {}
    for f in fixtures:
        by_n.setdefault(f.n, []).append(f.degree)
        assert f.expected_order == f.n
        assert f.gonality is not None and f.degree < f.gonality
    assert sorted(by_n[29]) == [9, 10, 10]
    assert sorted(by_n[31]) == [9, 10, 11, 11, 11]
    assert by_n[37] == [6]


def test_shipped_minpolys_are_stored_as_ints():
    # integral minpolys fold into the multiplication table with int arithmetic
    for path in shipped_fixture_paths():
        for g in load_fixture(path).b.descriptor.generators:
            assert all(type(v) is int for v in g.minpoly), (path.name, g.name)


def test_fixture_record_key_order():
    f = load_fixture(shipped_fixture_paths()[-1])
    record = fixture_record(f)
    assert list(record) == [
        "label", "N", "generators", "b", "c", "expected_order", "gonality", "note",
    ]
    assert list(record["generators"][0]) == ["name", "minpoly"]


# ------------------------------------------------------------------ parsing

def test_minimal_record_parses():
    f = parse_fixture(minimal_record())
    assert f.label == "diagonal-over-golden-field"
    assert f.degree == 2 and f.gonality is None and f.note is None


def test_expected_order_may_differ_from_n():
    record = minimal_record()
    record["expected_order"] = 7
    assert parse_fixture(record).expected_order == 7


def test_rationals_are_canonicalized():
    record = minimal_record()
    record["b"] = ["2/4", "-0"]
    f = parse_fixture(record)
    assert f.b.to_text() == ["1/2", "0"]


def two_generator_record():
    # t^2 - t - 1 and u^2 - 2, with every number written non-canonically
    return {
        "label": "two-generators",
        "N": 5,
        "generators": [{"name": "t", "minpoly": ["-2/2", "-001", "3/3"]},
                       {"name": "u", "minpoly": ["-4/2", "-0", "007/7"]}],
        "b": [["2/4", "-0"], ["007", "-6/3"]],
        "c": [["-0", "3/9"], ["10/5", "0/3"]],
        "expected_order": 5,
    }


def test_non_canonical_text_is_written_back_canonically():
    record = fixture_record(parse_fixture(two_generator_record()))
    assert record["generators"] == [{"name": "t", "minpoly": ["-1", "-1", "1"]},
                                    {"name": "u", "minpoly": ["-2", "0", "1"]}]
    assert record["b"] == [["1/2", "0"], ["7", "-2"]]
    assert record["c"] == [["0", "1/3"], ["2", "0"]]
    assert fixture_record(parse_fixture(record)) == record


def test_fixture_elements_share_the_tower_descriptor():
    f = parse_fixture(two_generator_record())
    desc = f.b.descriptor
    assert f.c.descriptor is desc and desc.base is None
    assert [g.name for g in desc.generators] == ["t", "u"]
    assert f.degree == desc.dimension == 4


def test_coordinate_numbers_are_rejected_at_their_path():
    record = two_generator_record()
    record["b"][1][0] = 3
    err = rejects(record, "expected rational string", source="demo.json")
    assert err.location == "demo.json: b[1][0]"


def count_from_coords(monkeypatch):
    calls = []
    from_coords = fields.FieldDescriptor.from_coords

    def counted(self, *args, **kwargs):
        calls.append(1)
        return from_coords(self, *args, **kwargs)

    monkeypatch.setattr(fields.FieldDescriptor, "from_coords", counted)
    return calls


def test_a_loaded_fixture_is_parsed_once(monkeypatch, capsys):
    calls = count_from_coords(monkeypatch)
    for path in shipped_fixture_paths():
        f = load_fixture(path)
        assert len(calls) == 2, path.name  # b and c
        assert verify_fixture(f).passed
        assert len(calls) == 2, path.name
        for command in ("order", "jinv"):
            calls.clear()
            assert cli_main([command, "--fixture", str(path)]) == 0
            assert len(calls) == 2, (path.name, command)
        calls.clear()
    capsys.readouterr()


def rejects(record, fragment=None, source=None):
    with pytest.raises(FixtureError) as info:
        parse_fixture(record, source=source)
    if fragment is not None:
        assert fragment in str(info.value)
    return info.value


def test_parse_rejects_non_object():
    rejects(["not", "an", "object"], "must be an object")


def test_parse_rejects_unknown_and_missing_fields():
    record = minimal_record()
    record["extra"] = 1
    rejects(record, "unknown field 'extra'")
    record = minimal_record()
    del record["c"]
    rejects(record, "missing field 'c'")


def test_parse_rejects_bad_label():
    record = minimal_record()
    record["label"] = ""
    rejects(record, "label")
    record["label"] = 7
    rejects(record, "label")


def test_parse_rejects_bad_orders():
    record = minimal_record()
    record["N"] = True
    rejects(record, "expected an integer")
    record = minimal_record()
    record["N"] = 0
    rejects(record, "orders must be positive")
    record = minimal_record()
    record["expected_order"] = -5
    assert rejects(record, "orders must be positive").location == "expected_order"
    record = minimal_record()
    record["expected_order"] = "5"
    rejects(record, "expected an integer")


def test_parse_rejects_orders_past_the_factoring_bound():
    # the order certificate factors by trial division, meant for n < 2^32
    for key in ("N", "expected_order"):
        record = minimal_record()
        record[key] = 2 ** 61 - 1
        err = rejects(record, "not below 2^32", source="big.json")
        assert err.location == f"big.json: {key}"
    record = minimal_record()
    record["expected_order"] = 2 ** 32 - 1
    assert parse_fixture(record).expected_order == 2 ** 32 - 1


def test_parse_rejects_bad_generators():
    record = minimal_record()
    record["generators"] = []
    rejects(record, "nonempty array")
    record = minimal_record()
    record["generators"] = [{"name": "t", "minpoly": ["-1", "-1", "1"], "extra": 1}]
    rejects(record, "exactly the fields")
    record = minimal_record()
    record["generators"][0]["name"] = "2bad"
    rejects(record, "bad generator name")
    record = minimal_record()
    record["generators"] = [
        {"name": "t", "minpoly": ["-1", "-1", "1"]},
        {"name": "t", "minpoly": ["-1", "0", "1"]},
    ]
    record["b"] = [["0", "0"], ["0", "0"]]
    record["c"] = [["0", "0"], ["0", "0"]]
    rejects(record, "duplicate generator name")


def test_parse_rejects_bad_minpoly():
    record = minimal_record()
    record["generators"][0]["minpoly"] = ["1"]
    rejects(record, "at least two coefficients")
    record = minimal_record()
    record["generators"][0]["minpoly"] = ["-1", "-1", "2"]
    rejects(record, "monic")
    record = minimal_record()
    record["generators"][0]["minpoly"] = ["-1", "oops", "1"]
    err = rejects(record, "malformed rational")
    assert "minpoly[1]" in str(err)


def test_parse_rejects_malformed_rational_with_location():
    record = minimal_record()
    record["b"] = ["0", "1/0"]
    err = rejects(record, "zero denominator", source="demo.json")
    assert str(err) == "demo.json: b[1]: malformed rational '1/0': zero denominator"
    record = minimal_record()
    record["c"] = ["0", 3]
    rejects(record, "expected rational string")


def test_parse_rejects_wrong_coordinate_shape():
    record = minimal_record()
    record["b"] = ["0", "0", "0"]  # length 3 against a degree-2 field
    err = rejects(record)
    assert "b" in str(err)
    record = minimal_record()
    record["c"] = "0"
    rejects(record, "c")


def test_parse_rejects_bad_gonality_and_note():
    record = minimal_record()
    record["gonality"] = 0
    rejects(record, "gonality must be positive")
    record = minimal_record()
    record["gonality"] = "11"
    rejects(record, "expected an integer")
    record = minimal_record()
    record["note"] = 7
    rejects(record, "note must be a string")
    record = minimal_record()
    record["gonality"] = 11
    record["note"] = "fine"
    f = parse_fixture(record)
    assert f.gonality == 11 and f.note == "fine"


# --------------------------------------------------------------------- io

def test_load_errors(tmp_path):
    with pytest.raises(FixtureError) as info:
        load_fixture(tmp_path / "absent.json")
    assert "cannot read" in str(info.value)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(FixtureError) as info:
        load_fixture(bad)
    assert "invalid object notation" in str(info.value)


def test_save_load_round_trip(tmp_path):
    f = parse_fixture(minimal_record())
    target = tmp_path / "out.json"
    save_fixture(f, target)
    assert load_fixture(target) == f
    assert target.read_text(encoding="utf-8").endswith("}\n")


# ------------------------------------------------------------- verification

def test_minimal_fixture_fails_as_singular():
    check = verify_fixture(parse_fixture(minimal_record()))
    assert not check.passed
    assert check.disc_nonzero is False
    assert "singular" in check.reason
    assert check.cert_primes[0][1] is not None  # t^2 - t - 1 is irreducible


def test_altered_expected_order_fails_certification():
    f = load_fixture(shipped_fixture_paths()[-1])  # the degree-6 example
    tampered = dataclasses.replace(f, expected_order=36)
    check = verify_fixture(tampered)
    assert not check.passed
    assert check.disc_nonzero is True
    assert "[36]" in check.reason


def test_omitted_gonality_comes_from_the_table():
    f = dataclasses.replace(load_fixture(shipped_fixture_paths()[-1]), gonality=None)  # N = 37
    check = verify_fixture(f)
    assert check.passed and check.gonality == 18 and check.below_gonality is True


def test_zero_divisor_arithmetic_is_reported_not_raised():
    check = verify_fixture(parse_fixture(tensor_zero_divisor_record()))
    assert not check.passed
    assert check.reason == "Q(b, c) not certified as a field of degree 4"
    assert [prime is not None for _, prime in check.cert_primes] == [True, True]
    assert check.order_certificate is None and check.below_gonality is None


def test_uncertified_minpoly_fails_before_the_curve():
    check = verify_fixture(parse_fixture(zero_divisor_record()))
    assert not check.passed
    assert check.reason == "minpoly of t not certified irreducible"
    assert check.cert_primes == (("t", None),)  # reducible, so never certified
    assert check.disc_nonzero is None and check.order_certificate is None
    assert check.below_gonality is None


def one_generator_fixture(minpoly, b, c):
    return parse_fixture({"label": "t", "N": 5, "generators": [{"name": "t", "minpoly": minpoly}],
                          "b": b, "c": c, "expected_order": 5})


def test_field_certificate_needs_units_not_just_nonzero_elements():
    # (t + 1)(t^2 + t + 1)(t^3 + t + 1): mod 2, A = F_2 x F_4 x F_8, where
    # t^(2^6) = t and t^(2^3) - t, t^(2^2) - t are nonzero zero divisors
    f = one_generator_fixture(["1", "3", "4", "4", "3", "2", "1"],
                              ["0", "1", "0", "0", "0", "0"], ["0"] * 6)
    assert field_certificate(f.b, f.c) is None


def test_field_certificate_takes_c_into_theta():
    # b = 1 lies in F_2, so theta = b alone never generates F_4; b + c does
    f = one_generator_fixture(["-1", "-1", "1"], ["1", "0"], ["0", "1"])
    assert field_certificate(f.b, f.c) == 2


def test_report_counts_and_records():
    fixtures = [parse_fixture(minimal_record()), parse_fixture(zero_divisor_record())]
    report = verify_fixtures(fixtures)
    assert report.pass_count == 0 and report.fail_count == 2
    assert not report.all_passed
    record = report_record(report)
    assert record["pass_count"] == 0 and record["fail_count"] == 2
    assert record["all_passed"] is False
    first, second = record["fixtures"]
    assert first["disc_nonzero"] is False and first["order"] is None
    assert second["irreducibility"][0]["certified_mod"] == "not certified"
    json.dumps(record)  # every record must be serializable as-is


def test_verified_shipped_fixture_check_record():
    f = load_fixture(shipped_fixture_paths()[-1])
    check = verify_fixture(f)
    assert check.passed and check.below_gonality is True
    record = check_record(check)
    assert record["order"]["passed"] is True
    assert record["order"]["target"] == 37
    assert [k for k, _ in record["irreducibility"][0].items()] == ["generator", "certified_mod"]
    assert all(isinstance(p["certified_mod"], int) for p in record["irreducibility"])


def curve_and_point(f):
    """The fixture's Tate curve and its marked point (0, 0) over K."""
    e = tate_curve(f.b, f.c)
    zero = e.descriptor.zero()
    return e, e.point(zero, zero)


def test_order_precheck_falls_back_to_exact_arithmetic(monkeypatch):
    f = load_fixture(shipped_fixture_paths()[-1])  # n37_deg6
    p = good_place(*curve_and_point(f))[0].descriptor.base
    # a move by a multiple of p keeps b mod p; the smallest multiple that
    # keeps p the first good prime meets the same place, where [37]P = O
    for step in itertools.count(p, p):
        mutant = perturbed_fixture(f, "b", 0, step)
        e_bar, p_bar = good_place(*curve_and_point(mutant))
        if e_bar.descriptor.base == p:
            break
    assert scalar_mul(e_bar, 37, p_bar).is_infinity
    exact = []

    def traced(e, k, point):
        if e.descriptor.base is None:
            exact.append(k)
        return scalar_mul(e, k, point)

    monkeypatch.setattr(curves, "scalar_mul", traced)
    check = verify_fixture(mutant)
    assert not check.passed
    assert check.reason == "order check failed: [37]P is not infinity"
    assert check.order_certificate.checks == ((37, False), (1, False))
    assert exact == [37]  # [1]P was settled at the place


def test_good_place_primes_of_the_shipped_fixtures():
    # the report pins each certified_mod but not the prime of the place
    # where each order claim is first tested
    primes = {p.name: good_place(*curve_and_point(load_fixture(p)))[0].descriptor.base
              for p in shipped_fixture_paths()}
    assert primes == {
        "n29_deg10a.json": 29, "n29_deg10b.json": 29, "n29_deg9.json": 23,
        "n31_deg10.json": 43, "n31_deg11a.json": 23, "n31_deg11b.json": 23,
        "n31_deg11c.json": 23, "n31_deg9.json": 23, "n37_deg6.json": 29,
    }


def test_order_is_exact_without_a_good_place(monkeypatch):
    # t^2 - t - 1 has no root mod 2, 3 or 7, and is irreducible mod 2
    monkeypatch.setattr(fields, "CERTIFY_PRIMES", (2, 3, 7))
    record = minimal_record()
    record["b"] = record["c"] = ["0", "1"]  # b = c = t: (0, 0) has order 5
    f = parse_fixture(record)
    assert good_place(*curve_and_point(f)) is None
    check = verify_fixture(f)
    assert check.passed and check.cert_primes == (("t", 2),) and check.disc_nonzero is True
    check = verify_fixture(dataclasses.replace(f, expected_order=7))
    assert check.reason == "order check failed: [7]P is not infinity"


def test_order_precheck_agrees_with_exact_oracle():
    shipped = [load_fixture(p) for p in shipped_fixture_paths()]
    rng = random.Random(0x6E)
    for trial in range(100):
        f = rng.choice(shipped)
        mutated = trial % 5 == 0  # a mutant costs the oracle about 5 shifts
        if mutated:
            # moves by 23 and 29, the first good primes of most shipped
            # fixtures, can leave [N]P = O at that place
            delta = rng.choice((-3, -2, -1, 1, 2, 3, 23, 29))
            f = perturbed_fixture(f, rng.choice("bc"), rng.randrange(f.degree), delta)
        else:
            f = shifted_fixture(f, [rng.choice((-2, -1, 1, 2)) for _ in f.b.descriptor.generators])
        record = check_record(verify_fixture(f))
        assert all(isinstance(g["certified_mod"], int) for g in record["irreducibility"])
        oracle = exact_order_verdict(f)
        assert {k: record[k] for k in oracle} == oracle, (trial, f.label)
        assert record["passed"] is not mutated
        # the library's (and `x1torsion order`'s) route gives the same checks
        cert = verify_order(*curve_and_point(f), f.expected_order)
        assert [list(c) for c in cert.checks] == record["order"]["checks"], (trial, f.label)
