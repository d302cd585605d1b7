"""Fixture parsing, canonical serialization, and end-to-end verification."""

import dataclasses
import itertools
import json
import random

import pytest

from x1torsion import (
    Curve,
    FieldDescriptor,
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
from x1torsion import curves, fields, polys
from x1torsion.cli import main as cli_main
from x1torsion.curves import place_orders, tate_normal_form
from x1torsion.fixtures import (
    check_record,
    field_certificate,
    fixture_record,
    report_record,
    save_fixture,
)

from support import (
    exact_order_verdict,
    first_good_places,
    perturbed_fixture,
    place_curve,
    random_element,
    reference_field_certificate,
    shifted_fixture,
)


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


@pytest.mark.parametrize("data, message", [
    (b"\xff\xfe", "cannot read fixture: 'utf-8' codec can't decode"),
    (b'{"N": ' + b"9" * 5000 + b"}", "invalid object notation: "),
], ids=["not-utf-8", "int-past-the-digit-limit"])
def test_undecodable_fixture_names_its_file(tmp_path, data, message):
    path = tmp_path / "bin.json"
    path.write_bytes(data)
    with pytest.raises(FixtureError) as info:
        load_fixture(path)
    assert str(info.value).startswith(f"{path}: {message}")
    assert info.value.location == str(path)


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


def random_fixture(rng, degrees):
    """A fixture over random monic minpolys of these degrees, with random b and c,
    integral half the time."""
    gens = [{"name": f"g{i}", "minpoly": [str(rng.randint(-3, 3)) for _ in range(d)] + ["1"]}
            for i, d in enumerate(degrees)]
    desc = FieldDescriptor.rationals([(g["name"], g["minpoly"]) for g in gens])
    b, c = random_element(rng, desc), random_element(rng, desc)
    if rng.random() < 0.5:
        b, c = b * b.den, c * c.den
    return parse_fixture({"label": "random", "N": 5, "generators": gens, "b": b.to_text(),
                          "c": c.to_text(), "expected_order": 5})


def test_field_certificate_agrees_with_rabin_on_theta():
    # the certificate decides each ring once and tests theta against its
    # maximal subfields; the reference runs Rabin's test on theta itself
    shipped = [load_fixture(p) for p in shipped_fixture_paths()]
    cases = shipped + [parse_fixture(record()) for record in (
        minimal_record, zero_divisor_record, tensor_zero_divisor_record, two_generator_record)]
    for seed in range(20):
        rng = random.Random(seed)
        for f in shipped:
            moves = [rng.choice((-2, -1, 1, 2)) for _ in f.b.descriptor.generators]
            cases.append(shifted_fixture(f, moves))
            cases.append(perturbed_fixture(f, rng.choice("bc"), rng.randrange(f.degree),
                                           rng.choice((-2, -1, 1, 2))))
    rng = random.Random(0x29)
    for _ in range(100):
        degrees = rng.choice([(1,), (2,), (3,), (4,), (6,), (2, 3), (2, 2), (3, 2), (1, 4)])
        cases.append(random_fixture(rng, degrees))
    primes = [field_certificate(f.b, f.c) for f in cases]
    assert primes == [reference_field_certificate(f.b, f.c) for f in cases]
    assert {2, 3, None} <= set(primes)


def test_a_second_verify_builds_no_residue_ring(monkeypatch):
    f = load_fixture(shipped_fixture_paths()[-1])  # the degree-6 tower
    assert verify_fixture(f).passed
    walked = list(f.b.descriptor.residues())  # every ring of the walk, not only those verify met
    built, build = [], FieldDescriptor._build_generators

    def counted(generators, base):
        built.append(base)
        return build(generators, base)

    monkeypatch.setattr(FieldDescriptor, "_build_generators", staticmethod(counted))
    assert verify_fixture(f).passed
    assert built == []
    # the walk still reads the prime list per call: a prime taken out is not
    # walked, and a new one builds its ring then
    prime = field_certificate(f.b, f.c)
    monkeypatch.setattr(fields, "CERTIFY_PRIMES", (101,) + tuple(
        p for p in fields.CERTIFY_PRIMES if p != prime))
    rings = list(f.b.descriptor.residues())
    assert [A.base for A in rings] == list(fields.CERTIFY_PRIMES)
    assert built == [101] and all(any(A is B for B in walked) for A in rings[1:])
    assert field_certificate(f.b, f.c) == reference_field_certificate(f.b, f.c) != prime


def test_tower_with_no_field_residue_maps_nothing(monkeypatch):
    # x^2 - q over the first 8 primes q: the degrees share a factor, so no residue
    # ring is a field, and b and c are mapped into none, which spares a product table
    # of 256 x 256 fold rows per ring
    record = {"label": "tower", "N": 7, "expected_order": 7, "b": "1", "c": "3",
              "generators": [{"name": f"g{i}", "minpoly": [str(-q), "0", "1"]}
                             for i, q in enumerate((2, 3, 5, 7, 11, 13, 17, 19))]}
    for side, value in (("b", "1"), ("c", "3")):
        record[side] = FieldDescriptor.rationals(
            [(g["name"], g["minpoly"]) for g in record["generators"]]).from_scalar(value).to_text()
    f = parse_fixture(record)
    mapped = []
    monkeypatch.setattr(FieldDescriptor, "image", lambda A, x: mapped.append(A.base))
    check = verify_fixture(f)
    assert check.reason == "Q(b, c) not certified as a field of degree 256"
    assert all(isinstance(p, int) for _, p in check.cert_primes) and mapped == []


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
    p, q = (place[0] for place in itertools.islice(first_good_places(*curve_and_point(f)), 2))
    # a move by a multiple of p*q keeps b mod p and mod q; the smallest
    # multiple that keeps p and q the first two good characteristics meets
    # the same places, where [37]P = O
    for step in itertools.count(p * q, p * q):
        mutant = perturbed_fixture(f, "b", 0, step)
        places = list(itertools.islice(first_good_places(*curve_and_point(mutant)), 2))
        if [place[0] for place in places] == [p, q]:
            break
    for place in places:
        e_bar, p_bar = place_curve(*place)
        assert scalar_mul(e_bar, 37, p_bar).is_infinity
    exact = []
    route = curves._multiple_at_infinity

    def traced(e, k, point):
        if e.descriptor.base is None:
            exact.append(k)
        return route(e, k, point)

    monkeypatch.setattr(curves, "_multiple_at_infinity", traced)
    check = verify_fixture(mutant)
    assert not check.passed
    assert check.reason == "order check failed: [37]P is not infinity"
    assert check.order_certificate.checks == ((37, False), (1, False))
    assert exact == [37]  # [1]P was settled at the place


def test_second_place_settles_a_claim_the_first_cannot(monkeypatch):
    # the first one-leaf mutant, in a fixed order, whose [N]P is O at its
    # first good place
    def mutants():
        for path in shipped_fixture_paths():
            f = load_fixture(path)
            deltas = (-3, -2, -1, 1, 2, 3)
            for side, slot, delta in itertools.product("bc", range(f.degree), deltas):
                yield perturbed_fixture(f, side, slot, delta)

    def infinity_at_first_place(f):
        _, order = next(place_orders(*curve_and_point(f)))
        return f.expected_order % order == 0

    mutant = next(m for m in mutants() if infinity_at_first_place(m))
    exact = []

    def traced(route):
        def recorded(e, k, point):
            if e.descriptor.base is None:
                exact.append(k)
            return route(e, k, point)
        return recorded

    for name in ("_multiple_at_infinity", "scalar_mul"):  # neither exact route runs
        monkeypatch.setattr(curves, name, traced(getattr(curves, name)))
    record = check_record(verify_fixture(mutant))
    assert exact == []
    oracle = exact_order_verdict(mutant)
    assert {k: record[k] for k in oracle} == oracle
    assert not record["passed"]


def test_good_place_primes_of_the_shipped_fixtures():
    # the report pins each certified_mod but not the prime of the place
    # where each order claim is first tested, nor that of the second place,
    # another characteristic, which pins the only order P can have
    primes = {p.name: tuple(q for q, _ in itertools.islice(
                  place_orders(*curve_and_point(load_fixture(p))), 2))
              for p in shipped_fixture_paths()}
    assert primes == {
        "n29_deg10a.json": (29, 31), "n29_deg10b.json": (29, 31), "n29_deg9.json": (23, 29),
        "n31_deg10.json": (43, 79), "n31_deg11a.json": (23, 29), "n31_deg11b.json": (23, 29),
        "n31_deg11c.json": (23, 29), "n31_deg9.json": (23, 53), "n37_deg6.json": (29, 41),
    }


def test_multiples_of_the_marked_point_are_places_over_the_same_field():
    # the paper: "additional places over the same fields can be found by
    # taking multiples of P".  For k prime to N, (E, [k]P) is again a point
    # of X1(N) over K, and [k]P and [-k]P are one place; every shipped N is
    # prime, so k = 1 ... (N - 1)/2 reach every image, and each passes
    # verify.  On j = 0 (n31_deg10) the automorphisms of order 3 identify
    # three images at a time
    distinct = {}
    for path in shipped_fixture_paths():
        f = load_fixture(path)
        e, marked = curve_and_point(f)
        assert tate_normal_form(e, marked) == (f.b, f.c), path.name
        images = {(f.b, f.c)}
        for k in range(2, (f.expected_order - 1) // 2 + 1):
            b, c = tate_normal_form(e, scalar_mul(e, k, marked))
            assert verify_fixture(dataclasses.replace(f, b=b, c=c)).passed, (path.name, k)
            images.add((b, c))
        distinct[path.stem] = len(images)
    assert distinct == {
        "n29_deg10a": 14, "n29_deg10b": 14, "n29_deg9": 14, "n31_deg10": 5,
        "n31_deg11a": 15, "n31_deg11b": 15, "n31_deg11c": 15, "n31_deg9": 15, "n37_deg6": 18,
    }


def test_shipped_fields_of_one_degree_are_not_isomorphic():
    # the paper's "three non-isomorphic number fields": at a prime p where
    # one minpoly is irreducible and the other squarefree, so p unramified
    # and prime to the index of both (Dedekind), p is inert in the first
    # field and not in the second when the other minpoly is reducible
    def squarefree(minpoly, p):  # f' is a unit mod f
        t = FieldDescriptor.prime_field(p, [("t", minpoly)]).gen(0)
        return polys._is_unit(sum((i * v * t ** (i - 1) for i, v in enumerate(minpoly) if i),
                                  t.descriptor.zero()))

    def separates(f, g, p):
        return polys.is_irreducible_mod_p(f, p) and squarefree(g, p) and not (
            polys.is_irreducible_mod_p(g, p))

    fields_by_degree = {}
    for path in shipped_fixture_paths():
        desc = load_fixture(path).b.descriptor
        if len(desc.generators) == 1:
            fields_by_degree.setdefault(desc.dimension, []).append(
                (path.stem, desc.generators[0].minpoly))
    primes = {(a, b): next(p for p in fields.CERTIFY_PRIMES
                           if separates(f, g, p) or separates(g, f, p))
              for same in fields_by_degree.values()
              for (a, f), (b, g) in itertools.combinations(same, 2)}
    assert primes == {
        ("n29_deg10a", "n29_deg10b"): 5, ("n29_deg10a", "n31_deg10"): 11,
        ("n29_deg10b", "n31_deg10"): 5, ("n29_deg9", "n31_deg9"): 3,
        ("n31_deg11a", "n31_deg11b"): 2, ("n31_deg11a", "n31_deg11c"): 2,
        ("n31_deg11b", "n31_deg11c"): 3,
    }


def test_place_walk_builds_no_curve_over_a_finite_field(monkeypatch):
    # a good place is ints mod p: verify builds its curves over Q only
    bases = []
    original = Curve.__post_init__

    def recorded(self):
        bases.append(self.descriptor.base)
        original(self)

    monkeypatch.setattr(Curve, "__post_init__", recorded)
    shipped = [load_fixture(p) for p in shipped_fixture_paths()]
    mutant = perturbed_fixture(shipped[-1], "b", 0, 1)  # n37_deg6, refuted at its first place
    assert [verify_fixture(f).passed for f in shipped + [mutant]] == [True] * 9 + [False]
    assert bases and set(bases) == {None}


def test_verify_checks_only_the_marked_point_on_its_curve(monkeypatch):
    # the sums of the exact [N]P are on the curve by the group law, so
    # Curve.contains runs once per verify, on (0, 0) as it enters
    checked = []
    contains = Curve.contains

    def counted(self, x, y):
        checked.append((x, y))
        return contains(self, x, y)

    monkeypatch.setattr(Curve, "contains", counted)
    for path in shipped_fixture_paths():
        f = load_fixture(path)
        checked.clear()
        assert verify_fixture(f).passed
        zero = f.b.descriptor.zero()
        assert checked == [(zero, zero)], path.name


def test_order_is_exact_without_a_good_place(monkeypatch):
    # t^2 - t - 1 has no root mod 2, 3 or 7, and is irreducible mod 2
    monkeypatch.setattr(fields, "CERTIFY_PRIMES", (2, 3, 7))
    record = minimal_record()
    record["b"] = record["c"] = ["0", "1"]  # b = c = t: (0, 0) has order 5
    f = parse_fixture(record)
    assert next(place_orders(*curve_and_point(f)), None) is None
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
