"""Fixture files: number-field curve data with an expected torsion order.

A fixture names a tower of generators by their minimal polynomials,
gives the (b, c) parameters of a Tate curve as nested coordinate arrays
over that tower, and states the order that (0, 0) must have.  Files use
brace/bracket object notation with all rationals as strings.  A Fixture
holds b and c as field elements over one Q descriptor, whose generators
are the tower (f.b.descriptor); the file is parsed once, and written
back from those elements, so loading a shipped file and re-serializing
it reproduces the bytes exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .curves import SingularCurveError, tate_curve, verify_order
from .fields import (
    MAX_ORDER,
    FieldDescriptor,
    ShapeError,
    parse_rational,
    prime_factors,
)
from .polys import certify_irreducible_over_q, generates_field
from .scan import DEFAULT_GONALITIES


class FixtureError(Exception):
    """A fixture file or record that cannot be accepted, with its location."""

    def __init__(self, message, location=None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


@dataclass(frozen=True)
class Fixture:
    """One curve/point/order claim over an explicit number field.

    b and c are FieldElements over one Q descriptor; its generators are
    the fixture's tower.
    """

    label: str
    n: int
    b: object
    c: object
    expected_order: int
    gonality: object = None
    note: object = None

    @property
    def degree(self):
        return self.b.descriptor.dimension


def _require_text(data, location):
    """Reject a leaf of a coordinate array that is not a string; from_coords
    would take a number."""
    if isinstance(data, list):
        for i, v in enumerate(data):
            _require_text(v, f"{location}[{i}]")
    elif not isinstance(data, str):
        raise FixtureError(f"expected rational string, got {type(data).__name__}", location)


def _require_int(value, location):
    if isinstance(value, bool) or not isinstance(value, int):
        raise FixtureError(f"expected an integer, got {value!r}", location)
    return value


def parse_fixture(obj, source=None):
    """The Fixture of a parsed record, its b and c built once over the
    record's tower; all errors carry a location."""
    where = lambda field: f"{source}: {field}" if source else field
    if not isinstance(obj, dict):
        raise FixtureError("fixture must be an object", source)
    known = {"label", "N", "generators", "b", "c", "expected_order", "gonality", "note"}
    for key in obj:
        if key not in known:
            raise FixtureError(f"unknown field {key!r}", source)
    for key in ("label", "N", "generators", "b", "c", "expected_order"):
        if key not in obj:
            raise FixtureError(f"missing field {key!r}", source)
    label = obj["label"]
    if not isinstance(label, str) or not label:
        raise FixtureError("label must be a nonempty string", where("label"))
    n = _require_int(obj["N"], where("N"))
    expected = _require_int(obj["expected_order"], where("expected_order"))
    for key, value in (("N", n), ("expected_order", expected)):
        if value < 1:
            raise FixtureError("orders must be positive", where(key))
        if value >= MAX_ORDER:
            raise FixtureError(f"order {value} is not below 2^32", where(key))
    raw_gens = obj["generators"]
    if not isinstance(raw_gens, list) or not raw_gens:
        raise FixtureError("generators must be a nonempty array", where("generators"))
    generators = []
    seen = set()
    for i, g in enumerate(raw_gens):
        loc = where(f"generators[{i}]")
        if not isinstance(g, dict) or set(g) != {"name", "minpoly"}:
            raise FixtureError("generator needs exactly the fields name, minpoly", loc)
        name = g["name"]
        if not isinstance(name, str) or not name.isidentifier():
            raise FixtureError(f"bad generator name {name!r}", loc)
        if name in seen:
            raise FixtureError(f"duplicate generator name {name!r}", loc)
        seen.add(name)
        if not isinstance(g["minpoly"], list) or len(g["minpoly"]) < 2:
            raise FixtureError("minpoly must list at least two coefficients", f"{loc}.minpoly")
        minpoly = []
        for j, text in enumerate(g["minpoly"]):
            try:
                minpoly.append(parse_rational(text))
            except ValueError as exc:
                raise FixtureError(str(exc), f"{loc}.minpoly[{j}]") from None
        if minpoly[-1] != 1:
            raise FixtureError("minpoly must be monic (leading coefficient 1)", f"{loc}.minpoly")
        generators.append((name, minpoly))
    desc = FieldDescriptor.rationals(generators)
    elements = []
    for key in ("b", "c"):
        _require_text(obj[key], where(key))
        try:
            elements.append(desc.from_coords(obj[key], where=key))
        except ShapeError as exc:
            raise FixtureError(str(exc), source) from None
    b, c = elements
    gonality = obj.get("gonality")
    if gonality is not None:
        gonality = _require_int(gonality, where("gonality"))
        if gonality < 1:
            raise FixtureError("gonality must be positive", where("gonality"))
    note = obj.get("note")
    if note is not None and not isinstance(note, str):
        raise FixtureError("note must be a string", where("note"))
    return Fixture(label, n, b, c, expected, gonality, note)


def load_fixture(path):
    path = Path(path) if isinstance(path, str) else path
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FixtureError(f"cannot read fixture: {exc}", str(path)) from None
    try:
        return parse_fixture(json.loads(text), source=str(path))
    except json.JSONDecodeError as exc:
        raise FixtureError(f"invalid object notation: {exc}", str(path)) from None
    except RecursionError:  # from json.loads, or the leaf walk of parse_fixture
        raise FixtureError("arrays nested too deeply", str(path)) from None


def fixture_record(f):
    """The canonical record form, with stable key order."""
    record = {
        "label": f.label,
        "N": f.n,
        "generators": [
            {"name": g.name, "minpoly": [str(v) for v in g.minpoly]}
            for g in f.b.descriptor.generators
        ],
        "b": f.b.to_text(),
        "c": f.c.to_text(),
        "expected_order": f.expected_order,
    }
    if f.gonality is not None:
        record["gonality"] = f.gonality
    if f.note is not None:
        record["note"] = f.note
    return record


def serialize_fixture(f):
    return json.dumps(fixture_record(f), indent=2) + "\n"


def save_fixture(f, path):
    Path(path).write_text(serialize_fixture(f), encoding="utf-8")


@dataclass(frozen=True)
class FixtureCheck:
    """Everything verify_fixture learned about one fixture."""

    label: str
    degree: int
    cert_primes: tuple
    disc_nonzero: object
    order_certificate: object
    gonality: object
    below_gonality: object
    passed: bool
    reason: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    @property
    def pass_count(self):
        return sum(1 for c in self.checks if c.passed)

    @property
    def fail_count(self):
        return len(self.checks) - self.pass_count

    @property
    def all_passed(self):
        return self.fail_count == 0


def field_certificate(b, c):
    """The first prime p of FieldDescriptor.residues(b, c) at which the
    residue ring A = F_p[gens]/(minpolys mod p) is the field F_{p^d}
    generated by theta = b + lam*c for a small lam >= 0, or None.

    Success (generates_field) means the characteristic polynomial of theta
    over Q is irreducible of degree d, because its reduction mod p is, so
    K = Q[gens]/(minpolys) is a field, Q(b, c) = K has degree d and every
    minpoly is irreducible.  If b and c generate A, each maximal subfield of
    A (one per prime r | d) holds b + lam*c for at most one lam, so one of
    the first 1 + #{r} values of lam generates A when p has that many.
    """
    lams = len(prime_factors(b.descriptor.dimension)) + 1
    for A in b.descriptor.residues(b, c):
        b_bar, c_bar = A.image(b), A.image(c)
        if any(generates_field(b_bar + lam * c_bar) for lam in range(min(A.base, lams))):
            return A.base
    return None


def verify_fixture(f):
    """Certify one fixture: field and degree, gonality, nonsingularity, exact order.

    One inert-prime certificate (field_certificate) proves that K is a
    field, that Q(b, c) = K has the stated degree and that every minpoly is
    irreducible; its prime is every generator's certified_mod.  Without it
    each minpoly is certified alone, to name one that fails; if none does,
    the fixture still fails, after the disc stage, with no degree claim.
    The gonality is DEFAULT_GONALITIES[N], the cited table; a fixture
    stating another value, or any value for an N outside the table, fails.
    The disc and the order are certified by curves.verify_order: good
    places mod p of two characteristics leave P one possible order m, and
    [m]P is the one multiple computed over K.  A certified order other
    than N fails, since the degree bound is gon(X1(N)).
    """
    degree = f.degree
    prime = field_certificate(f.b, f.c)
    certs = tuple((g.name, prime if prime is not None else certify_irreducible_over_q(g.minpoly))
                  for g in f.b.descriptor.generators)
    gonality = DEFAULT_GONALITIES.get(f.n)
    # without the certificate the degree is not certified, so no degree claim is made
    below = None if gonality is None or prime is None else degree < gonality
    uncertified = [name for name, p in certs if p is None]
    if uncertified:
        return FixtureCheck(f.label, degree, certs, None, None, gonality, None, False,
                            f"minpoly of {', '.join(uncertified)} not certified irreducible")
    if f.gonality not in (None, gonality):
        known = gonality or "unknown"
        return FixtureCheck(f.label, degree, certs, None, None, gonality, below, False,
                            f"gonality {f.gonality} disagrees with gon(X1({f.n})) = {known}")
    e = tate_curve(f.b, f.c)
    try:
        if prime is None:
            # no order claim without the field; only the disc stage runs
            if e.is_singular():
                raise SingularCurveError("disc = 0")
            return FixtureCheck(f.label, degree, certs, True, None, gonality, None, False,
                                f"Q(b, c) not certified as a field of degree {degree}")
        zero = f.b.descriptor.zero()
        cert = verify_order(e, e.point(zero, zero), f.expected_order)
    except SingularCurveError:
        return FixtureCheck(f.label, degree, certs, False, None, gonality, below,
                            False, "disc = 0: the curve is singular")
    reason = cert.reason if cert.passed else f"order check failed: {cert.reason}"
    if cert.passed and f.expected_order != f.n:
        reason = f"{reason}, but N = {f.n}"
    return FixtureCheck(f.label, degree, certs, True, cert, gonality, below,
                        cert.passed and f.expected_order == f.n, reason)


def verify_fixtures(fixtures):
    return VerificationReport(tuple(verify_fixture(f) for f in fixtures))


def check_record(check):
    cert = check.order_certificate
    return {
        "label": check.label,
        "degree": check.degree,
        "irreducibility": [
            {"generator": name, "certified_mod": p if p is not None else "not certified"}
            for name, p in check.cert_primes
        ],
        "disc_nonzero": check.disc_nonzero,
        "order": None if cert is None else {
            "target": cert.n,
            "passed": cert.passed,
            "checks": [[k, inf] for k, inf in cert.checks],
            "reason": cert.reason,
        },
        "gonality": check.gonality,
        "below_gonality": check.below_gonality,
        "passed": check.passed,
        "reason": check.reason,
    }


def report_record(report):
    return {
        "fixtures": [check_record(c) for c in report.checks],
        "pass_count": report.pass_count,
        "fail_count": report.fail_count,
        "all_passed": report.all_passed,
    }


def shipped_fixture_paths():
    """The fixture files installed with the package, sorted by file name."""
    root = resources.files("x1torsion").joinpath("data")
    return sorted((p for p in root.iterdir() if p.name.endswith(".json")),
                  key=lambda p: p.name)
