"""Seeded inputs and output checks for the benchmark workloads.

Every workload is a sequence of rounds.  A round is a fixed mix of
operations, and the seed picks each op's content among choices of equal
cost, so different seeds give different inputs but the same cost mix.
That keeps every seed's medians comparable.

* verify-pass: the nine shipped fixtures, each with every generator g
  re-presented as g + k.  The minimal polynomial becomes f(x - k) and
  coordinates are re-expanded by the binomial theorem, so the claim
  "(0, 0) has exact order N" stays true.  |k| in {1, 2} follows a fixed
  schedule over rounds; the seed picks the sign of each k.
* verify-reject: the nine shipped fixtures, each with one leaf of b or c
  moved by a delta of 1 to 3.  The leaf and |delta| follow a fixed
  schedule over rounds (which leaf, and how far, sets how fast heights
  grow and so the cost); the seed picks the sign.  The claim becomes
  false.
* scan-prime and scan-ext: a fixed list of slots, each one grid F_{p^d}
  and a class of orders that cost the program the same work on it (field
  multiplications within 5%, 10% on the tiny 3^2 grid); the seed picks
  the order in every slot.
  Orders 11 and 13 take the unfiltered-note path, 29, 31 and 37 the
  gonality filter.  Grids are small enough (about 1 s per scan or less)
  that the calibration kernel in run.py samples the machine's speed often.

An operation is one argv for x1torsion.cli.main plus what its output must
be.  Checks never call the program: pass lines are rebuilt from the
fixture, scan hits are re-certified by oracle.py and matched against the
committed scan_table.json.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "src" / "x1torsion" / "data"

SHIFTS = (1, 2)
DELTAS = (1, 2, 3)
# Orders that cost the same number of field multiplications on a grid,
# within 5% on every grid below but 3^2 (10%): [N]P by double-and-add plus
# the re-certification of survivors.
ORDER_CLASSES = {"A": (11, 13), "B": (31, 37), "C": (29,)}
# (p, d, order class).  The slots put a seed-independent cluster at the
# median latency: 29^1 with class A for scan-prime, 2^4 for scan-ext.
PRIME_SLOTS = ((23, 1, "A"), (23, 1, "B"), (29, 1, "A"), (29, 1, "C"), (31, 1, "B"))
EXT_SLOTS = ((2, 3, "B"), (3, 2, "A"), (2, 4, "C"), (2, 4, "B"), (5, 2, "A"))

WORKLOADS = ("verify-pass", "verify-reject", "scan-prime", "scan-ext")


@dataclass(frozen=True)
class Op:
    """One CLI call: argv, work items it covers, and its expected outcome."""

    argv: tuple
    items: int
    kind: str
    expect: object


def shipped_records():
    """The shipped fixture records, sorted by file name."""
    paths = sorted(DATA_DIR.glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no shipped fixtures under {DATA_DIR}")
    return [json.loads(p.read_text(encoding="utf-8")) for p in paths]


def _shift_vector(vec, k):
    """Coefficients in h = g + k of sum vec[e] g^e; entries may be nested."""
    out = []
    for m in range(len(vec)):
        terms = [(comb(e, m) * (-k) ** (e - m), vec[e]) for e in range(m, len(vec))]
        out.append(_lincomb(terms))
    return out


def _lincomb(terms):
    if not isinstance(terms[0][1], list):
        return sum((s * v for s, v in terms), Fraction(0))
    return [_lincomb([(s, v[i]) for s, v in terms]) for i in range(len(terms[0][1]))]


def _shift_array(arr, ks):
    if not ks:
        return arr
    inner = [_shift_array(a, ks[1:]) for a in arr]
    return _shift_vector(inner, ks[0])


def _to_fractions(data):
    if isinstance(data, list):
        return [_to_fractions(v) for v in data]
    return Fraction(data)


def _to_text(data):
    if isinstance(data, list):
        return [_to_text(v) for v in data]
    return str(data)


def _record(src, generators, b, c):
    record = {
        "label": src["label"],
        "N": src["N"],
        "generators": generators,
        "b": _to_text(b),
        "c": _to_text(c),
        "expected_order": src["expected_order"],
    }
    if "gonality" in src:
        record["gonality"] = src["gonality"]
    return record


def shifted_fixture(src, ks):
    """The same curve with generator i re-presented as g_i + ks[i]."""
    generators = [
        {"name": g["name"],
         "minpoly": _to_text(_shift_vector(_to_fractions(g["minpoly"]), k))}
        for g, k in zip(src["generators"], ks)
    ]
    b = _shift_array(_to_fractions(src["b"]), ks)
    c = _shift_array(_to_fractions(src["c"]), ks)
    return _record(src, generators, b, c)


def _leaf_paths(arr, prefix=()):
    if not isinstance(arr, list):
        return [prefix]
    return [p for i, a in enumerate(arr) for p in _leaf_paths(a, prefix + (i,))]


def perturbed_fixture(src, which, path, delta):
    """The fixture with the leaf at `path` of b or c moved by delta."""
    arrays = {"b": _to_fractions(src["b"]), "c": _to_fractions(src["c"])}
    node = arrays[which]
    for i in path[:-1]:
        node = node[i]
    node[path[-1]] += delta
    return _record(src, src["generators"], arrays["b"], arrays["c"])


def fixture_degree(record):
    return prod(len(g["minpoly"]) - 1 for g in record["generators"])


def pass_stdout(record):
    return (f"{record['label']}: PASS (exact order {record['expected_order']}) "
            f"[degree {fixture_degree(record)} < gonality {record['gonality']}]\n"
            "1 passed, 0 failed\n")


def write_fixture(record, path):
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def verify_op(kind, record, path, report):
    write_fixture(record, path)
    argv = ("verify", "--fixtures", str(path), "--report", str(report))
    expect = (record, report) if kind == "pass" else (record["label"], report)
    return Op(argv, 1, kind, expect)


def _scan_op(p, d, n):
    argv = ("scan", "--p", str(p)) + (("--ext", str(d)) if d > 1 else ()) + ("--order", str(n))
    return Op(argv, p ** (2 * d), "scan", (p, d, n))


def make_round(workload, seed, index, records, workdir):
    """The ops of round `index`; verify rounds write their fixture files."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    report = workdir / "report.json"
    ops = []
    if workload == "verify-pass":
        for i, src in enumerate(records):
            ks = [SHIFTS[(index + i + j) % len(SHIFTS)] * rng.choice((-1, 1))
                  for j in range(len(src["generators"]))]
            path = workdir / f"r{index}-{i}.json"
            ops.append(verify_op("pass", shifted_fixture(src, ks), path, report))
    elif workload == "verify-reject":
        for i, src in enumerate(records):
            leaves = [(which, path) for which in "bc" for path in _leaf_paths(src[which])]
            which, path = leaves[(index + i) % len(leaves)]
            delta = DELTAS[(index + i) % len(DELTAS)] * rng.choice((-1, 1))
            record = perturbed_fixture(src, which, path, delta)
            ops.append(verify_op("reject", record, workdir / f"r{index}-{i}.json", report))
    elif workload in ("scan-prime", "scan-ext"):
        for p, d, order_class in PRIME_SLOTS if workload == "scan-prime" else EXT_SLOTS:
            ops.append(_scan_op(p, d, rng.choice(ORDER_CLASSES[order_class])))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def warmup_op(workload, records, workdir):
    """A fixed, seed-independent small op that runs the workload's code path."""
    if workload.startswith("verify"):
        src = records[-1]  # n37_deg6, the cheapest fixture
        ks = [1] * len(src["generators"])
        return verify_op("pass", shifted_fixture(src, ks), workdir / "warmup.json",
                          workdir / "report.json")
    if workload == "scan-prime":
        return _scan_op(7, 1, 5)
    return _scan_op(2, 2, 5)


def all_scan_grids():
    return {(p, d, n) for p, d, order_class in PRIME_SLOTS + EXT_SLOTS
            for n in ORDER_CLASSES[order_class]}


class Checker:
    """Decides whether one op's exit code and output are right."""

    def __init__(self):
        self.table = oracle.load_table()
        self.fields = {}

    def check(self, op, rc, out, err):
        """None when the outcome is right, else a one-line reason."""
        if op.kind == "pass":
            return self._check_pass(op, rc, out)
        if op.kind == "reject":
            return self._check_reject(op, rc, out)
        return self._check_scan(op, rc, out, err)

    @staticmethod
    def _report(path):
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return {"error": str(exc)}

    def _check_pass(self, op, rc, out):
        record, report = op.expect
        if rc != 0:
            return f"exit {rc}, expected 0"
        if out != pass_stdout(record):
            return f"stdout {out!r} is not the PASS line"
        if self._report(report).get("all_passed") is not True:
            return "report does not say all_passed"
        return None

    def _check_reject(self, op, rc, out):
        label, report = op.expect
        if rc != 1:
            return f"exit {rc}, expected 1"
        if not any(line.startswith(f"{label}: FAIL (") for line in out.splitlines()):
            return "no FAIL line"
        if self._report(report).get("all_passed") is not False:
            return "report does not say all_passed false"
        return None

    def _field(self, p, d):
        if (p, d) not in self.fields:
            self.fields[p, d] = oracle.GF(p, d)
        return self.fields[p, d]

    def _check_scan(self, op, rc, out, err):
        p, d, n = op.expect
        if rc != 0:
            return f"exit {rc}, expected 0"
        if out and not out.endswith("\n"):
            return "stdout does not end with a newline"
        F = self._field(p, d)
        lines = out.splitlines()
        keys = []
        for line in lines:
            why = self._check_hit(F, n, line, keys)
            if why:
                return why
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            return "hit lines are not sorted by (b, c)"
        expected = self.table.get(oracle.grid_key(p, d, n))
        if expected is None:
            return f"grid {oracle.grid_key(p, d, n)} missing from scan_table.json"
        if len(lines) != expected["hits"]:
            return f"{len(lines)} hits, expected {expected['hits']}"
        if oracle.digest(out) != expected["sha256"]:
            return "hit lines differ from the table digest"
        err_lines = err.splitlines()
        try:
            summary = json.loads(err_lines[-1])
        except (IndexError, ValueError):
            return "no summary record on stderr"
        if summary.get("pairs_scanned") != p ** (2 * d) or summary.get("hits") != len(lines):
            return f"summary {summary} does not match the scan"
        noted = any(line.startswith("note: no gonality bound") for line in err_lines)
        if noted != (n not in oracle.GONALITY):
            return "unfiltered-output note is wrong"
        return None

    @staticmethod
    def _check_hit(F, n, line, keys):
        try:
            rec = json.loads(line)
        except ValueError:
            return f"hit line is not JSON: {line!r}"
        if not isinstance(rec, dict) or list(rec) != ["p", "d", "b", "c", "order", "place_degree"]:
            return f"hit line has the wrong fields: {line!r}"
        if (rec["p"], rec["d"], rec["order"]) != (F.p, F.d, n):
            return f"hit line for the wrong grid: {line!r}"
        coords = []
        for name in ("b", "c"):
            v = rec[name]
            digits = [v] if F.d == 1 else v
            if not (isinstance(digits, list) and len(digits) == F.d
                    and all(isinstance(s, str) and s.isdigit() and int(s) < F.p for s in digits)):
                return f"malformed {name} in {line!r}"
            coords.append(sum(int(s) * F.p ** i for i, s in enumerate(digits)))
        b, c = coords
        if oracle.hit_line(F, b, c, n, rec["place_degree"]) != line:
            return f"hit line is not in canonical form: {line!r}"
        ok, degree = oracle.certify_hit(F, b, c, n)
        if not ok:
            return f"oracle rejects hit {line!r}"
        if degree != rec["place_degree"]:
            return f"place degree {rec['place_degree']} should be {degree}: {line!r}"
        keys.append((F.sort_key(b), F.sort_key(c)))
        return None
