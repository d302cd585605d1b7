"""Independent finite-field oracle for the scan workloads.

Shares no code with x1torsion: elements of F_q (q = p^d) are ints
0..q-1 whose base-p digits are the coordinates (constant coefficient
first), every field operation is a table lookup, and the order of the
marked point (0, 0) is found by repeated addition alone, never by
double-and-add.  The discriminant comes from the Tate normal form closed
form rather than from the b2..b8 invariants the program uses.

Run as a script to rebuild scan_table.json, the committed table of hit
counts and output digests for every grid in the scan menus:

    python3 bench/oracle.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

TABLE_PATH = Path(__file__).with_name("scan_table.json")

# The gonality bounds the CLI filters by; the scan menus only use place
# degrees far below them, so filtering never drops an oracle hit.
GONALITY = {29: 11, 31: 12, 37: 18}


def _poly_mod(f, g, p):
    """Remainder of f by monic g over F_p; lists constant first."""
    f = list(f)
    dg = len(g) - 1
    for shift in range(len(f) - 1 - dg, -1, -1):
        top = f[shift + dg] % p
        if top:
            for i, gi in enumerate(g):
                f[shift + i] = (f[shift + i] - top * gi) % p
    return [v % p for v in f[:dg]]


def _is_irreducible(f, p):
    """Brute force: no monic divisor of degree 1 .. deg(f)/2."""
    d = len(f) - 1
    for k in range(1, d // 2 + 1):
        for n in range(p ** k):
            g = [(n // p ** i) % p for i in range(k)] + [1]
            if not any(_poly_mod(f, g, p)):
                return False
    return True


def program_modulus(p, d):
    """The defining polynomial the scan uses for F_{p^d}, d > 1.

    The program draws monic candidates from random.Random seeded with
    "irreducible:p:d" and keeps the first irreducible one; the oracle
    repeats the draws and decides irreducibility by its own test.
    """
    rng = random.Random(f"irreducible:{p}:{d}")
    for _ in range(1000):
        f = [rng.randrange(p) for _ in range(d)] + [1]
        if _is_irreducible(f, p):
            return f
    raise ValueError(f"no irreducible of degree {d} over F_{p}")


class GF:
    """F_{p^d} with elements encoded as ints and full operation tables."""

    def __init__(self, p, d):
        self.p, self.d = p, d
        self.q = q = p ** d
        self.modulus = program_modulus(p, d) if d > 1 else [0, 1]
        digits = [[(n // p ** i) % p for i in range(d)] for n in range(q)]
        self.digits = digits
        encode = lambda cs: sum(c * p ** i for i, c in enumerate(cs))
        self.add = [[encode([(x + y) % p for x, y in zip(digits[a], digits[b])])
                     for b in range(q)] for a in range(q)]
        self.neg = [encode([-x % p for x in digits[a]]) for a in range(q)]
        self.mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                prod = [0] * (2 * d - 1)
                for i, x in enumerate(digits[a]):
                    if x:
                        for j, y in enumerate(digits[b]):
                            prod[i + j] += x * y
                v = encode(_poly_mod(prod, self.modulus, p))
                self.mul[a][b] = self.mul[b][a] = v
        self.inv = [None] * q
        for a in range(1, q):
            self.inv[a] = self.mul[a].index(1)

    def const(self, n):
        return n % self.p

    def sub(self, a, b):
        return self.add[a][self.neg[b]]

    def frobenius(self, a):
        r = 1
        for _ in range(self.p):
            r = self.mul[r][a]
        return r

    def text(self, a):
        """The program's text form: bare string over F_p, digit list otherwise."""
        if self.d == 1:
            return str(a)
        return [str(c) for c in self.digits[a]]

    def sort_key(self, a):
        return tuple(self.digits[a])


def tate_disc(F, b, c):
    """disc(E_{b,c}) = b^3 (16 b^2 - 8 b c^2 - 20 b c + b + c (c - 1)^3)."""
    A, M, S, k = F.add, F.mul, F.sub, F.const
    cm1 = S(c, 1)
    cm1_3 = M[M[cm1][cm1]][cm1]
    inner = S(S(M[k(16)][M[b][b]], M[k(8)][M[b][M[c][c]]]), M[k(20)][M[b][c]])
    inner = A[A[inner][b]][M[c][cm1_3]]
    return M[M[M[b][b]][b]][inner]


def _add(F, a1, a2, a3, P, Q):
    """Chord-tangent sum on y^2 + a1 xy + a3 y = x^3 + a2 x^2; None is O."""
    if P is None:
        return Q
    if Q is None:
        return P
    A, M, S = F.add, F.mul, F.sub
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if A[A[A[y1][y2]][M[a1][x2]]][a3] == 0:
            return None
        num = S(A[M[3 % F.p][M[x1][x1]]][M[A[a2][a2]][x1]], M[a1][y1])
        den = A[A[A[y1][y1]][M[a1][x1]]][a3]
    else:
        num, den = S(y2, y1), S(x2, x1)
    lam = M[num][F.inv[den]]
    x3 = S(S(S(A[M[lam][lam]][M[a1][lam]], a2), x1), x2)
    # y3 = -(lam + a1) x3 - (y1 - lam x1) - a3
    y3 = F.neg[A[A[M[A[lam][a1]][x3]][S(y1, M[lam][x1])]][a3]]
    return (x3, y3)


def marked_order(F, b, c, cap):
    """Order of (0, 0) on E_{b,c} by repeated addition; None beyond cap."""
    a1, a2, a3 = F.sub(1, c), F.neg[b], F.neg[b]
    P = (0, 0)
    acc, k = P, 1
    while acc is not None:
        if k >= cap:
            return None
        acc = _add(F, a1, a2, a3, acc, P)
        k += 1
    return k


def place_degree(F, b, c):
    fb, fc = b, c
    for e in range(1, F.d + 1):
        fb, fc = F.frobenius(fb), F.frobenius(fc)
        if fb == b and fc == c:
            return e
    raise AssertionError("Frobenius did not close")


def hit_line(F, b, c, n, e):
    record = {"p": F.p, "d": F.d, "b": F.text(b), "c": F.text(c),
              "order": n, "place_degree": e}
    return json.dumps(record, separators=(", ", ": "))


def certify_hit(F, b, c, n):
    """(ok, place degree): disc != 0 and (0, 0) has exact order n."""
    if tate_disc(F, b, c) == 0:
        return False, None
    return marked_order(F, b, c, n + 1) == n, place_degree(F, b, c)


def scan_lines(F, n):
    """Every hit line of `scan` for order n over F, sorted as the CLI sorts."""
    bound = GONALITY.get(n)
    hits = []
    for b in range(F.q):
        for c in range(F.q):
            if tate_disc(F, b, c) and marked_order(F, b, c, n + 1) == n:
                e = place_degree(F, b, c)
                if bound is None or e < bound:
                    hits.append((F.sort_key(b), F.sort_key(c), b, c, e))
    hits.sort()
    return [hit_line(F, b, c, n, e) for _, _, b, c, e in hits]


def grid_key(p, d, n):
    return f"{p}^{d}:{n}"


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_table(grids):
    table = {}
    for p, d, n in sorted(grids):
        lines = scan_lines(GF(p, d), n)
        text = "".join(line + "\n" for line in lines)
        table[grid_key(p, d, n)] = {"hits": len(lines), "sha256": digest(text)}
    return table


def load_table():
    return json.loads(TABLE_PATH.read_text(encoding="utf-8"))


def main():
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import all_scan_grids

    table = build_table(all_scan_grids())
    TABLE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} grids to {TABLE_PATH.name}")


if __name__ == "__main__":
    main()
