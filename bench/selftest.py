"""Self-test of the benchmark's output checker and input generator.

    python3 bench/selftest.py

Runs one real op per kind and requires the checker to accept it, then
plants wrong outputs (a mutant reported as PASS, altered, dropped and
reordered hit lines, wrong exit codes) and requires the checker to count
each as failed.  Also requires the generator to write the same argv and
fixture bytes twice for one seed.  Exits 0 when every case holds.
"""

from __future__ import annotations

import shutil
import sys

import run
import workloads
from workloads import ROOT, Checker, Op


def generated(workload, seed, workdir):
    """argv lists and file bytes of rounds 0 and 1, paths made relative."""
    workdir.mkdir(parents=True)
    records = workloads.shipped_records()
    ops = [op for i in (0, 1) for op in workloads.make_round(workload, seed, i, records, workdir)]
    argvs = [tuple(a.replace(str(workdir), "<dir>") for a in op.argv) for op in ops]
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return argvs, files


def main():
    sys.path.insert(0, str(run.SRC))
    scratch = ROOT / ".bench_run" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    failures = []

    def expect(cond, what):
        print(f"{'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            failures.append(what)

    try:
        for w in workloads.WORKLOADS:
            first = generated(w, 7, scratch / f"{w}-a")
            second = generated(w, 7, scratch / f"{w}-b")
            other = generated(w, 8, scratch / f"{w}-c")
            expect(first == second, f"{w}: seed 7 generates identical argv and bytes twice")
            expect(first != other, f"{w}: seeds 7 and 8 generate different inputs")

        cli = run.import_cli()
        checker = Checker()
        records = workloads.shipped_records()
        workdir = scratch / "ops"
        workdir.mkdir()
        n37 = records[-1]

        good = workloads.warmup_op("verify-pass", records, workdir)
        rc, out, err = run.run_op(cli, good)[1:]
        expect(checker.check(good, rc, out, err) is None, "real PASS output is accepted")
        expect(checker.check(good, 1, out, err) is not None, "PASS output with exit 1 fails")
        wrong_degree = out.replace("[degree 6 <", "[degree 5 <")
        expect(checker.check(good, rc, wrong_degree, err) is not None,
               "PASS line with a wrong degree fails")

        mutant = workloads.perturbed_fixture(n37, "b", (0, 0), 1)
        bad = workloads.verify_op("reject", mutant, workdir / "mutant.json",
                                   workdir / "report.json")
        rc, out, err = run.run_op(cli, bad)[1:]
        expect(checker.check(bad, rc, out, err) is None, "real FAIL output of a mutant is accepted")
        pass_line = workloads.pass_stdout(mutant)
        good.expect[1].write_text('{"all_passed": true}\n', encoding="utf-8")
        expect(checker.check(bad, 0, pass_line, "") is not None,
               "mutant reported PASS with exit 0 fails")
        expect(checker.check(bad, 1, pass_line, "") is not None,
               "mutant reported PASS with exit 1 fails")

        scan = Op(("scan", "--p", "29", "--order", "11"), 29 * 29, "scan", (29, 1, 11))
        rc, out, err = run.run_op(cli, scan)[1:]
        lines = out.splitlines(keepends=True)
        expect(len(lines) > 2, "scan p=29 N=11 has hits to plant errors in")
        expect(checker.check(scan, rc, out, err) is None, "real scan output is accepted")
        altered = lines[1].replace('"place_degree": 1', '"place_degree": 2')
        cases = {
            "an altered place degree": lines[:1] + [altered] + lines[2:],
            "an altered c coordinate": lines[:1] + [lines[1].replace('"c": "', '"c": "1')] + lines[2:],
            "a dropped hit": lines[:1] + lines[2:],
            "reordered hits": [lines[1], lines[0]] + lines[2:],
            "a duplicated hit": lines + lines[-1:],
        }
        for what, planted in cases.items():
            text = "".join(planted)
            expect(text != out and checker.check(scan, rc, text, err) is not None,
                   f"scan with {what} fails")
        expect(checker.check(scan, 2, out, err) is not None, "scan with exit 2 fails")
        other = Op(scan.argv, scan.items, "scan", (29, 1, 13))
        expect(checker.check(other, rc, out, err) is not None,
               "scan output checked against another order's table entry fails")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(failures)} self-test case(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
