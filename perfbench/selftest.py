"""Fast self-test of the benchmark: every workload at tiny sizes, plus negatives.

    python3 perfbench/selftest.py

Runs the check path (worker child processes, byte-identity, orbit sums,
tracing) on size-2 corpora and the eval path in this process on small
relation files, then perturbs one value of each kind of output and
requires the independent checks to reject it.  It also checks the host
clock's arithmetic on made-up probe samples.  Takes about half a minute
and exits 0 when every part behaves.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import hostclock  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def tiny_sizes() -> None:
    inputs.CHECK_SIZES.update(check_small=2, check_large=3)
    inputs.CHECK_CORPORA.update(check_small=2, check_large=1)
    inputs.TOWER_LENGTHS = (4, 3, 2)
    inputs.OPENS = 3
    inputs.CLAUSES = 30
    inputs.FILES_PER_ROUND = 2


def test_hostclock() -> None:
    clock = hostclock.HostClock()
    ref = hostclock.REFERENCE_PROBE_S
    clock.samples = [2 * ref, 2 * ref, 4 * ref, 4 * ref]
    clock.ends = [1.0, 2.0, 3.0, 4.0]
    # a span from 1.5 to 2.5 holds the probe that ended at 2.0, and its
    # neighbourhood holds only that one; the span ending at 10 is judged
    # by the last probe
    got = clock.calibrate([(2.5, 1.0), (10.0, 0.5)])
    want = [(1.0 - 2 * ref) / 2, 0.5 / 4]
    expect(all(abs(g - w) < 1e-12 for g, w in zip(got, want)),
           f"host clock: spans lose their probe time and scale by nearby probes {got}")
    start = hostclock.Mark(0.5, 0.0, 0)
    end = hostclock.Mark(4.5, 12 * ref, 4)
    expect(abs(clock.seconds(start, end) - (4.0 - 12 * ref) / 3) < 1e-12,
           "host clock: a window scales by its mean probe")


def test_check_workloads() -> None:
    for name in ("check_small", "check_large"):
        for trace in (False, True):
            res = run.check_workload(name, seed=5, seconds=0, trace=trace)
            n = len(res["detail"]["batteries"])
            expect(not res["errors"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{name} trace={int(trace)}: {n} batteries, {res['attempted']} "
                   f"records, errors {res['errors'][:2]}")
            if name == "check_small" and not trace:
                # time for about three rounds: the run makes a second one
                round_s = sum(b["verdict_s"] for b in res["detail"]["batteries"])
                res = run.check_workload(name, seed=5, seconds=3 * round_s, trace=False)
                n = len(res["detail"]["batteries"])
                expect(not res["errors"] and n > 3,
                       f"check_small repeats its round: {n} batteries, "
                       f"errors {res['errors'][:2]}")
            if trace:
                layers = res["layers"]
                expect(layers["csupport.extend_measure.calls"] > 0
                       and layers["check.additivity.s"] > 0
                       and layers["cli.report_bytes"] > 0,
                       f"{name}: traced battery reports per-layer work")


def test_check_negative() -> None:
    from kvar import corpus
    seed, size = inputs.corpus_seeds("check_small", 5)[0], inputs.CHECK_SIZES["check_small"]
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / "selftest-report.json"
    run.spawn(["check", seed, size, path, 0], 0)
    report = json.loads(path.read_text())
    path.unlink()
    corp = corpus.generate(seed, size)
    records = report["records"]
    expect(not verify.check_records(corp, records), "unperturbed report passes")

    def perturbed(kind: str, field: str, change) -> list:
        recs = copy.deepcopy(records)
        rec = next(r for r in recs if r["kind"] == kind)
        rec[field] = change(rec[field])
        return verify.check_records(corp, recs)

    def bump(value):
        if isinstance(value, int):
            return value + 1
        return dict(value, coeffs=[value["coeffs"][0] + 1] + value["coeffs"][1:])

    expect(bool(perturbed("additivity", "rhs", bump)), "perturbed additivity rhs fails")
    expect(bool(perturbed("kunneth", "lhs", bump)), "perturbed Kunneth product fails")
    expect(bool(perturbed("square_relation", "lhs", lambda s: s + " + L^5")),
           "perturbed square-relation class fails")
    expect(bool(perturbed("mayer_vietoris", "status", lambda s: "fail")),
           "a failed record fails")


def test_eval() -> None:
    files = inputs.relation_files(7)
    failing = inputs.failing_sum()
    result = worker.eval_rounds(files, failing, seconds=0, trace=True, rounds=2)
    again = worker.eval_rounds(files, failing, seconds=0, trace=False, rounds=1)
    errors = verify.check_eval(7, result, again)
    expect(not errors, f"eval_relations: {result['completed']} completed, errors {errors[:2]}")
    expect(result["failed"] == 2 * inputs.FAILING_PER_ROUND
           and result["failures"] == ["builtins.RecursionError"],
           "each round's 2,000-clause sum raises RecursionError")
    expect(result["layers"]["kring.normalize.cold_s"] > 0
           and result["layers"]["kring.normalize.calls"] > 0,
           "traced eval rounds report kring work")

    bad = copy.deepcopy(result)
    bad["outputs"][0][0]["values"][0] += 1
    expect(bool(verify.check_eval(7, bad, again)), "perturbed Euler value fails")
    bad = copy.deepcopy(result)
    bad["outputs"][1][-1]["g_class"] += " + 1"
    expect(bool(verify.check_eval(7, bad, again)), "g_map class unlike normalize fails")
    bad = copy.deepcopy(result)
    bad["digests"][1][0] = "0" * 64
    expect(bool(verify.check_eval(7, bad, again)), "a round with other outputs fails")


def main() -> int:
    tiny_sizes()
    test_hostclock()
    test_check_workloads()
    test_check_negative()
    test_eval()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
