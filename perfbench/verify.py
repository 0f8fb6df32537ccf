"""Checks of each workload's outputs against ``oracle``'s own computations.

Each function returns a list of error strings; an empty list means every
output agreed.  The corpus is regenerated here from its seed only to read
the cone lists of its objects; every expected value is computed by
``oracle`` from those cone lists, not by kvar.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import List

import oracle
from oracle import LPolyEvaluator, add, measure_json, mul, orbit_sum, parse_kclass

_ID = re.compile(r"^(\w+)\[(\d+)\]")
_SELECTORS = {"euler": "euler", "e": "e_poly", "poincare": "virtual_poincare"}
MAX_ERRORS = 20


def _fan_sum(fan) -> oracle.LPoly:
    return orbit_sum(fan.rank, fan.cones)


def _locus_sum(obj) -> oracle.LPoly:
    locus = obj.locus
    return orbit_sum(locus.fan.rank, locus.cones)


def expected_values(corp, kind: str, i: int):
    """(lhs, rhs) as L-polynomials for a record about corpus objects, or None.

    ``square_relation`` compares classes; the others compare a measure of
    the class.  Kinds without a class-valued lhs/rhs return None.
    """
    if kind == "additivity":
        obj, window = corp.pairs_xu[i]
        rank = obj.fan.rank
        outside = [c for c in obj.fan.cones if c not in window]
        return add(orbit_sum(rank, window), orbit_sum(rank, outside)), _fan_sum(obj.fan)
    if kind == "independence":
        v = _fan_sum(corp.independence[i].obj.fan)
        return v, v
    if kind in ("blowup_descent", "square_relation"):
        sq = corp.squares[i]
        return (add(_fan_sum(sq.base.fan), _locus_sum(sq.E)),
                add(_locus_sum(sq.C), _fan_sum(sq.Y.fan)))
    if kind == "mayer_vietoris":
        obj, win_u, win_v = corp.mv_triples[i]
        rank = obj.fan.rank
        return (add(orbit_sum(rank, win_u & win_v), _fan_sum(obj.fan)),
                add(orbit_sum(rank, win_u), orbit_sum(rank, win_v)))
    if kind == "kunneth":
        a, b = corp.kunneth_pairs[i]
        v = mul(_fan_sum(a.fan), _fan_sum(b.fan))
        return v, v
    if kind == "purity":
        return _fan_sum((corp.rank3 + corp.surfaces)[i].fan), None
    return None


def check_records(corp, records: List[dict]) -> List[str]:
    errors: List[str] = []
    checked = 0
    for rec in records:
        if rec["status"] != "pass":
            errors.append(f"{rec['id']}: status {rec['status']}")
            continue
        m = _ID.match(rec["id"])
        if m is None or m.group(1) != rec["kind"]:
            errors.append(f"{rec['id']}: unexpected record id")
            continue
        expected = expected_values(corp, rec["kind"], int(m.group(2)))
        if expected is None:
            continue
        lhs, rhs = expected
        if rec["kind"] == "square_relation":
            got = (parse_kclass(rec["lhs"]), parse_kclass(rec["rhs"]))
            want = (lhs, rhs)
        elif rec["kind"] == "purity":
            got, want = rec["lhs"], oracle.weights_json(lhs)
        else:
            selector = rec["id"].rsplit(":", 1)[1]
            got = (rec["lhs"], rec["rhs"])
            want = (measure_json(lhs, selector), measure_json(rhs, selector))
        checked += 1
        if got != want:
            errors.append(f"{rec['id']}: got {got}, orbit sums give {want}")
        if len(errors) >= MAX_ERRORS:
            break
    if not checked:
        errors.append("no record could be checked against an orbit sum")
    return errors


def check_report(path: Path, corpus_seed: int, size: int) -> List[str]:
    """Summary, statuses and orbit sums of one `kvar check` JSON report."""
    from kvar import corpus
    with open(path) as fh:
        report = json.load(fh)
    errors = []
    summary = report["summary"]
    if summary.get("fail", 0) or summary.get("skipped", 0):
        errors.append(f"corpus {corpus_seed}: summary {summary}")
    if summary.get("pass", 0) != len(report["records"]):
        errors.append(f"corpus {corpus_seed}: summary does not count every record")
    corp = corpus.generate(corpus_seed, size)
    errors += [f"corpus {corpus_seed}: {e}" for e in check_records(corp, report["records"])]
    return errors


# ---------------------------------------------------------------------------
# eval_relations

def _check_values(where: str, values: list, expected: oracle.LPoly,
                  measure_names: List[str]) -> List[str]:
    want = []
    for name in measure_names:
        if name.startswith("count:"):
            want.append(measure_json(expected, f"point_count:{name[6:]}"))
        else:
            want.append(measure_json(expected, _SELECTORS[name]))
    return [] if values == want else [f"{where}: measures {values}, expected {want}"]


def check_op(rf, outputs: List[dict]) -> List[str]:
    """One operation's outputs against the L-polynomial evaluator."""
    errors: List[str] = []
    on_file = LPolyEvaluator(rf.gens)
    builtins = LPolyEvaluator()
    texts = [(t, on_file) for t in rf.file_exprs] + [(t, builtins) for t in rf.builtin_exprs]
    if len(outputs) != len(texts):
        return [f"{len(outputs)} outputs for {len(texts)} expressions"]
    for n, ((text, ev), out) in enumerate(zip(texts, outputs)):
        where = f"expression {n}"
        expected = ev.evaluate(text)
        if parse_kclass(out["class"]) != expected:
            errors.append(f"{where}: normalize gave {out['class']}, expected {expected}")
        if "g_class" in out and out["g_class"] != out["class"]:
            errors.append(f"{where}: g_map class {out['g_class']} != normalize {out['class']}")
        if ev.evaluate(out["printed"]) != expected:
            errors.append(f"{where}: printed form evaluates to another class")
        errors += _check_values(where, out["values"], expected, rf.measure_names)
    return errors


def check_eval(seed: int, run: dict, again: dict) -> List[str]:
    """First-round outputs, repeat rounds, the other hash seed, the failures."""
    import inputs
    files = inputs.relation_files(seed)
    if len(run["outputs"]) != len(files):
        return [f"{len(run['outputs'])} first-round outputs for {len(files)} files"]
    errors: List[str] = []
    for k, (rf, outputs) in enumerate(zip(files, run["outputs"])):
        errors += [f"file {k}: {e}" for e in check_op(rf, outputs)]
    first = run["digests"][0]
    for r, digests in enumerate(run["digests"][1:], start=2):
        if digests != first:
            errors.append(f"round {r}: outputs differ from round 1")
    if again["digests"][0] != first:
        errors.append("outputs differ under the other PYTHONHASHSEED")
    # the 2,000-clause sums may fail with RecursionError or a typed kvar
    # error; if they succeed, their class must be right
    for name in run["failures"]:
        if name != "builtins.RecursionError" and not name.startswith("kvar."):
            errors.append(f"2,000-clause sum failed with {name}")
    succeeded = [v for digests in run["digests"] for v in digests[len(files):]]
    if succeeded:
        want = LPolyEvaluator().evaluate(inputs.failing_sum())
        if any(parse_kclass(v) != want for v in succeeded):
            errors.append("2,000-clause sum normalized to a wrong class")
    return errors[:MAX_ERRORS]
