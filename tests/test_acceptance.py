"""Acceptance battery: one check per stated criterion, exact arithmetic.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  The corpus is seeded (seed 1, size 50) and shared across the
criteria; criterion 12 bounds the total wall time.
"""

import json
import subprocess
import sys
import time

import pytest

from kvar import corpus as corpus_mod
from kvar import kring, toric
from kvar.csupport import (
    MeasureOnCompacts,
    PerturbedMeasure,
    additivity_check,
    consistency_check,
    extend_measure,
    independence_check,
)
from kvar.kring import CompactificationTable, KClass, g_map, normalize, verify_square_relation
from kvar.measures import MeasureSpec, apply_measure, h_vector, weight_report
from kvar.spansite import (
    ToricObject,
    check_c_complete,
    check_dim_compatible,
    enumerate_simple_covers,
    star_subdivision_square,
)

SEED, SIZE = 1, 50

_times = {}


def _record(criterion, started, detail):
    elapsed = time.perf_counter() - started
    _times[criterion] = elapsed
    print(f"criterion {criterion:>2} PASS  ({elapsed:6.2f} s)  {detail}")


@pytest.fixture(scope="module")
def corpus():
    t0 = time.perf_counter()
    corp = corpus_mod.generate(SEED, SIZE)
    _times["corpus"] = time.perf_counter() - t0
    return corp


def test_criterion_01_localization_additivity(corpus):
    t0 = time.perf_counter()
    measures = [MeasureOnCompacts(MeasureSpec("euler")), MeasureOnCompacts(MeasureSpec("e_poly"))]
    measures += [MeasureOnCompacts(MeasureSpec("point_count", q=q)) for q in (2, 3, 5)]
    assert len(corpus.pairs_xu) >= 200
    for obj, window in corpus.pairs_xu:
        for phi in measures:
            report = additivity_check(phi, obj, window)
            assert report.status == "pass", \
                f"{obj.name} {phi.name}: {report.lhs} != {report.rhs}"
    _record(1, t0, f"{len(corpus.pairs_xu)} (X, U) pairs x {len(measures)} measures, exact")


def test_criterion_02_compactification_independence(corpus):
    t0 = time.perf_counter()
    measures = [MeasureOnCompacts(MeasureSpec(s)) for s in ("euler", "e_poly", "virtual_poincare")]
    measures.append(MeasureOnCompacts(MeasureSpec("point_count", q=2)))
    assert len(corpus.independence) >= 50
    for u_obj, comp_a, comp_b in corpus.independence:
        assert comp_a != comp_b
        for phi in measures:
            report = independence_check(phi, u_obj, comp_a, comp_b)
            assert report.status == "pass", f"{u_obj.name} {phi.name}"
    _record(2, t0, f"{len(corpus.independence)} opens x two completions x "
                   f"{len(measures)} measures")


def test_criterion_03_abstract_blowup_relation(corpus):
    t0 = time.perf_counter()
    assert len(corpus.squares) >= 50
    for sq in corpus.squares:
        cls = sq.corner_classes()
        report = verify_square_relation(cls["upper_left"], cls["upper_right"],
                                        cls["lower_left"], cls["base"])
        assert report.ok
    # the worked instance (E, Y, C, X) = (P1, F1, pt, P2), both sides L^2+2L+2
    sq = star_subdivision_square(ToricObject("P2", toric.builtin_fan("P2")), (1, 1))
    cls = sq.corner_classes()
    report = verify_square_relation(cls["upper_left"], cls["upper_right"],
                                    cls["lower_left"], cls["base"])
    expected = KClass.from_int(2) + KClass.lefschetz().scale(2) + KClass.lefschetz(2)
    assert report.ok and report.lhs == expected
    _record(3, t0, f"{len(corpus.squares)} star-subdivision squares + (P1, F1, pt, P2)")


def test_criterion_04_presentation_round_trip(corpus):
    t0 = time.perf_counter()
    table = CompactificationTable()
    assert len(corpus.expressions) >= 100
    for text in corpus.expressions:
        direct = normalize(text)
        through_g = g_map(text, table)
        assert through_g.kclass == direct            # f(g(e)) = e on canonical forms
        again = g_map(through_g.compact_expr, table)  # g is the identity on compacts
        assert again.kclass == direct
        assert again.compact_expr == through_g.compact_expr
    assert g_map("A1", table).kclass == KClass.lefschetz()
    _record(4, t0, f"{len(corpus.expressions)} expressions; g([A1]) = L")


def test_criterion_05_point_count_oracle(corpus):
    t0 = time.perf_counter()
    fans = corpus.all_fans()
    spec = MeasureSpec("e_poly")
    for fan in fans:
        e = apply_measure(spec, fan.class_of())
        for q in (2, 3, 4, 5):
            assert e.substitute_int(q) == fan.orbit_count(q)
    _record(5, t0, f"{len(fans)} fans x q in (2,3,4,5), two independent routes")


def test_criterion_06_kunneth(corpus):
    t0 = time.perf_counter()
    phi = MeasureOnCompacts(MeasureSpec("e_poly"))
    assert len(corpus.kunneth_pairs) >= 100
    for a, b in corpus.kunneth_pairs:
        report = consistency_check("kunneth", phi, (a, b))
        assert report.status == "pass", f"{a.name} x {b.name}"
    _record(6, t0, f"{len(corpus.kunneth_pairs)} product pairs, E-polynomial")


def test_criterion_07_mayer_vietoris(corpus):
    t0 = time.perf_counter()
    assert len(corpus.mv_triples) >= 50
    for phi in (MeasureOnCompacts(MeasureSpec(s)) for s in ("euler", "e_poly")):
        for x_obj, win_u, win_v in corpus.mv_triples:
            report = consistency_check("mayer_vietoris", phi,
                                       (x_obj, win_u, win_v))
            assert report.status == "pass"
    _record(7, t0, f"{len(corpus.mv_triples)} triples X = U u V")


def test_criterion_08_simple_covers_c_complete(corpus):
    t0 = time.perf_counter()
    found = 0
    for sq, f in corpus.c_complete_cases:
        verdict = check_c_complete(sq, f, depth=3)
        assert verdict.found, f"{sq} <- {f}: {verdict.note}"
        if verdict.cover is not None:
            assert verdict.cover.depth() <= 3
        found += 1
    bases = sorted({sq.base.name: sq.base for sq in corpus.squares}.values(),
                   key=lambda o: o.name)
    for obj in bases:
        keys = []
        for depth in range(4):
            covers = enumerate_simple_covers(corpus.site, obj, depth)
            keys.append({c.key() for c in covers})
        assert all(a <= b for a, b in zip(keys, keys[1:]))
    _record(8, t0, f"{found} pulled-back sieves found covers at depth <= 3; "
                   f"monotone enumeration on {len(bases)} bases")


def test_criterion_09_dimension_compatibility(corpus):
    t0 = time.perf_counter()
    squares = corpus.squares + corpus.loc_squares
    for sq in squares:
        verdict = check_dim_compatible(sq)
        assert verdict.kind in ("direct", "refined"), verdict.note
    _record(9, t0, f"{len(squares)} squares, no fail verdicts")


def test_criterion_10_weight_purity(corpus):
    t0 = time.perf_counter()
    phi = MeasureOnCompacts(MeasureSpec("e_poly"))
    objs = [o for o in corpus.rank3 + corpus.surfaces
            if o.fan.rank <= 3 and o.smooth and o.complete]
    assert objs
    for obj in objs:
        value = extend_measure(phi, obj)
        report = weight_report(value, obj.smooth, obj.is_compact(),
                               obj.fan.face_counts(), obj.fan.rank)
        assert report.purity is True, f"{obj.name}: {report.note}"
        hv = h_vector(obj.fan.face_counts(), obj.fan.rank)
        assert tuple(value.coefficient(k) for k in range(obj.fan.rank + 1)) == hv
    _record(10, t0, f"{len(objs)} smooth complete fans of rank <= 3 match h-vectors")


def test_criterion_11_mutation_sensitivity(corpus):
    t0 = time.perf_counter()
    clean = MeasureOnCompacts(MeasureSpec("e_poly"))
    broken = PerturbedMeasure(clean, toric.builtin_fan("P2"))
    # a criterion-2 run: two completions of A2, one of them P2
    a2 = ToricObject("A2", toric.builtin_fan("A2"))
    ca, cb = toric.builtin_fan("P2"), toric.builtin_fan("P1xP1")
    assert independence_check(clean, a2, ca, cb).status == "pass"
    assert independence_check(broken, a2, ca, cb).status == "fail"
    # criterion-3 runs: every corpus square based on the P2 fan
    p2_squares = [sq for sq in corpus.squares
                  if sq.base.fan == toric.builtin_fan("P2")]
    assert p2_squares, "the corpus always contains squares over P2 itself"
    for sq in p2_squares:
        assert consistency_check("blowup_descent", clean, sq).status == "pass"
        assert consistency_check("blowup_descent", broken, sq).status == "fail"
    _record(11, t0, f"perturbed measure detected on independence and "
                    f"{len(p2_squares)} descent runs")


def test_criterion_12_performance_and_determinism(tmp_path, corpus, cli_child_env):
    t0 = time.perf_counter()
    # normalize an expression of at least 10^4 nodes in under a second
    term = "(P2 - L*Gm + pt*A2 - 2)"            # 12 nodes per clause
    big = " + ".join([term] * 1200)              # > 10^4 nodes including the sum
    expr = kring.parse_expr(big)
    assert kring.expr_size(expr) >= 10 ** 4
    started = time.perf_counter()
    value = normalize(expr)
    normalize_seconds = time.perf_counter() - started
    assert value == normalize(term).scale(1200)
    assert normalize_seconds < 1.0, f"normalize took {normalize_seconds:.3f} s"

    # byte-identical JSON reports across two identically seeded runs
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for out, hashseed in ((out_a, "0"), (out_b, "99")):
        subprocess.run(
            [sys.executable, "-m", "kvar.cli", "check", "--corpus-seed", str(SEED),
             "--corpus-size", "10", "--format", "json", "--out", str(out)],
            check=True, env=cli_child_env(hashseed))
    assert out_a.read_bytes() == out_b.read_bytes()
    assert json.loads(out_a.read_text())["summary"]["fail"] == 0

    # the whole acceptance corpus stays under a minute
    total = sum(_times.values()) + (time.perf_counter() - t0)
    assert _times.get(1, 0.0) < 30.0, "additivity within 30 s"
    assert total < 60.0, f"acceptance total {total:.1f} s"
    _record(12, t0, f"normalize {kring.expr_size(expr)} nodes in "
                    f"{normalize_seconds * 1000:.0f} ms; total {total:.1f} s")
