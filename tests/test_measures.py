"""Measure values, substitutions, and weight tables."""

import time
import tracemalloc

import pytest

from kvar import toric
from kvar.kring import KClass, RelationSet, normalize
from kvar.measures import (
    MeasureError,
    MeasureSpec,
    MeasureValue,
    UnresolvedGeneratorError,
    apply_measure,
    h_vector,
    registrations_from_json,
    weight_report,
)


def uv(*coeffs):
    return MeasureValue(coeffs, "uv")


def test_value_canonical_form():
    assert MeasureValue([1, 0, 0]).coeffs == (1,)
    assert MeasureValue([0, 0]).var is None
    assert MeasureValue([5], "uv").var is None  # constants carry no variable
    assert uv(0, 1) != MeasureValue([0, 1], "t")


def test_apply_measure_memory_is_linear_in_the_degree():
    cls = normalize("A2000")
    tracemalloc.start()
    try:
        assert apply_measure(MeasureSpec("e_poly"), cls) == MeasureValue([0] * 2000 + [1], "uv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # every power up to (uv)^2000 at once is about 16 MB


def test_the_e_polynomial_of_a_high_projective_space_is_linear_in_its_degree():
    cls = normalize("P20000")
    start = time.process_time()
    value = apply_measure(MeasureSpec("e_poly"), cls)
    spent = time.process_time() - start
    assert value == MeasureValue([1] * 20001, "uv")  # sum of (uv)^k, k = 0..20000
    assert spent < 1.0


@pytest.mark.parametrize("spec", [MeasureSpec("euler"), MeasureSpec("e_poly"),
                                  MeasureSpec("virtual_poincare"),
                                  MeasureSpec("point_count", q=4)])
def test_a_substitution_is_the_sum_of_its_terms_in_value_arithmetic(spec):
    rels = RelationSet()
    rels.declare_generator("S", 2, compact=True)
    rels.declare_generator("T", 1, compact=True)
    cls = normalize("3*A4*S*T - 2*L*S + S*S + 5*A3 - A2 + 7 + A6*T", rels)
    lval = spec.lefschetz_image()
    values = {"S": {"euler": MeasureValue.integer(3), "e_poly": uv(1, 1, 1),
                    "virtual_poincare": MeasureValue([1, 0, 1, 0, 1], "t"),
                    "point_count": MeasureValue.integer(21)},
              "T": {"euler": MeasureValue.integer(2), "e_poly": uv(1, 1),
                    "virtual_poincare": MeasureValue([1, 0, 1], "t"),
                    "point_count": MeasureValue.integer(5)}}
    table = {(name, sel): v for name, by_sel in values.items() for sel, v in by_sel.items()}
    expected = MeasureValue.integer(0)
    for exp, coeff in cls.lpolynomial():
        expected = expected + lval ** exp * MeasureValue.integer(coeff)
    for exp, names, coeff in cls.residual():
        term = lval ** exp * MeasureValue.integer(coeff)
        for name in names:
            term = term * table[(name, spec.selector)]
        expected = expected + term
    assert cls.residual() and apply_measure(spec, cls, table) == expected


@pytest.mark.parametrize("text", ["L*S", "L + S"])
def test_a_substitution_that_mixes_two_variables_is_an_error(text):
    rels = RelationSet()
    rels.declare_generator("S", 2, compact=True)
    table = {("S", "e_poly"): MeasureValue([1, 0, 1], "t")}
    with pytest.raises(MeasureError, match="mixed variables"):
        apply_measure(MeasureSpec("e_poly"), normalize(text, rels), table)


def test_value_arithmetic():
    a, b = uv(1, 2), uv(0, 0, 3)
    assert a + b == uv(1, 2, 3)
    assert a - a == MeasureValue.integer(0)
    assert a * b == uv(0, 0, 3, 6)
    assert uv(0, 1) ** 3 == uv(0, 0, 0, 1)
    with pytest.raises(MeasureError):
        uv(1, 1) + MeasureValue([1, 1], "t")


@pytest.mark.parametrize("base", [MeasureValue.integer(3), uv(1, 2), uv(0, 1), uv(-1, 0, 2)])
def test_power_is_repeated_multiplication(base, monkeypatch):
    expected = MeasureValue.integer(1)
    for n in range(10):
        assert base ** n == expected
        expected = expected * base
    # x^8 is three squarings, with no square of the base left over
    products = []
    mul = MeasureValue.__mul__
    monkeypatch.setattr(MeasureValue, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    base ** 8
    assert len(products) == 4  # the three squarings and one product into 1


def test_apply_measure_examples():
    p2 = normalize("P2")
    assert apply_measure(MeasureSpec("e_poly"), p2) == uv(1, 1, 1)
    assert apply_measure(MeasureSpec("euler"), KClass.zero()) == MeasureValue.integer(0)
    assert apply_measure(MeasureSpec("point_count", q=2), p2).as_int() == 7
    assert apply_measure(MeasureSpec("virtual_poincare"), normalize("P1")) \
        == MeasureValue([1, 0, 1], "t")


def test_point_count_matches_orbit_count():
    fan = toric.builtin_fan("P2")
    for q in (2, 3, 4, 5):
        assert apply_measure(MeasureSpec("point_count", q=q), fan.class_of()).as_int() \
            == fan.orbit_count(q)


def test_e_poly_specializes_to_point_count():
    for name in ("P1", "P2", "P1xP1", "A2", "Gm"):
        cls = toric.builtin_fan(name).class_of()
        e = apply_measure(MeasureSpec("e_poly"), cls)
        for q in (2, 3, 4, 5):
            assert e.substitute_int(q) == \
                apply_measure(MeasureSpec("point_count", q=q), cls).as_int()


def test_measure_spec_validation_and_parse():
    with pytest.raises(MeasureError):
        MeasureSpec("point_count")
    with pytest.raises(MeasureError):
        MeasureSpec("euler", q=3)
    assert MeasureSpec.parse("count:5") == MeasureSpec("point_count", q=5)
    assert MeasureSpec.parse("e").selector == "e_poly"
    with pytest.raises(MeasureError):
        MeasureSpec.parse("count:x")


def test_residual_generators_need_registration():
    rels = RelationSet()
    rels.declare_generator("S", 2, compact=True)
    cls = normalize("S + pt", rels)
    with pytest.raises(UnresolvedGeneratorError):
        apply_measure(MeasureSpec("euler"), cls)
    table = registrations_from_json(
        '[{"generator": "S", "measure": "euler", "value": 3}]')
    assert apply_measure(MeasureSpec("euler"), cls, table).as_int() == 4


def test_registration_values_round_trip():
    table = registrations_from_json(
        '[{"generator": "S", "measure": "e_poly", "value": {"var": "uv", "coeffs": [1, 0, 2]}},'
        ' {"generator": "S", "measure": "euler", "value": {"var": "uv", "coeffs": [3]}}]')
    assert table[("S", "e_poly")] == uv(1, 0, 2)
    assert table[("S", "euler")] == MeasureValue.integer(3)


@pytest.mark.parametrize("records", [
    '[{"generator": "S", "measure": "euler"}]',              # no value
    '[{"measure": "euler", "value": 3}]',                    # no generator
    '[{"generator": "S", "value": 3}]',                      # no measure
    '[{"generator": ["S"], "measure": "euler", "value": 3}]',
    '[{"generator": "S", "measure": "euler", "value": {"coeffs": [1, 2]}}]',  # no var
    '[{"generator": "S", "measure": "euler", "value": {"var": "uv", "coeffs": [1.5]}}]',
    '[{"generator": "S", "measure": "euler", "value": {"var": "uv", "coeffs": [true]}}]',
    '[{"generator": "S", "measure": "euler", "value": {"var": "uv", "coeffs": 2}}]',
    '[{"generator": "S", "measure": "euler", "value": {"var": "uv"}}]',
    '[{"generator": "S", "measure": "euler", "value": "3"}]',
    '[{"generator": "S", "measure": "euler", "value": true}]',
    '["S"]',
    '{"generator": "S", "measure": "euler", "value": 3}',
    '[{"generator": "S"',
])
def test_malformed_registrations_raise_measure_error(records):
    with pytest.raises(MeasureError):
        registrations_from_json(records)


def test_measure_is_ring_homomorphism_random():
    import random

    from kvar.corpus import _random_expression

    rng = random.Random(11)
    spec = MeasureSpec("e_poly")
    for _ in range(50):
        a, b = normalize(_random_expression(rng)), normalize(_random_expression(rng))
        assert apply_measure(spec, a * b) == apply_measure(spec, a) * apply_measure(spec, b)
        assert apply_measure(spec, a + b) == apply_measure(spec, a) + apply_measure(spec, b)


# -- weight tables --------------------------------------------------------------

def test_h_vector_from_face_counts():
    # the fan of P1xP1 has face counts {0: 1, 1: 4, 2: 4}
    assert h_vector({0: 1, 1: 4, 2: 4}, 2) == (1, 2, 1)
    assert h_vector({0: 1, 1: 3, 2: 3}, 2) == (1, 1, 1)  # P2


def test_weight_report_p1xp1():
    fan = toric.builtin_fan("P1xP1")
    value = apply_measure(MeasureSpec("e_poly"), fan.class_of())
    report = weight_report(value, smooth=True, compact=True,
                           face_counts=fan.face_counts(), rank=fan.rank)
    assert report.weights == ((0, 1), (2, 2), (4, 1))
    assert report.purity is True
    assert not report.mixed


def test_weight_report_point():
    report = weight_report(MeasureValue.integer(1), True, True, {0: 1}, 0)
    assert report.weights == ((0, 1),)
    assert report.purity is True


def test_weight_report_gm_mixed_no_verdict():
    value = uv(-1, 1)  # E_c(Gm) = uv - 1
    report = weight_report(value, smooth=True, compact=False)
    assert report.purity is None
    assert report.mixed
    assert report.weights == ((0, -1), (2, 1))


def test_weight_report_detects_wrong_coefficients():
    fan = toric.builtin_fan("P2")
    value = apply_measure(MeasureSpec("e_poly"), fan.class_of()) + uv(0, 1)
    report = weight_report(value, True, True, fan.face_counts(), 2)
    assert report.purity is False
