"""The compactly supported extension and its well-definedness checks."""

import json
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

from kvar import cli, corpus, csupport, kring, toric
from kvar.csupport import (
    CSupportError,
    MeasureDomainError,
    MeasureOnCompacts,
    PerturbedMeasure,
    additivity_check,
    compact_terms,
    consistency_check,
    extend_measure,
    independence_check,
    oracle_value,
    verdict,
)
from kvar.measures import MeasureSpec, MeasureValue, apply_measure
from kvar.spansite import (ToricLocusObject, ToricObject, localization_square,
                            star_subdivision_square)
from kvar.toric import Fan, ToricLocus, builtin_fan, complete_surface


def uv(*coeffs):
    return MeasureValue(coeffs, "uv")


def _bounded(terms, o):
    """Every term compact, and at most 2 * dim + 1 of them."""
    return len(terms) <= 2 * o.dim + 1 and all(k.is_compact() for _, k in terms)


def measure(selector, **params):
    return MeasureOnCompacts(MeasureSpec(selector, **params))


def obj(name):
    return ToricObject(name, builtin_fan(name))


# -- extension values -----------------------------------------------------------

def test_euler_of_affine_line():
    a1 = obj("A1")
    assert extend_measure(measure("euler"), a1).as_int() == 1  # 2 - 1 through (P1, pt)
    assert _bounded(compact_terms(a1), a1)


def test_compact_objects_pass_through():
    assert extend_measure(measure("e_poly"), obj("P2")) == uv(1, 1, 1)
    assert compact_terms(obj("P2")) == ((1, builtin_fan("P2")),)


def test_e_poly_of_gm_and_a2():
    assert extend_measure(measure("e_poly"), obj("Gm")) == uv(-1, 1)
    assert extend_measure(measure("e_poly"), obj("A2")) == uv(0, 0, 1)


def test_extension_of_empty_is_zero():
    empty = ToricObject("nothing", Fan(2, []))
    assert extend_measure(measure("euler"), empty).as_int() == 0


def test_terms_are_compact_and_bounded():
    torus3 = ToricObject("T3", builtin_fan("Gm").product(builtin_fan("Gm"))
                         .product(builtin_fan("Gm")))
    assert extend_measure(measure("e_poly"), torus3) == uv(-1, 3, -3, 1)  # (uv - 1)^3
    assert _bounded(compact_terms(torus3), torus3)


def test_oracle_agreement_dual_route():
    for name in ("A1", "A2", "Gm", "P2", "P1xP1"):
        o = obj(name)
        for phi in (measure("euler"), measure("e_poly"),
                    measure("virtual_poincare"), measure("point_count", q=3)):
            assert extend_measure(phi, o) == oracle_value(phi, o)


def test_locus_extension_orbitwise():
    p2 = builtin_fan("P2")
    boundary = ToricLocusObject("bd", ToricLocus(
        p2, [c for c in p2.cones if c.dim > 0]))
    value = extend_measure(measure("e_poly"), boundary)
    assert value == uv(0, 3)  # class 3L


# Extends the locus of P2's cones of dimension at most 1 twice, then the
# locus of its rays, under sys.setprofile, and prints how often the body of
# toric._gap_filled ran for each rank.
TORI_CHILD = """
import sys
from collections import Counter
from kvar import csupport, toric
from kvar.measures import MeasureSpec
from kvar.spansite import ToricLocusObject
body = toric._gap_filled.__wrapped__.__code__
computed = Counter()
def note(frame, event, arg):
    if event == "call" and frame.f_code is body:
        computed[frame.f_locals["fan"].rank] += 1
p2 = toric.builtin_fan("P2")
phi = csupport.MeasureOnCompacts(MeasureSpec("euler"))
sys.setprofile(note)
for dims in ((0, 1), (0, 1), (1,)):
    locus = toric.ToricLocus(p2, [c for c in p2.cones if c.dim in dims])
    csupport.extend_measure(phi, ToricLocusObject("L", locus))
sys.setprofile(None)
print(sorted(computed.items()))
"""


def test_each_torus_of_a_fan_s_loci_is_completed_once(cli_child_env):
    # the terms of a torus are kept on the ambient fan of the locus: a
    # torus built anew for each locus, and dropped, shows here as a second
    # completion.  A child process starts with no torus alive.
    proc = subprocess.run([sys.executable, "-c", TORI_CHILD], capture_output=True,
                          text=True, env=cli_child_env("0"), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[(1, 1), (2, 1)]\n", "")


# Extends the torus orbit of P1 in P1 with the garbage collector off, drops
# it, and prints what the collector then finds.
TORUS_CYCLE_CHILD = """
import gc
from kvar import csupport, toric
from kvar.measures import MeasureSpec
from kvar.spansite import ToricLocusObject
gc.disable()
p1 = toric.builtin_fan("P1")
locus = toric.ToricLocus(p1, [c for c in p1.cones if c.dim == 0])
csupport.extend_measure(csupport.MeasureOnCompacts(MeasureSpec("euler")),
                        ToricLocusObject("T", locus))
del p1, locus
print(gc.collect())
"""


def test_the_terms_of_a_torus_make_no_reference_cycle(cli_child_env):
    # while the terms were kept on the locus's ambient fan, here the torus's
    # own completion, they held that fan, and the collector found objects
    proc = subprocess.run([sys.executable, "-c", TORUS_CYCLE_CHILD], capture_output=True,
                          text=True, env=cli_child_env("0"), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_non_closed_loci_decompose_into_tori():
    # neither closed nor compact: the value is a sum over torus orbits
    loci = []
    for name in ("A2", "P2", "P1xP1"):
        fan = builtin_fan(name)
        loci.append(ToricLocus(fan, [c for c in fan.cones if c.dim == 0]))
    p2 = builtin_fan("P2")
    loci.append(ToricLocus(p2, [c for c in p2.cones if c.dim == 1]))
    for i, locus in enumerate(loci):
        o = ToricLocusObject(f"locus{i}", locus)
        assert not locus.is_closed() and not o.is_compact()
        for phi in (measure("euler"), measure("e_poly"),
                    measure("virtual_poincare"), measure("point_count", q=3)):
            assert extend_measure(phi, o) == oracle_value(phi, o)
            assert _bounded(compact_terms(o), o)
    torus = ToricLocusObject("T", loci[0])
    assert str(extend_measure(measure("e_poly"), torus)) \
        == "1 - 2*(uv) + (uv)^2"


def test_missing_completion_is_an_error():
    # one class for every missing compactification: a g_map table entry and
    # a rank-4 completion
    rels = kring.RelationSet()
    rels.declare_generator("U", 2)
    rank4 = ToricObject("X4", builtin_fan("A2").product(builtin_fan("A2")))
    raise_sites = (
        lambda: kring.g_map("U", kring.CompactificationTable(), rels),
        lambda: extend_measure(measure("euler"), rank4),
        lambda: complete_surface(rank4.fan),
    )
    for raise_site in raise_sites:
        with pytest.raises(kring.MissingCompactificationError):
            raise_site()


def test_an_explicit_choice_enables_rank4():
    a2 = builtin_fan("A2")
    p2 = builtin_fan("P2")
    rank4 = ToricObject("A2xA2", a2.product(a2))
    value = extend_measure(measure("e_poly"), rank4, p2.product(p2))
    assert value == uv(0, 0, 0, 0, 1)  # (uv)^4


def test_a_malformed_completion_is_an_error_on_every_call():
    # the terms of an open are kept on its fan, and an error is not kept:
    # a rejected completion is rejected again, and leaves the open able to
    # extend through a valid one
    p2 = builtin_fan("P2")
    u_obj = ToricObject("P2-pt", p2.subfan(p2.cones - {p2.maximal_cones[0]}))
    phi = measure("e_poly")
    for _ in range(2):
        for completion, match in ((builtin_fan("A2"), "not complete"),
                                  (builtin_fan("P1xP1"), "does not contain the fan")):
            with pytest.raises(kring.MissingCompactificationError, match=match):
                compact_terms(u_obj, completion)
            with pytest.raises(kring.MissingCompactificationError, match=match):
                extend_measure(phi, u_obj, completion)
    assert compact_terms(u_obj, p2) == (
        (1, p2), (-1, ToricLocus(p2, [p2.maximal_cones[0]])))
    assert extend_measure(phi, u_obj, p2) == extend_measure(phi, u_obj) \
        == oracle_value(phi, u_obj) == uv(0, 1, 1)


def test_memoized_extensions_match_the_oracle():
    corp = corpus.generate(1, 10)
    objects = list(corp.surfaces) + list(corp.rank3)
    for sq in corp.squares + corp.loc_squares:
        objects.extend((sq.E, sq.Y, sq.C, sq.base))
    objects.extend(ToricObject(f"{x.name}|U", x.fan.subfan(w)) for x, w in corp.pairs_xu)
    objects.extend(ToricLocusObject("complement", ToricLocus(
        x.fan, [c for c in x.fan.cones if c not in w])) for x, w in corp.pairs_xu)
    for a, b in corp.kunneth_pairs:
        objects.extend((a, b))
    phis = [measure(s) for s in ("euler", "e_poly", "virtual_poincare")]
    for o in objects:
        for phi in phis:
            memoized = extend_measure(phi, o)
            assert memoized == oracle_value(phi, o)
            assert extend_measure(phi, o) == memoized


def test_extension_traces_are_pinned():
    # a non-closed locus decomposes into tori, (P1)^k less its boundary per
    # torus dimension k, times the number of orbits of that dimension
    p2 = builtin_fan("P2")
    locus = ToricLocusObject("L", ToricLocus(p2, [c for c in p2.cones if c.dim <= 1]))
    assert str(extend_measure(measure("e_poly"), locus)) == "-2 + (uv) + (uv)^2"
    terms = compact_terms(locus)
    square, line = builtin_fan("P1xP1"), builtin_fan("P1")
    assert terms == (
        (1, square), (-1, ToricLocus(square, [c for c in square.cones if c.dim > 0])),
        (3, line), (-3, ToricLocus(line, [c for c in line.cones if c.dim > 0])))
    assert len(terms[1][1].cones) == 8


def test_each_open_has_one_automatic_completion():
    # the corpus, the extension of an additivity open and a Kunneth factor
    # all take the completion that toric.complete_surface keeps on the fan
    corp = corpus.generate(1, 50)
    assert corp.independence
    for u_obj, completion, _ in corp.independence:
        assert completion is complete_surface(u_obj.fan)
    opens = [ToricObject(f"{x.name}|U", x.fan.subfan(w)) for x, w in corp.pairs_xu if w]
    factors = [o for pair in corp.kunneth_pairs for o in pair if not o.fan.is_complete()]
    assert factors and any(not o.fan.is_complete() for o in opens)
    for o in opens + factors:
        assert compact_terms(o)[0][1] is complete_surface(o.fan)


def test_an_explicit_choice_overrides_the_automatic_completion():
    a2 = builtin_fan("A2")
    first = complete_surface(a2)
    assert complete_surface(a2) is first
    assert first == builtin_fan("P2")
    # the perturbation shifts the value through P2, not through P1xP1
    phi = PerturbedMeasure(measure("e_poly"), builtin_fan("P2"))
    a2_obj = ToricObject("A2", a2)
    through_p2 = extend_measure(phi, a2_obj)
    quadric = builtin_fan("P1xP1")
    through_p1xp1 = extend_measure(phi, a2_obj, quadric)
    assert through_p1xp1 == uv(0, 0, 1) != through_p2
    assert through_p1xp1 == extend_measure(phi, a2_obj, quadric)
    # the choice leaves the automatic completion as it was
    assert complete_surface(a2) is first
    assert extend_measure(phi, a2_obj) == through_p2


def test_locus_extension_is_free_of_the_object_name():
    # two names over one locus: equal values and terms
    p2 = builtin_fan("P2")
    torus = ToricLocus(p2, [c for c in p2.cones if c.dim == 0])
    phi = measure("e_poly")
    first = extend_measure(phi, ToricLocusObject("T", torus))
    second = extend_measure(phi, ToricLocusObject("open torus", torus))
    assert second == first
    assert compact_terms(ToricLocusObject("open torus", torus)) \
        == compact_terms(ToricLocusObject("T", torus)) != ()
    assert second == extend_measure(phi, ToricLocusObject("open torus", torus))


def test_one_fan_under_two_names_extends_alike():
    a2 = builtin_fan("A2")
    phi = measure("e_poly")
    first = extend_measure(phi, ToricObject("A2", a2))
    plane = ToricObject("plane", a2)
    second = extend_measure(phi, plane)
    assert second == first == uv(0, 0, 1)
    p2 = builtin_fan("P2")
    assert compact_terms(plane) == compact_terms(ToricObject("A2", a2)) == (
        (1, p2), (-1, ToricLocus(p2, [c for c in p2.cones if not a2.contains_cone(c)])))
    assert second == extend_measure(phi, plane)


def test_each_extension_of_the_battery_is_its_class_in_k0(monkeypatch):
    # every object and choice that the battery extends: additivity opens and
    # complements, independence choices, square corners, Mayer-Vietoris
    # opens, Kunneth factors and products.  Its terms are compact and sum to
    # its class, so Phi_c agrees with the oracle for every measure that
    # factors through K0(Var), not only the ones the battery runs.
    extended = {}

    def record(phi, obj, completion=None):
        extended[obj.geometry, completion] = obj, completion
        return extend_measure(phi, obj, completion)

    monkeypatch.setattr(csupport, "extend_measure", record)
    monkeypatch.setattr(cli, "extend_measure", record)
    cli.run_corpus_checks(cli.Report({}), 1, 50, ["e"])
    assert {type(o) for o, _ in extended.values()} == {ToricObject, ToricLocusObject}
    assert any(completion is not None for _, completion in extended.values())
    for o, completion in extended.values():
        terms = compact_terms(o, completion)
        assert _bounded(terms, o)
        total = kring.KClass.zero()
        for c, k in terms:
            total = total + (k.class_of() if isinstance(k, Fan) else k.kclass()).scale(c)
        assert total == o.kclass()


class _FormalMeasure(MeasureOnCompacts):
    """Each compact geometry its own basis vector t^i: a check's lhs - rhs is
    then the combination of compact objects it tests, merged by geometry."""

    multiplicative = False

    def __init__(self):
        super().__init__(MeasureSpec("e_poly"))
        self.basis = {}

    def on_compact(self, obj):
        i = self.basis.setdefault(obj.geometry, len(self.basis) + 1)
        return MeasureValue([0] * i + [1], "t")


def _fan_coefficients(kind, args):
    """The merged coefficient of each compact fan in a measure record's
    lhs - rhs; ``args`` are the check's arguments after its measure."""
    formal = _FormalMeasure()
    result = cli.CHECKS[kind](formal, *args)
    difference = result.lhs - result.rhs
    return {k: difference.coefficient(i) for k, i in formal.basis.items() if isinstance(k, Fan)}


def _blind_exactly_when_no_fan_term_is_left(kind, phi, args):
    """A measure perturbed on each compact fan of the record's combination
    fails the record exactly when that fan's coefficient is non-zero.
    Returns whether the record is blind: no fan term left."""
    coefficients = _fan_coefficients(kind, args)
    for fan, c in coefficients.items():
        perturbed = PerturbedMeasure(MeasureOnCompacts(phi.spec), fan)
        assert (cli.CHECKS[kind](perturbed, *args).status == "fail") == (c != 0), (kind, fan)
    return not any(coefficients.values())


MEASURE_KINDS = ("additivity", "independence", "blowup_descent", "mayer_vietoris")


def test_a_record_is_blind_exactly_when_its_combination_has_no_fan_term():
    e_poly = measure("e_poly")
    blind, records = Counter(), Counter()
    for _, kind, (phi, *args) in cli._battery_cases(corpus.generate(1, 50), [e_poly], 3):
        if kind in MEASURE_KINDS:
            records[kind] += 1
            blind[kind] += _blind_exactly_when_no_fan_term_is_left(kind, phi, args)
    assert {k: (blind[k], records[k]) for k in MEASURE_KINDS} == {
        "additivity": (88, 200), "independence": (0, 50),
        "blowup_descent": (0, 96), "mayer_vietoris": (100, 100)}
    # the fixture's own perturbed measures fail where their target's
    # coefficient is non-zero
    suite = json.loads((pathlib.Path(__file__).parent / "fixtures"
                        / "perturbed_suite.json").read_text())
    for _, kind, (phi, *args) in cli._suite_checks(suite):
        if kind in MEASURE_KINDS:
            _blind_exactly_when_no_fan_term_is_left(kind, phi, args)
            shift = _fan_coefficients(kind, args).get(phi.target_fan, 0) * phi.delta
            assert (cli.CHECKS[kind](phi, *args).status == "fail") == (shift != 0), kind


def test_independence_after_the_battery_matches_the_value_before_it():
    corp = corpus.generate(1, 10)
    plain = [measure("euler"), measure("e_poly")]
    broken = PerturbedMeasure(measure("e_poly"), builtin_fan("P2"))
    before = [independence_check(PerturbedMeasure(measure("e_poly"), builtin_fan("P2")), *case)
              for case in corp.independence]
    for x_obj, window in corp.pairs_xu:
        for phi in plain + [broken]:
            additivity_check(phi, x_obj, window)
    for case, first in zip(corp.independence, before):
        for phi in plain:
            oracle = oracle_value(phi, case[0])
            assert independence_check(phi, *case) == verdict(True, oracle, oracle)
        assert independence_check(broken, *case) == first


def test_perturbed_values_stay_with_the_perturbed_measure():
    base = measure("e_poly")
    broken = PerturbedMeasure(base, builtin_fan("P2"))
    p2 = obj("P2")
    assert broken.on_compact(p2) == uv(2, 1, 1)
    assert base.on_compact(p2) == uv(1, 1, 1)
    assert broken.on_compact(p2) == uv(2, 1, 1)
    assert base.on_compact(p2) == uv(1, 1, 1)


@pytest.mark.parametrize("spec", [MeasureSpec("euler"), MeasureSpec("e_poly"),
                                  MeasureSpec("virtual_poincare"),
                                  MeasureSpec("point_count", q=3)],
                         ids=["euler", "e_poly", "virtual_poincare", "point_count"])
def test_a_compact_object_is_measured_through_its_fan_class(spec):
    phi = MeasureOnCompacts(spec)
    p2, quadric = obj("P2"), obj("P1xP1")
    value = phi.on_compact(p2)
    assert value == apply_measure(phi.spec, p2.kclass())
    # one value per class, whatever the object's name
    assert phi.on_compact(ToricObject("another P2", builtin_fan("P2"))) is value
    assert phi.on_compact(quadric) == apply_measure(phi.spec, quadric.kclass()) != value
    assert phi.on_compact(localization_square(p2, p2.cones).C) == MeasureValue.integer(0)


def test_measure_domain_errors():
    phi = measure("euler")
    with pytest.raises(MeasureDomainError):
        phi.on_compact(obj("A2"))


# -- checks -----------------------------------------------------------------------

def test_additivity_p1():
    p1 = obj("P1")
    window = frozenset(c for c in p1.fan.cones if c.dim == 0 or (1,) in c.rays)
    report = additivity_check(measure("euler"), p1, window)
    assert report.status == "pass"
    assert report.lhs.as_int() == 2


def test_additivity_whole_window_trivial():
    p2 = obj("P2")
    report = additivity_check(measure("e_poly"), p2, p2.fan.cones)
    assert report.status == "pass"


def test_additivity_p2_torus_e_poly():
    p2 = obj("P2")
    window = frozenset(c for c in p2.fan.cones if c.dim == 0)
    report = additivity_check(measure("e_poly"), p2, window)
    assert report.status == "pass"
    assert report.rhs == uv(1, 1, 1)


def test_independence_two_completions_of_a2():
    a2 = obj("A2")
    ca, cb = builtin_fan("P2"), builtin_fan("P1xP1")
    for phi in (measure("euler"), measure("e_poly"), measure("virtual_poincare")):
        report = independence_check(phi, a2, ca, cb)
        assert report.status == "pass"
    report = independence_check(measure("e_poly"), a2, ca, cb)
    assert report.lhs == uv(0, 0, 1)


def test_independence_trivial_for_compact():
    p2 = obj("P2")
    completion = builtin_fan("P2")
    report = independence_check(measure("euler"), p2, completion, completion)
    assert report.status == "pass"


def test_independence_flags_descent_violation():
    a2 = obj("A2")
    ca, cb = builtin_fan("P2"), builtin_fan("P1xP1")
    broken = PerturbedMeasure(measure("e_poly"), builtin_fan("P2"))
    report = independence_check(broken, a2, ca, cb)
    assert report.status == "fail"
    assert "descent violation" in report.note


def test_blowup_descent_worked_instance():
    sq = star_subdivision_square(obj("P2"), (1, 1))
    report = consistency_check("blowup_descent", measure("e_poly"), sq)
    assert report.status == "pass"
    assert report.lhs == uv(2, 2, 1)


def test_blowup_descent_detects_perturbation():
    sq = star_subdivision_square(obj("P2"), (1, 1))
    broken = PerturbedMeasure(measure("e_poly"), builtin_fan("P2"))
    report = consistency_check("blowup_descent", broken, sq)
    assert report.status == "fail"


def test_mayer_vietoris_p1_two_charts():
    p1 = obj("P1")
    win_u = frozenset(c for c in p1.fan.cones if c.dim == 0 or (1,) in c.rays)
    win_v = frozenset(c for c in p1.fan.cones if c.dim == 0 or (-1,) in c.rays)
    report = consistency_check("mayer_vietoris", measure("euler"),
                               (p1, win_u, win_v))
    assert report.status == "pass"
    assert report.lhs.as_int() == 2  # chi_c(Gm) + chi(P1) = 0 + 2


def test_mayer_vietoris_requires_cover():
    p1 = obj("P1")
    win = frozenset(c for c in p1.fan.cones if c.dim == 0)
    with pytest.raises(CSupportError):
        consistency_check("mayer_vietoris", measure("euler"), (p1, win, win))


def test_kunneth_gm_squared():
    report = consistency_check("kunneth", measure("e_poly"),
                               (obj("Gm"), obj("Gm")))
    assert report.status == "pass"
    assert report.lhs == uv(1, -2, 1)


def test_kunneth_with_point_factor():
    pt = ToricObject("pt", Fan(0, [toric.Cone(0, [])]))
    x = obj("A2")
    report = consistency_check("kunneth", measure("e_poly"), (x, pt))
    assert report.status == "pass"
    assert report.lhs == uv(0, 0, 1)


def test_kunneth_needs_multiplicative_measure():
    broken = PerturbedMeasure(measure("euler"), builtin_fan("P2"))
    with pytest.raises(MeasureDomainError):
        consistency_check("kunneth", broken, (obj("Gm"), obj("Gm")))


def test_additivity_and_mv_feel_the_perturbation():
    # the perturbed route hits P2 only on the X side: the torus window's
    # completion is a quadric, so the two sides disagree
    p2 = obj("P2")
    window = frozenset(c for c in p2.fan.cones if c.dim == 0)
    broken = PerturbedMeasure(measure("e_poly"), builtin_fan("P2"))
    assert additivity_check(broken, p2, window).status == "fail"
    # an asymmetric Mayer-Vietoris instance: on P2 blown up twice, split
    # along the star of the first exceptional ray; only the U n V corner
    # re-completes to P2 itself
    fan = toric.star_subdivide(builtin_fan("P2"), (1, 1)).fan
    fan = toric.star_subdivide(fan, (0, -1)).fan
    x_obj = ToricObject("X2", fan)
    ray = (1, 1)
    win_u = frozenset(c for f2 in fan.cones if ray in f2.rays for c in f2.faces())
    win_v = frozenset(c for c in fan.cones if ray not in c.rays)
    assert win_u | win_v == frozenset(fan.cones)
    clean = measure("e_poly")
    assert consistency_check("mayer_vietoris", clean,
                             (x_obj, win_u, win_v)).status == "pass"
    assert consistency_check("mayer_vietoris", broken,
                             (x_obj, win_u, win_v)).status == "fail"
