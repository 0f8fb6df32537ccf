"""The compactly supported extension and its well-definedness checks."""

import pytest

from kvar import kring, toric
from kvar.csupport import (
    CompletionProvider,
    CSupportError,
    MeasureDomainError,
    MeasureOnCompacts,
    PerturbedMeasure,
    additivity_check,
    consistency_check,
    e_polynomial_measure,
    euler_measure,
    extend_measure,
    independence_check,
    oracle_value,
    point_count_measure,
    toric_choice,
    virtual_poincare_measure,
)
from kvar.measures import MeasureSpec, MeasureValue, apply_measure
from kvar.spansite import EMPTY, ToricLocusObject, ToricObject, star_subdivision_square
from kvar.toric import Fan, ToricLocus, builtin_fan


def uv(*coeffs):
    return MeasureValue(coeffs, "uv")


def _depth(result):
    """The deepest step of an extension's trace."""
    return max((step.depth for step in result.trace), default=0)


@pytest.fixture
def provider():
    return CompletionProvider()


def obj(name):
    return ToricObject(name, builtin_fan(name))


# -- extension values -----------------------------------------------------------

def test_euler_of_affine_line(provider):
    result = extend_measure(euler_measure(), obj("A1"), provider)
    assert result.value.as_int() == 1  # 2 - 1 through (P1, pt)
    assert _depth(result) <= 2     # <= dim + 1


def test_compact_objects_pass_through(provider):
    result = extend_measure(e_polynomial_measure(), obj("P2"), provider)
    assert result.value == uv(1, 1, 1)
    assert result.trace == ()


def test_e_poly_of_gm_and_a2(provider):
    assert extend_measure(e_polynomial_measure(), obj("Gm"), provider).value == uv(-1, 1)
    assert extend_measure(e_polynomial_measure(), obj("A2"), provider).value == uv(0, 0, 1)


def test_extension_of_empty_is_zero(provider):
    empty = ToricObject("nothing", Fan(2, []))
    assert extend_measure(euler_measure(), empty, provider).value.as_int() == 0


def test_trace_depth_bound(provider):
    torus3 = ToricObject("T3", builtin_fan("Gm").product(builtin_fan("Gm"))
                         .product(builtin_fan("Gm")))
    result = extend_measure(e_polynomial_measure(), torus3, provider)
    assert result.value == uv(-1, 3, -3, 1)  # (uv - 1)^3
    assert _depth(result) <= torus3.dim + 1


def test_oracle_agreement_dual_route(provider):
    for name in ("A1", "A2", "Gm", "P2", "P1xP1"):
        o = obj(name)
        for phi in (euler_measure(), e_polynomial_measure(),
                    virtual_poincare_measure(), point_count_measure(3)):
            assert extend_measure(phi, o, provider).value == oracle_value(phi, o)


def test_locus_extension_orbitwise(provider):
    p2 = builtin_fan("P2")
    boundary = ToricLocusObject("bd", ToricLocus(
        p2, [c for c in p2.cones if c.dim > 0]))
    value = extend_measure(e_polynomial_measure(), boundary, provider).value
    assert value == uv(0, 3)  # class 3L


def test_non_closed_loci_decompose_into_tori(provider):
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
        for phi in (euler_measure(), e_polynomial_measure(),
                    virtual_poincare_measure(), point_count_measure(3)):
            result = extend_measure(phi, o, provider)
            assert result.value == oracle_value(phi, o)
            assert _depth(result) <= o.dim + 1
    torus = ToricLocusObject("T", loci[0])
    assert str(extend_measure(e_polynomial_measure(), torus, provider).value) \
        == "1 - 2*(uv) + (uv)^2"


def test_missing_completion_is_an_error():
    # one class for every missing compactification: a g_map table entry and
    # a rank-4 completion
    rels = kring.RelationSet()
    rels.declare_generator("U", 2)
    rank4 = ToricObject("X4", builtin_fan("A2").product(builtin_fan("A2")))
    raise_sites = (
        lambda: kring.g_map("U", kring.CompactificationTable(), rels),
        lambda: extend_measure(euler_measure(), rank4, CompletionProvider()),
    )
    for raise_site in raise_sites:
        with pytest.raises(kring.MissingCompactificationError):
            raise_site()


def test_an_explicit_choice_enables_rank4(provider):
    a2 = builtin_fan("A2")
    p2 = builtin_fan("P2")
    rank4 = ToricObject("A2xA2", a2.product(a2))
    choice = toric_choice(rank4, p2.product(p2))
    value = extend_measure(e_polynomial_measure(), rank4, provider, choice).value
    assert value == uv(0, 0, 0, 0, 1)  # (uv)^4


def test_memoized_extensions_match_a_fresh_provider():
    from kvar import corpus
    from kvar.csupport import BUILTIN_MEASURES
    corp = corpus.generate(1, 10)
    objects = list(corp.surfaces) + list(corp.rank3)
    for sq in corp.squares + corp.loc_squares:
        objects.extend(sq.corners.values())
    objects.extend(ToricObject(f"{x.name}|U", x.fan.subfan(w)) for x, w in corp.pairs_xu)
    objects.extend(ToricLocusObject("complement", ToricLocus(
        x.fan, [c for c in x.fan.cones if c not in w])) for x, w in corp.pairs_xu)
    for a, b in corp.kunneth_pairs:
        objects.extend((a, b))
    phis = [MeasureOnCompacts(MeasureSpec(s)) for s in BUILTIN_MEASURES]
    shared = CompletionProvider()
    for o in objects:
        for phi in phis:
            memoized = extend_measure(phi, o, shared)
            assert memoized == extend_measure(phi, o, CompletionProvider())
            assert extend_measure(phi, o, shared) == memoized


def test_extension_traces_are_pinned(provider):
    # a non-closed locus decomposes into tori, one step per torus dimension
    p2 = builtin_fan("P2")
    locus = ToricLocusObject("L", ToricLocus(p2, [c for c in p2.cones if c.dim <= 1]))
    result = extend_measure(e_polynomial_measure(), locus, provider)
    assert str(result.value) == "-2 + (uv) + (uv)^2"
    assert [(s.object_desc, s.compactification, s.boundary_desc, s.depth)
            for s in result.trace] == [("torus^2", "(P1)^2", "8 boundary cones", 1),
                                       ("torus^1", "(P1)^1", "2 boundary cones", 1)]


def test_an_explicit_choice_overrides_the_automatic_completion(provider):
    a2 = builtin_fan("A2")
    first = provider.completion_fan(a2)
    assert provider.completion_fan(a2) is first
    assert first == builtin_fan("P2")
    # the perturbation shifts the value through P2, not through P1xP1
    phi = PerturbedMeasure(e_polynomial_measure(), builtin_fan("P2"))
    a2_obj = ToricObject("A2", a2)
    through_p2 = extend_measure(phi, a2_obj, provider)
    quadric = toric_choice(a2_obj, builtin_fan("P1xP1"))
    through_p1xp1 = extend_measure(phi, a2_obj, provider, quadric)
    assert through_p1xp1.value == uv(0, 0, 1) != through_p2.value
    assert through_p1xp1 == extend_measure(phi, a2_obj, CompletionProvider(), quadric)
    # the choice leaves the provider's own completion as it was
    assert provider.completion_fan(a2) is first
    assert extend_measure(phi, a2_obj, provider) == through_p2


def test_locus_extension_is_free_of_the_object_name(provider):
    # two names over one locus: equal values and traces, each under its own name
    p2 = builtin_fan("P2")
    torus = ToricLocus(p2, [c for c in p2.cones if c.dim == 0])
    phi = e_polynomial_measure()
    first = extend_measure(phi, ToricLocusObject("T", torus), provider)
    second = extend_measure(phi, ToricLocusObject("open torus", torus), provider)
    assert (first.object_name, second.object_name) == ("T", "open torus")
    assert second.value == first.value and second.trace == first.trace != ()
    assert second == extend_measure(phi, ToricLocusObject("open torus", torus),
                                    CompletionProvider())


def test_one_fan_under_two_names_differs_only_in_the_first_step(provider):
    a2 = builtin_fan("A2")
    phi = e_polynomial_measure()
    first = extend_measure(phi, ToricObject("A2", a2), provider)
    plane = ToricObject("plane", a2)
    second = extend_measure(phi, plane, provider)
    assert second.value == first.value == uv(0, 0, 1)
    assert (first.trace[0].object_desc, first.trace[0].compactification) == ("A2", "A2^bar")
    assert (second.trace[0].object_desc, second.trace[0].compactification) \
        == ("plane", "plane^bar")
    assert second.trace[0].boundary_desc == first.trace[0].boundary_desc
    assert second.trace[0].depth == first.trace[0].depth
    assert second.trace[1:] == first.trace[1:]
    assert second == extend_measure(phi, plane, CompletionProvider())


def test_independence_after_the_battery_matches_a_fresh_provider():
    from kvar import corpus
    corp = corpus.generate(1, 10)
    phis = [euler_measure(), e_polynomial_measure(),
            PerturbedMeasure(e_polynomial_measure(), builtin_fan("P2"))]
    for x_obj, window in corp.pairs_xu:
        for phi in phis:
            additivity_check(phi, x_obj, window, corp.provider)
    for case in corp.independence:
        for phi in phis:
            shared = independence_check(phi, case.obj, case.choice_a, case.choice_b,
                                        corp.provider)
            assert shared == independence_check(phi, case.obj, case.choice_a,
                                                case.choice_b, CompletionProvider())


def test_perturbed_values_stay_with_the_perturbed_measure():
    base = e_polynomial_measure()
    broken = PerturbedMeasure(base, builtin_fan("P2"))
    p2 = obj("P2")
    assert broken.on_compact(p2) == uv(2, 1, 1)
    assert base.on_compact(p2) == uv(1, 1, 1)
    assert broken.on_compact(p2) == uv(2, 1, 1)
    assert base.on_compact(p2) == uv(1, 1, 1)


@pytest.mark.parametrize("phi", [euler_measure, e_polynomial_measure,
                                 virtual_poincare_measure, lambda: point_count_measure(3)],
                         ids=["euler", "e_poly", "virtual_poincare", "point_count"])
def test_a_compact_object_is_measured_through_its_fan_class(phi):
    phi = phi()
    p2, quadric = obj("P2"), obj("P1xP1")
    value = phi.on_compact(p2)
    assert value == apply_measure(phi.spec, p2.kclass())
    # one value per class, whatever the object's name
    assert phi.on_compact(ToricObject("another P2", builtin_fan("P2"))) is value
    assert phi.on_compact(quadric) == apply_measure(phi.spec, quadric.kclass()) != value
    assert phi.on_compact(EMPTY) == MeasureValue.integer(0)


def test_measure_domain_errors():
    phi = euler_measure()
    with pytest.raises(MeasureDomainError):
        phi.on_compact(obj("A2"))


# -- checks -----------------------------------------------------------------------

def test_additivity_p1(provider):
    p1 = obj("P1")
    window = frozenset(c for c in p1.fan.cones if c.dim == 0 or (1,) in c.rays)
    report = additivity_check(euler_measure(), p1, window, provider)
    assert report.status == "pass"
    assert report.lhs.as_int() == 2


def test_additivity_whole_window_trivial(provider):
    p2 = obj("P2")
    report = additivity_check(e_polynomial_measure(), p2, p2.fan.cones, provider)
    assert report.status == "pass"


def test_additivity_p2_torus_e_poly(provider):
    p2 = obj("P2")
    window = frozenset(c for c in p2.fan.cones if c.dim == 0)
    report = additivity_check(e_polynomial_measure(), p2, window, provider)
    assert report.status == "pass"
    assert report.rhs == uv(1, 1, 1)


def test_independence_two_completions_of_a2(provider):
    a2 = obj("A2")
    ca = toric_choice(a2, builtin_fan("P2"), "P2bar")
    cb = toric_choice(a2, builtin_fan("P1xP1"), "Qbar")
    for phi in (euler_measure(), e_polynomial_measure(), virtual_poincare_measure()):
        report = independence_check(phi, a2, ca, cb, provider)
        assert report.status == "pass"
    report = independence_check(e_polynomial_measure(), a2, ca, cb, provider)
    assert report.lhs == uv(0, 0, 1)


def test_independence_trivial_for_compact(provider):
    p2 = obj("P2")
    choice = toric_choice(p2, builtin_fan("P2"))
    report = independence_check(euler_measure(), p2, choice, choice, provider)
    assert report.status == "pass"


def test_independence_flags_descent_violation(provider):
    a2 = obj("A2")
    ca = toric_choice(a2, builtin_fan("P2"), "P2bar")
    cb = toric_choice(a2, builtin_fan("P1xP1"), "Qbar")
    broken = PerturbedMeasure(e_polynomial_measure(), builtin_fan("P2"))
    report = independence_check(broken, a2, ca, cb, provider)
    assert report.status == "fail"
    assert "descent violation" in report.note


def test_blowup_descent_worked_instance(provider):
    sq = star_subdivision_square(obj("P2"), (1, 1))
    report = consistency_check("blowup_descent", e_polynomial_measure(), sq, provider)
    assert report.status == "pass"
    assert report.lhs == uv(2, 2, 1)


def test_blowup_descent_detects_perturbation(provider):
    sq = star_subdivision_square(obj("P2"), (1, 1))
    broken = PerturbedMeasure(e_polynomial_measure(), builtin_fan("P2"))
    report = consistency_check("blowup_descent", broken, sq, provider)
    assert report.status == "fail"


def test_mayer_vietoris_p1_two_charts(provider):
    p1 = obj("P1")
    win_u = frozenset(c for c in p1.fan.cones if c.dim == 0 or (1,) in c.rays)
    win_v = frozenset(c for c in p1.fan.cones if c.dim == 0 or (-1,) in c.rays)
    report = consistency_check("mayer_vietoris", euler_measure(),
                               (p1, win_u, win_v), provider)
    assert report.status == "pass"
    assert report.lhs.as_int() == 2  # chi_c(Gm) + chi(P1) = 0 + 2


def test_mayer_vietoris_requires_cover(provider):
    p1 = obj("P1")
    win = frozenset(c for c in p1.fan.cones if c.dim == 0)
    with pytest.raises(CSupportError):
        consistency_check("mayer_vietoris", euler_measure(), (p1, win, win), provider)


def test_kunneth_gm_squared(provider):
    report = consistency_check("kunneth", e_polynomial_measure(),
                               (obj("Gm"), obj("Gm")), provider)
    assert report.status == "pass"
    assert report.lhs == uv(1, -2, 1)


def test_kunneth_with_point_factor(provider):
    pt = ToricObject("pt", Fan(0, [toric.Cone(0, [])]))
    x = obj("A2")
    report = consistency_check("kunneth", e_polynomial_measure(), (x, pt), provider)
    assert report.status == "pass"
    assert report.lhs == uv(0, 0, 1)


def test_kunneth_needs_multiplicative_measure(provider):
    broken = PerturbedMeasure(euler_measure(), builtin_fan("P2"))
    with pytest.raises(MeasureDomainError):
        consistency_check("kunneth", broken, (obj("Gm"), obj("Gm")), provider)


def test_additivity_and_mv_feel_the_perturbation(provider):
    # the perturbed route hits P2 only on the X side: the torus window's
    # completion is a quadric, so the two sides disagree
    p2 = obj("P2")
    window = frozenset(c for c in p2.fan.cones if c.dim == 0)
    broken = PerturbedMeasure(e_polynomial_measure(), builtin_fan("P2"))
    assert additivity_check(broken, p2, window, provider).status == "fail"
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
    clean = e_polynomial_measure()
    assert consistency_check("mayer_vietoris", clean,
                             (x_obj, win_u, win_v), provider).status == "pass"
    assert consistency_check("mayer_vietoris", broken,
                             (x_obj, win_u, win_v), provider).status == "fail"
