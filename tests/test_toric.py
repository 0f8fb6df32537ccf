"""Fans, cones, subdivisions, completions, and orbit classes."""

import copy
import gc
import itertools
import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from kvar import corpus, toric
from kvar.kring import KClass, MissingCompactificationError
from kvar.spansite import ToricObject, star_subdivision_square
from kvar.toric import (
    Cone,
    Fan,
    FanConditionError,
    NonPrimitiveRayError,
    NotFaceClosedError,
    NotStronglyConvexError,
    SubdivisionError,
    ToricError,
    ToricLocus,
    alternative_completion,
    build_fan,
    builtin_fan,
    complete_surface,
    fan_properties,
    mat_rank,
    nullspace,
    sort_rays_ccw,
    star_subdivide,
)


def lpoly(*coeffs):
    out = KClass.zero()
    for exp, c in enumerate(coeffs):
        out = out + KClass.lefschetz(exp).scale(c)
    return out


# -- cones ---------------------------------------------------------------------

def test_cone_basics():
    c = Cone(2, [(1, 0), (1, 2)])
    assert c.dim == 2
    assert c.contains((2, 2)) and not c.contains((-1, 0))
    assert c.relint_contains((2, 1)) and not c.relint_contains((1, 0))
    assert len(c.faces()) == 4  # itself, two rays, zero


def test_cone_rejects_bad_input():
    with pytest.raises(NonPrimitiveRayError):
        Cone(2, [(2, 4)])
    with pytest.raises(NonPrimitiveRayError):
        Cone(2, [(0, 0)])
    with pytest.raises(NotStronglyConvexError):
        Cone(2, [(1, 0), (-1, 0)])
    with pytest.raises(NotStronglyConvexError):
        Cone(2, [(1, 0), (-1, 1), (0, -1)])  # full plane


@pytest.mark.parametrize("rays", [
    [(1, 0), (1, 1), (0, 1)],                                  # inside the 2-cone
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)],              # inside a facet
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],              # inside the 3-cone
    [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]])  # inside a square
def test_a_generator_that_is_not_a_ray_of_its_cone_is_rejected(rays):
    key = (len(rays[0]), tuple(sorted(rays)))
    for _ in range(2):
        with pytest.raises(toric.ToricError, match=r"^generator .* is not a ray of cone"):
            Cone(len(rays[0]), rays)
        assert key not in Cone._interned
    with pytest.raises(toric.ToricError, match="is not a ray"):
        build_fan(2, [(1, 0), (1, 1), (0, 1)], [(0, 1, 2)])


def test_cone_smoothness():
    assert Cone(2, [(1, 0), (0, 1)]).is_smooth()
    assert not Cone(2, [(0, 1), (2, -1)]).is_smooth()  # determinant 2
    assert Cone(3, [(1, 0, 0), (1, 2, 0)]).dim == 2
    assert not Cone(3, [(1, 0, 0), (1, 2, 0)]).is_smooth()  # index 2 in its span


def test_cone_intersection_is_exact():
    a = Cone(2, [(1, 0), (1, 2)])
    b = Cone(2, [(2, 1), (0, 1)])
    meet = a.intersect(b)
    assert meet.rays == ((1, 2), (2, 1))
    assert Cone(2, [(1, 0)]).intersect(Cone(2, [(0, 1)])).dim == 0


def _halfspace_meet(a: Cone, b: Cone) -> Cone:
    """The meet by the extreme rays of the joint half-space description:
    each line that both cones' span equations and at most rank - 1 of
    their facet inequalities cut out, in the direction that both cones
    hold."""
    equalities = list(a.span_equations) + list(b.span_equations)
    inequalities = list(a.facet_normals) + list(b.facet_normals)
    rays = set()
    for k in range(min(len(inequalities), max(a.rank - 1, 0)) + 1):
        for subset in itertools.combinations(inequalities, k):
            kernel = nullspace(equalities + list(subset), a.rank)
            if len(kernel) == 1:
                rays.update(v for v in (kernel[0], tuple(-x for x in kernel[0]))
                            if a.contains(v) and b.contains(v))
    return Cone(a.rank, rays)


# points in convex position, one set per rank: the rays over any subset
# of one set, all at one height, are the rays of the cone they generate
_SECTIONS = {1: [()], 2: [(1,), (-1,)],
             3: [(2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1)],
             4: list(itertools.product((1, -1), repeat=3))}


@st.composite
def cones_with_rays(draw, rank):
    """The cone over some points of a convex section, shifted, at a height
    of either sign."""
    points = draw(st.lists(st.sampled_from(_SECTIONS[rank]), unique=True))
    shift = draw(st.tuples(*[st.integers(-2, 2)] * (rank - 1)))
    height = draw(st.sampled_from([2, 1, 3, -1]))
    return Cone(rank, [toric.primitive(tuple(x + y for x, y in zip(p, shift)) + (height,))
                       for p in points])


@st.composite
def cone_pairs(draw):
    rank = draw(st.integers(1, 4))
    return draw(cones_with_rays(rank)), draw(cones_with_rays(rank))


@given(cone_pairs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_the_meet_is_the_half_space_meet(pair):
    a, b = pair
    meet = _halfspace_meet(a, b)
    assert a.intersect(b) is meet and b.intersect(a) is meet


def test_the_meet_of_every_cone_pair_of_a_corpus_fan_is_the_half_space_meet():
    fans = corpus.generate(1, 50).all_fans()
    assert {fan.rank for fan in fans} == {2, 3}
    pairs = {pair for fan in fans
             for pair in itertools.combinations(sorted(fan.cones, key=lambda c: c.rays), 2)}
    assert len(pairs) == 2696
    for a, b in pairs:
        assert a.intersect(b) is _halfspace_meet(a, b), (a, b)


def test_cone_interning_shares_instances():
    assert Cone(2, [(0, 1), (1, 0)]) is Cone(2, [(1, 0), (0, 1)])


def test_cone_from_an_iterator_is_the_cone_from_a_list():
    rays = [(7, 2), (2, 7)]  # a cone no other test builds first
    from_iter = Cone(2, iter(rays))
    assert from_iter.rays == ((2, 7), (7, 2))
    assert from_iter is Cone(2, list(rays))
    assert hash(from_iter) == hash((2, from_iter.rays))
    with pytest.raises(NotStronglyConvexError):
        Cone(2, (r for r in [(5, 3), (-5, -3)]))


def test_failed_cone_leaves_no_intern_entry():
    for rank, rays, error in ((2, [(2, 0)], NonPrimitiveRayError),
                              (2, [(1, 0, 0)], toric.ToricError),
                              (2, [(3, 4), (-3, -4)], NotStronglyConvexError)):
        key = (rank, tuple(sorted(rays)))
        with pytest.raises(error):
            Cone(rank, rays)
        assert key not in Cone._interned
        with pytest.raises(error):  # and fails again, not from a stale entry
            Cone(rank, rays)


@pytest.mark.parametrize("rank", [True, False, 2.0, -1, "2", None])
def test_a_rank_that_is_not_a_nonnegative_int_is_rejected(rank):
    with pytest.raises(toric.ToricError):
        Cone(rank, [(1,)])
    with pytest.raises(toric.ToricError):
        Cone(rank, [(1, 0), (0, 1)])
    with pytest.raises(toric.ToricError):
        Fan(rank, [])
    # nothing was interned under a key equal to an int rank's
    assert Cone(1, [(1,)]).rank == 1 and type(Cone(1, [(1,)]).rank) is int
    assert type(Fan(1, [Cone(1, [])]).rank) is int


def test_fan_from_an_iterator_is_the_fan_from_a_list():
    cones = Cone(2, [(5, 2), (2, 5)]).faces()  # a fan no other test builds first
    from_iter = Fan(2, iter(cones))
    assert from_iter is Fan(2, list(cones))
    assert from_iter is Fan.from_cones(2, [Cone(2, [(2, 5), (5, 2)])])
    assert Fan._interned[(2, frozenset(cones))] is from_iter


def test_failed_fan_leaves_no_intern_entry():
    zero, quad = Cone(2, []), Cone(2, [(1, 0), (0, 1)])
    for cones, error in (([zero, quad], NotFaceClosedError),       # a missing face
                         ([zero, Cone(1, [])], toric.ToricError),  # mixed ranks
                         ([Cone(2, [(1, 0)])], NotFaceClosedError)):  # no zero cone
        key = (2, frozenset(cones))
        with pytest.raises(error):
            Fan(2, cones)
        assert key not in Fan._interned
        with pytest.raises(error):  # and fails again, not from a stale entry
            Fan(2, cones)


def test_a_dropped_fan_leaves_the_table():
    fan = Fan.from_cones(2, [Cone(2, [(4, 3), (3, 4)])])
    key = (2, fan.cones)
    assert Fan._interned[key] is fan
    del fan
    gc.collect()
    assert key not in Fan._interned


def _fresh_fan(fan):
    """An equal fan built from the cones outside the table, caches empty."""
    key = (fan.rank, fan.cones)
    del Fan._interned[key]
    try:
        fresh = Fan(fan.rank, sorted(fan.cones, key=lambda c: c.rays))
    finally:
        Fan._interned[key] = fan
    assert fresh is not fan and fresh == fan
    return fresh


def test_shared_fan_data_matches_a_fresh_fan():
    corp = corpus.generate(1, 10)
    fans = [builtin_fan(n) for n in toric.BUILTIN_FAN_NAMES] + corp.all_fans()
    fans += [obj.fan.subfan(window) for obj, window in corp.pairs_xu]
    for fan in fans:
        fresh = _fresh_fan(fan)
        assert fan.is_complete() == fresh.is_complete()
        assert fan.rays == fresh.rays
        assert fan.maximal_cones == fresh.maximal_cones
        assert fan.class_of() == fresh.class_of()
        assert fan is Fan(fan.rank, fan.cones)


def test_copy_and_pickle_give_back_the_interned_instance():
    fans = [builtin_fan(n) for n in toric.BUILTIN_FAN_NAMES] + corpus.generate(1, 10).all_fans()
    for x in fans + sorted({c for f in fans for c in f.cones}, key=lambda c: (c.rank, c.rays)):
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x


def test_subfan_checks_its_subset_even_when_an_equal_fan_is_interned():
    p2 = builtin_fan("P2")
    elsewhere = Fan.from_cones(2, [Cone(2, [(-1, 0), (0, -1)])])  # not cones of P2
    with pytest.raises(toric.ToricError, match="is not a cone of the fan"):
        p2.subfan(elsewhere.cones)
    ray_cones = [c for c in p2.cones if c.dim == 1]
    torus = p2.subfan([Cone(2, [])])
    with pytest.raises(NotFaceClosedError):
        p2.subfan(ray_cones)  # the zero cone is missing
    with pytest.raises(NotFaceClosedError):
        p2.subfan(list(p2.maximal_cones) + list(torus.cones))
    assert p2.subfan(p2.cones) is p2


def _factor_cones():
    fans = [builtin_fan(n) for n in toric.BUILTIN_FAN_NAMES]
    fans += [o.fan for o in corpus.generate(1, 10).surfaces]
    return sorted({c for f in fans for c in f.cones}, key=lambda c: (c.rank, c.rays))


def test_product_cone_matches_the_cone_of_its_rays():
    # most of these products are first built here, from their factors
    cones = _factor_cones()
    for a in cones:
        for b in cones:
            p = Cone.product(a, b)
            rays = [r + (0,) * b.rank for r in a.rays] + [(0,) * a.rank + s for s in b.rays]
            assert (p.rank, p.rays) == (a.rank + b.rank, tuple(sorted(rays)))
            assert p.dim == mat_rank(p.rays)
            assert p.span_equations == tuple(nullspace(p.rays, p.rank))
            assert p.facet_normals == Cone._blank((p.rank, p.rays))._compute_facets()


def test_product_cone_is_interned_with_the_cone_of_its_rays():
    # cones no other test builds first
    p = Cone.product(Cone(1, [(1,)]), Cone(2, [(3, 1), (1, 4)]))
    assert Cone(3, [(1, 0, 0), (0, 3, 1), (0, 1, 4)]) is p
    q = Cone(3, [(5, 2, 0), (1, 7, 0), (0, 0, 1)])
    assert Cone.product(Cone(2, [(5, 2), (1, 7)]), Cone(1, [(1,)])) is q


def test_a_repeated_product_cone_is_one_lookup(monkeypatch):
    a, b = Cone(1, [(1,)]), Cone(2, [(2, 3), (1, 5)])
    first = Cone.product(a, b)
    assert Cone.product(b, a) is Cone(3, [(2, 3, 0), (1, 5, 0), (0, 0, 1)])

    def no_sorting(*args, **kwargs):
        raise AssertionError("a repeated product built its key again")
    monkeypatch.setattr(toric, "sorted", no_sorting, raising=False)
    assert Cone.product(a, b) is first


def _product_factors():
    """Factor pairs: every Kunneth pair of a size-50 corpus, P1 times each
    of its surfaces, the steps to P1^3 and to Gm^3, and products with an
    empty fan, the rank-0 fan and a singular surface."""
    corp = corpus.generate(1, 50)
    p1, gm, p2 = builtin_fan("P1"), builtin_fan("Gm"), builtin_fan("P2")
    p112 = build_fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
    pairs = [(a.fan, b.fan) for a, b in corp.kunneth_pairs]
    pairs += [(p1, s.fan) for s in corp.surfaces]
    pairs += [(p1, p1), (p1.product(p1), p1), (gm, gm), (gm.product(gm), gm)]
    pairs += [(Fan(2, []), p1), (Fan(0, [Cone(0, [])]), p2), (Fan(1, []), p112), (p1, p112)]
    return pairs


def test_a_product_fan_agrees_with_its_factors():
    # every product cone's faces against facet enumeration, and the
    # product's own maximal cones, completeness, smoothness and class
    # against what its factors give (Fulton, 1.2)
    cones = set()
    for a, b in _product_factors():
        fan = a.product(b)
        cones |= fan.cones
        assert fan.maximal_cones == _maximal_by_subset_scan(fan)
        assert fan.maximal_cones == tuple(sorted(
            (Cone.product(x, y) for x in a.maximal_cones for y in b.maximal_cones),
            key=lambda c: c.rays))
        assert fan.is_complete() is (a.is_complete() and b.is_complete())
        assert fan.is_smooth() is (fan.is_empty() or (a.is_smooth() and b.is_smooth()))
        assert fan.class_of() == a.class_of() * b.class_of()
    for cone in cones:
        assert set(cone.faces()) == set(Cone._blank((cone.rank, cone.rays)).faces())


def test_a_fresh_product_fan_enumerates_no_face_of_its_cones(monkeypatch):
    # two complete surfaces with rays no other test uses, so no cone of
    # their product is interned before it is built here
    x = build_fan(2, [(1, 0), (0, 1), (-7, -11)], [(0, 1), (1, 2), (0, 2)])
    y = build_fan(2, [(1, 0), (0, 1), (-13, -17)], [(0, 1), (1, 2), (0, 2)])
    top = (4, ((-7, -11, 0, 0), (0, 0, -13, -17), (0, 0, 0, 1), (0, 1, 0, 0)))
    assert top not in Cone._interned, "the product of x and y was built before this test"
    enumerated = []
    faces = Cone.faces

    def recording(cone):
        if cone._faces is None:
            enumerated.append(cone)
        return faces(cone)

    monkeypatch.setattr(Cone, "faces", recording)
    fan = x.product(y)
    assert Cone._interned[top] in fan.cones and len(fan.cones) == 49
    assert not enumerated


# -- fan construction ------------------------------------------------------------

def test_build_fan_p1():
    fan = build_fan(1, [(1,), (-1,)], [(0,), (1,)])
    assert len(fan.cones) == 3


def test_build_fan_a2():
    fan = build_fan(2, [(1, 0), (0, 1)], [(0, 1)])
    assert len(fan.cones) == 4


def test_build_fan_p2():
    fan = build_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    assert len(fan.cones) == 7


def test_build_fan_rejects_bad_input():
    with pytest.raises(NonPrimitiveRayError):
        build_fan(2, [(2, 0), (0, 1)], [(0, 1)])
    with pytest.raises(NotStronglyConvexError):
        build_fan(2, [(1, 0), (-1, 0)], [(0, 1)])
    # two quadrant cones overlapping in a non-face, named as the maximal pair
    with pytest.raises(FanConditionError, match=r"^cones Cone\(\(0, 1\), \(1, 0\)\) and "
                       r"Cone\(\(0, 1\), \(1, 2\)\) intersect in "):
        build_fan(2, [(1, 0), (0, 1), (1, 2)], [(0, 1), (1, 2)])


def test_fan_requires_face_closure():
    quad = Cone(2, [(1, 0), (0, 1)])
    with pytest.raises(NotFaceClosedError):
        Fan(2, [quad])
    assert Fan.from_cones(2, [quad]).cones == frozenset(quad.faces())


def test_fan_json_roundtrip():
    fan = builtin_fan("P2")
    again = Fan.from_json(json.dumps(fan.to_json()))
    assert again == fan
    gm = builtin_fan("Gm")
    marked = gm.to_json()
    assert marked.get("dense_torus") is True
    assert Fan.from_json(marked) == gm


@pytest.mark.parametrize("rank", [1, toric.MAX_FAN_FILE_RANK])
def test_a_dense_torus_file_up_to_the_rank_bound_loads(rank):
    fan = Fan.from_json({"rank": rank, "rays": [], "maximal_cones": [], "dense_torus": True})
    assert fan.rank == rank and fan.dimension() == rank
    assert Fan.from_json(fan.to_json()) == fan


@pytest.mark.parametrize("rank", [toric.MAX_FAN_FILE_RANK + 1, 10 ** 9])
def test_a_fan_file_past_the_rank_bound_is_a_toric_error(rank):
    with pytest.raises(toric.ToricError, match=f"from 0 to {toric.MAX_FAN_FILE_RANK}$"):
        Fan.from_json({"rank": rank, "rays": [], "maximal_cones": [], "dense_torus": True})


# -- properties -------------------------------------------------------------------

def test_fan_properties_examples():
    assert fan_properties(builtin_fan("P2")) == toric.FanProperties(True, True, 2)
    assert fan_properties(builtin_fan("A2")) == toric.FanProperties(False, True, 2)
    singular = build_fan(2, [(0, 1), (2, -1)], [(0, 1)])
    assert fan_properties(singular).smooth is False


def test_completeness_rank1_and_rank3():
    assert builtin_fan("P1").is_complete()
    assert not builtin_fan("A1").is_complete()
    p1cubed = builtin_fan("P1").product(builtin_fan("P1")).product(builtin_fan("P1"))
    assert p1cubed.is_complete() and p1cubed.is_smooth()
    # removing one maximal cone breaks facet pairing
    partial = Fan.from_cones(3, sorted(p1cubed.maximal_cones, key=lambda c: c.rays)[:-1])
    assert not partial.is_complete()


def _angular_scan(fan):
    """Reference for rank 2: the rays, sorted counterclockwise, are at least
    three and every two neighbours span a cone of the fan."""
    rays = sort_rays_ccw(fan.rays)
    return len(rays) >= 3 and all(fan.contains_cone(Cone(2, [v, w]))
                                  for v, w in zip(rays, rays[1:] + rays[:1]))


def test_completeness_criteria_agree_on_surfaces():
    for name in ("P2", "P1xP1", "A2"):
        fan = builtin_fan(name)
        assert fan.is_complete() == _angular_scan(fan) == (name != "A2")
    f1 = star_subdivide(builtin_fan("P2"), (1, 1)).fan
    assert f1.is_complete() == _angular_scan(f1) is True


def test_completeness_edge_cases():
    p1 = builtin_fan("P1")
    p1cubed = p1.product(p1).product(p1)
    cases = [(Fan(2, []), False), (Fan(0, [Cone(0, [])]), True),
             (Fan(2, [Cone(2, [])]), False), (p1, True), (builtin_fan("A1"), False),
             (builtin_fan("Gm"), False)]
    for dropped in p1cubed.maximal_cones:
        cases.append((Fan.from_cones(3, [c for c in p1cubed.maximal_cones
                                         if c is not dropped]), False))
    cases += [(toric.hirzebruch_fan(a), True) for a in range(-2, 4)]
    for fan, complete in cases:
        assert _fresh_fan(fan).is_complete() is complete, fan
        assert fan.is_complete() is complete, fan


def test_empty_and_torus_fans():
    empty = Fan(2, [])
    assert empty.dimension() == -1 and not empty.is_complete()
    torus = build_fan(2, [], [()])
    assert torus.dimension() == 2
    assert torus.class_of() == lpoly(1, -2, 1)


# -- open subfans ------------------------------------------------------------------

def test_open_subfan_a1_in_p1():
    p1 = builtin_fan("P1")
    sub = p1.subfan(c for c in p1.cones if c.dim == 0 or (1,) in c.rays)
    assert sub.class_of() == lpoly(0, 1)     # A1
    assert len(p1.cones - sub.cones) == 1    # one fixed point


def test_open_subfan_identity_and_torus():
    p2 = builtin_fan("P2")
    assert p2.subfan(p2.cones) == p2
    torus = p2.subfan(c for c in p2.cones if c.dim == 0)
    assert torus.class_of() == lpoly(1, -2, 1)
    assert p2.class_of(p2.cones - torus.cones) == lpoly(0, 3)  # the three lines


def test_open_subfan_rejects_non_face_closed():
    p2 = builtin_fan("P2")
    ray = next(c for c in p2.cones if c.dim == 1)
    with pytest.raises(NotFaceClosedError):
        p2.subfan({ray})
    with pytest.raises(toric.ToricError):
        p2.subfan({Cone(2, [(5, 1)])})


# -- classes ------------------------------------------------------------------------

def test_class_of_examples():
    p2 = builtin_fan("P2")
    assert p2.class_of() == lpoly(1, 1, 1)
    assert p2.class_of([]) == KClass.zero()


def test_class_additivity_over_subfans():
    fan = star_subdivide(builtin_fan("P1xP1"), (1, 1)).fan
    maximal = sorted((c for c in fan.maximal_cones), key=lambda c: c.rays)
    sub = fan.subfan(set(maximal[0].faces()) | {Cone(2, [])})
    complement = [c for c in fan.cones if c not in sub.cones]
    assert fan.class_of() == sub.class_of() + fan.class_of(complement)


@given(st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_class_of_is_the_sum_over_its_cones(data):
    fan = builtin_fan(data.draw(st.sampled_from(toric.BUILTIN_FAN_NAMES + ("Hirzebruch(2)",))))
    if data.draw(st.booleans()):
        fan = builtin_fan("P1").product(fan)
    subset = data.draw(st.sets(st.sampled_from(sorted(fan.cones, key=lambda c: c.rays))))
    gm = KClass.lefschetz() - KClass.from_int(1)
    expected = KClass.zero()
    for c in subset:
        expected = expected + gm ** (fan.rank - c.dim)
    assert fan.class_of(subset) == expected
    assert fan.class_of() == fan.class_of(list(fan.cones))


def test_orbit_count_consistency():
    for name in ("P1", "P2", "P1xP1", "A1", "A2", "Gm"):
        fan = builtin_fan(name)
        cls = fan.class_of()
        for q in (2, 3, 4, 5):
            assert sum(c * q ** e for e, c in cls.lpolynomial()) == fan.orbit_count(q)


def test_smooth_complete_class_matches_h_vector():
    from kvar.measures import h_vector

    for fan in (builtin_fan("P2"), builtin_fan("P1xP1"),
                star_subdivide(builtin_fan("P2"), (1, 1)).fan,
                builtin_fan("P1").product(builtin_fan("P1xP1"))):
        assert fan.is_smooth() and fan.is_complete()
        coeffs = dict((e, c) for e, c in fan.class_of().lpolynomial())
        hv = h_vector(fan.face_counts(), fan.rank)
        assert tuple(coeffs.get(k, 0) for k in range(fan.rank + 1)) == hv
        assert all(c >= 0 for c in hv)


# -- star subdivision ------------------------------------------------------------------

def _star_square(fan, ray):
    return star_subdivision_square(ToricObject("X", fan), ray)


def _blowup_relation_holds(sq):
    return sq.base.kclass() + sq.E.kclass() == sq.C.kclass() + sq.Y.kclass()


def test_star_subdivide_p2_gives_f1():
    sd = star_subdivide(builtin_fan("P2"), (1, 1))
    assert len(sd.fan.rays) == 4
    assert sd.smooth_blowup
    assert sd.fan.class_of() == lpoly(1, 2, 1)
    sq = _star_square(builtin_fan("P2"), (1, 1))
    assert sq.E.kclass() == lpoly(1, 1)   # E = P1
    assert sq.C.kclass() == lpoly(1)      # C = pt
    assert _blowup_relation_holds(sq)


def test_star_subdivide_a2():
    sd = star_subdivide(builtin_fan("A2"), (1, 1))
    assert len([c for c in sd.fan.maximal_cones]) == 2
    assert sd.fan.class_of() == lpoly(0, 1, 1)


def test_star_subdivide_non_barycentric_is_abstract():
    sd = star_subdivide(builtin_fan("P2"), (1, 2))
    assert not sd.smooth_blowup  # not the blowup, still an abstract blowup square
    assert _blowup_relation_holds(_star_square(builtin_fan("P2"), (1, 2)))


def test_star_subdivide_errors():
    p2 = builtin_fan("P2")
    with pytest.raises(SubdivisionError):
        star_subdivide(p2, (1, 0))     # already a ray
    with pytest.raises(SubdivisionError):
        star_subdivide(builtin_fan("A2"), (-1, -1))  # outside the support
    with pytest.raises(NonPrimitiveRayError):
        star_subdivide(p2, (2, 2))


def test_star_subdivide_rank3():
    fan = builtin_fan("P1").product(builtin_fan("P2"))
    cone = sorted(fan.maximal_cones, key=lambda c: c.rays)[0]
    ray = toric.primitive(cone.representative())
    sd = star_subdivide(fan, ray)
    assert sd.smooth_blowup
    assert _blowup_relation_holds(_star_square(fan, ray))
    assert sd.fan.is_complete()


# -- completion ---------------------------------------------------------------------

def test_complete_surface_examples():
    assert complete_surface(builtin_fan("A1")) == builtin_fan("P1")
    assert complete_surface(builtin_fan("P1")) == builtin_fan("P1")
    assert complete_surface(builtin_fan("A2")) == builtin_fan("P2")


def test_complete_surface_always_contains_input():
    fans = [builtin_fan("A2"), builtin_fan("Gm"), build_fan(2, [], [()]),
            build_fan(2, [(1, 0), (-1, 0)], [(0,), (1,)]),
            build_fan(2, [(2, 1)], [(0,)]),
            star_subdivide(builtin_fan("A2"), (1, 1)).fan]
    for fan in fans:
        done = complete_surface(fan)
        assert done.is_complete()
        assert all(c in done.cones for c in fan.cones)


def test_complete_surface_rank_bound():
    # past rank 2 a fan that is neither complete nor a torus takes an
    # explicit completion; a complete fan is its own at any rank
    with pytest.raises(MissingCompactificationError, match="rank-3"):
        complete_surface(builtin_fan("A1").product(builtin_fan("A2")))
    p1_cubed = builtin_fan("P1").product(builtin_fan("P1xP1"))
    assert complete_surface(p1_cubed) is p1_cubed
    assert complete_surface(Fan(3, [Cone(3, ())])) is p1_cubed


@pytest.mark.parametrize("rank", [toric.MAX_TORUS_COMPLETION_RANK + 1, toric.MAX_FAN_FILE_RANK])
def test_a_torus_past_the_completion_bound_is_not_completed(rank):
    # (P1)^k has 3^k cones: past the bound the torus fails before building any
    torus = Fan(rank, [Cone(rank, ())])
    with pytest.raises(MissingCompactificationError, match=f"rank-{rank} torus"):
        complete_surface(torus)
    assert toric._p1_closure.__wrapped__ not in torus._flags


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_the_empty_fan_has_no_completion(rank):
    with pytest.raises(ToricError, match="^cannot complete the empty fan$"):
        complete_surface(Fan(rank, []))


# -- star fans and loci -----------------------------------------------------------------

def _star_locus(fan, sigma):
    """The orbit closure V(sigma): the cones of the fan having sigma as a face."""
    return ToricLocus(fan, [c for c in fan.cones if set(sigma.rays) <= set(c.rays)])


def test_orbit_closure_of_ray_in_p2_is_p1():
    v = _star_locus(builtin_fan("P2"), Cone(2, [(1, 0)]))
    assert v.is_closed() and v.is_compact()
    assert v.kclass() == lpoly(1, 1)


def test_orbit_closure_of_ray_in_singular_cone_is_not_compact():
    # V(ray (1,2)) inside a singular 2-cone is a line missing its point at
    # infinity, in a fan that is not complete
    fan = build_fan(2, [(1, 2), (1, 0)], [(0, 1)])
    v = _star_locus(fan, Cone(2, [(1, 2)]))
    assert v.is_closed() and not v.is_compact()
    assert v.kclass() == lpoly(0, 1)
    assert _star_locus(fan, fan.maximal_cones[0]).is_compact()  # a point


def test_orbit_closure_is_compact_when_the_completion_adds_no_cone_over_it():
    # V_S(sigma) is open and dense in V_X(sigma), which is proper for a
    # complete X containing S; so V_S(sigma) is proper exactly when X has no
    # cone over sigma that S lacks
    corp = corpus.generate(1, 10)
    pairs = [(obj.fan, obj.fan.subfan(window)) for obj, window in corp.pairs_xu if window]
    for name in ("A2", None):
        sub = builtin_fan(name) if name else build_fan(2, [(1, 2), (1, 0)], [(0, 1)])
        pairs.append((complete_surface(sub), sub))
    # a maximal cone that is not full-dimensional, away from some stars
    p2 = builtin_fan("P2")
    pairs.append((p2, Fan.from_cones(2, [Cone(2, [(1, 0), (0, 1)]), Cone(2, [(-1, -1)])])))
    seen = set()
    for full, sub in pairs:
        assert full.is_complete()
        for sigma in sub.cones:
            over = [c for c in full.cones if set(sigma.rays) <= set(c.rays)]
            proper = all(sub.contains_cone(c) for c in over)
            assert _star_locus(sub, sigma).is_compact() is proper, (sub, sigma)
            seen.add(proper)
    assert seen == {True, False}


def test_locus_flags_and_classes():
    p2 = builtin_fan("P2")
    torus = ToricLocus(p2, [c for c in p2.cones if c.dim == 0])
    assert not torus.is_closed() and not torus.is_compact()
    boundary = ToricLocus(p2, p2.cones - torus.cones)
    assert boundary.is_closed() and boundary.is_compact()
    assert boundary.kclass() == lpoly(0, 3)
    assert boundary.dim == 1
    assert ToricLocus(p2, []).dim == -1


def test_a_locus_names_the_cone_that_is_not_in_its_fan():
    p2 = builtin_fan("P2")
    stray = Cone(2, [(1, 1)])
    with pytest.raises(ToricError, match=r"Cone\(\(1, 1\),\) is not a cone of the ambient"):
        ToricLocus(p2, [c for c in p2.cones if c.dim == 0] + [stray])
    # the zero cone of another rank has the rays of p2's zero cone, but is
    # not a cone of p2
    with pytest.raises(ToricError, match="not a cone of the ambient"):
        ToricLocus(p2, [Cone(1, [])])


def test_a_fan_answers_only_for_its_own_rank():
    # the rank-1 zero cone has the rays of P2's zero cone, but is no cone of P2
    p2, other_zero = builtin_fan("P2"), Cone(1, ())
    assert not p2.contains_cone(other_zero)
    with pytest.raises(ToricError, match="is not a cone of the fan"):
        p2.class_of([other_zero])
    kept = set(p2._flags)
    with pytest.raises(ToricError, match=r"^point \(1,\) does not have length 2$"):
        p2.smallest_containing((1,))
    assert set(p2._flags) == kept


def test_variety_flags():
    assert builtin_fan("P2").is_compact()
    assert not builtin_fan("A2").is_compact()
    assert Fan(2, []).is_compact()  # the empty variety is proper


def test_alternative_completion_subdivides_a_cone_the_fan_lacks():
    a2 = builtin_fan("A2")
    completion = complete_surface(a2)
    outside = [c for c in completion.maximal_cones if not a2.contains_cone(c)]
    first = alternative_completion(a2)
    assert first == star_subdivide(completion, toric.primitive(outside[0].representative())).fan
    last = alternative_completion(a2, pick=lambda cones: cones[-1])
    assert last == star_subdivide(completion, toric.primitive(outside[-1].representative())).fan
    assert first.is_complete() and all(first.contains_cone(c) for c in a2.cones)
    # a complete fan lacks no cone of itself, and a rank-1 completion has no
    # 2-cone at all
    assert alternative_completion(builtin_fan("P2")) is None
    assert alternative_completion(builtin_fan("A1")) is None


def test_orbit_of_is_the_cone_holding_the_representative():
    corp = corpus.generate(1, 10)
    for fan in corp.all_fans():
        for c in fan.cones:
            assert fan.orbit_of(c) is fan.smallest_containing(c.representative()) is c
    # cones of a subdivision are mostly not cones of the parent fan
    for sq in corp.squares:
        parent = sq.base.fan
        for c in sq.Y.fan.cones:
            assert parent.orbit_of(c) is parent.smallest_containing(c.representative())


def test_builtin_fan_names():
    for name in toric.BUILTIN_FAN_NAMES:
        builtin_fan(name)
    assert builtin_fan("Hirzebruch(3)").is_complete()
    assert builtin_fan("Hirzebruch(-2)").is_complete()
    assert builtin_fan("Hirzebruch(0)") == builtin_fan("P1xP1")
    with pytest.raises(toric.ToricError):
        builtin_fan("P9000x")


@pytest.mark.parametrize("name", ["Hirzebruch(x)", "Hirzebruch()", "Hirzebruch(1.5)",
                                  "Hirzebruch( 1)", "Hirzebruch(" + "9" * 5000 + ")"])
def test_hirzebruch_takes_an_integer(name):
    with pytest.raises(toric.ToricError):
        builtin_fan(name)


def _maximal_by_subset_scan(fan):
    """Reference: the cones whose ray set no other cone's ray set contains."""
    return tuple(sorted((c for c in fan.cones
                         if not any(set(c.rays) < set(o.rays) for o in fan.cones)),
                        key=lambda c: c.rays))


def test_maximal_cones_match_the_subset_scan():
    corp = corpus.generate(1, 10)
    fans = [builtin_fan(n) for n in toric.BUILTIN_FAN_NAMES]
    fans += [Fan(2, []), builtin_fan("P1").product(builtin_fan("Gm"))]
    fans += corp.all_fans()
    fans += [obj.fan.subfan(window) for obj, window in corp.pairs_xu]
    fans += [a.fan.product(b.fan) for a, b in corp.kunneth_pairs]
    for fan in fans:
        assert fan.maximal_cones == _maximal_by_subset_scan(fan)
    assert builtin_fan("Gm").maximal_cones == (Cone(1, []),)


@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=4))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_cone_from_an_iterator_is_the_cone_from_a_list(rays):
    # the same interned cone, or the same error
    outcomes = []
    for given_rays in (iter(rays), list(rays)):
        try:
            outcomes.append(Cone(2, given_rays))
        except toric.ToricError as exc:
            outcomes.append(type(exc))
    assert outcomes[0] is outcomes[1]


def _closed_by_definition(fan: Fan, cones: frozenset) -> bool:
    """With each cone, every fan cone that has it as a face."""
    return all(tau in cones for c in cones for tau in fan.cones
               if set(c.rays) <= set(tau.rays))


@pytest.mark.parametrize("name", ["P1", "A2", "P2", "Hirzebruch(1)"])
def test_memoised_closedness_is_the_definition_on_every_cone_subset(name):
    fan = builtin_fan(name)
    cones = sorted(fan.cones, key=lambda c: c.rays)
    subsets = [frozenset(s) for k in range(len(cones) + 1)
               for s in itertools.combinations(cones, k)]
    for subset in subsets:
        expected = _closed_by_definition(fan, subset)
        assert ToricLocus(fan, subset).is_closed() is expected
        assert ToricLocus(fan, subset).kclass() == fan.class_of(subset)
    for subset in subsets:  # again, from the fan's memo
        assert ToricLocus(fan, list(subset)).is_closed() is _closed_by_definition(fan, subset)
        assert ToricLocus(fan, list(subset)).kclass() == fan.class_of(subset)
    for memo in (toric._is_upward_closed.__wrapped__, toric._locus_class.__wrapped__):
        assert sum(k[0] is memo for k in fan._flags if isinstance(k, tuple)) == len(subsets)


# -- common refinement ------------------------------------------------------------

def _p1xp2_star(ray):
    return star_subdivide(builtin_fan("P1").product(builtin_fan("P2")), ray).fan


def _octant():
    return Fan.from_cones(3, [Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])])


def _refinement_pairs():
    """Pairs of fans of one support: star subdivisions of P1xP2 (the rays
    of the rank-3 c_complete cases), of the octant, which is not
    complete, and the corpus squares' Y and X at size 10."""
    pairs = [(_p1xp2_star(a), _p1xp2_star(b))
             for a, b in (((1, 1, 1), (1, 2, 1)), ((1, 1, 0), (1, 0, 1)),
                          ((-1, 1, 1), (1, 1, 1)))]
    pairs.append((star_subdivide(_octant(), (1, 1, 1)).fan,
                  star_subdivide(_octant(), (1, 1, 0)).fan))
    pairs.append((star_subdivide(builtin_fan("A2"), (1, 2)).fan,
                  star_subdivide(builtin_fan("A2"), (2, 1)).fan))
    pairs += list(dict.fromkeys((sq.Y.fan, sq.base.fan) for sq in corpus.generate(1, 10).squares))
    return pairs


def test_the_common_refinement_is_the_fan_of_all_meets():
    pairs = _refinement_pairs()
    assert {a.rank for a, _ in pairs} == {2, 3}
    assert not all(a.is_complete() for a, _ in pairs)
    for a, b in pairs:
        refined = toric.common_refinement(a, b)
        assert refined.cones == {s.intersect(t) for s in a.cones for t in b.cones}
        assert toric.common_refinement(b, a) is refined
        assert toric.common_refinement(a, a) is a
        for c in refined.cones:  # each cone lies in a cone of both fans
            assert a.smallest_containing_cone(c) is not None
            assert b.smallest_containing_cone(c) is not None


def test_fans_of_different_supports_have_no_common_refinement():
    octant = _octant()
    cube = builtin_fan("P1xP1").product(builtin_fan("P1"))
    sliced = Fan.from_cones(2, star_subdivide(builtin_fan("P2"), (1, 1)).fan.maximal_cones[1:])
    for a, b in ((octant, cube), (sliced, builtin_fan("P2")),
                 (builtin_fan("A1"), builtin_fan("P1")), (builtin_fan("P1"), builtin_fan("P2"))):
        for x, y in ((a, b), (b, a)):
            for _ in range(2):  # raised again, not kept
                with pytest.raises(toric.ToricError):
                    toric.common_refinement(x, y)


# -- what each interned fan keeps ------------------------------------------------

def _smallest_containing_cone_by_definition(fan: Fan, cone: Cone):
    containing = [t for t in fan.cones if all(t.contains(r) for r in cone.rays)]
    return min(containing, key=lambda t: t.dim) if containing else None


def test_each_kept_fan_construction_is_its_fresh_computation():
    from kvar import csupport, spansite
    corp = corpus.generate(1, 200)
    fans = list(dict.fromkeys(corp.all_fans()))  # interned: one object per fan
    for fan in fans:
        for cone in fan.maximal_cones:
            ray = toric.primitive(cone.representative())
            sd = star_subdivide(fan, ray)
            assert (sd.fan, sd.center, sd.smooth_blowup) \
                == toric._star_parts.__wrapped__(fan, ray)
            assert sd.parent is fan and sd.new_ray == ray
            assert star_subdivide(fan, list(ray)).fan is sd.fan
    for y, x in dict.fromkeys((sq.Y.fan, sq.base.fan) for sq in corp.squares):
        for a, b in ((y, x), (x, y)):
            for c in a.cones:
                expected = _smallest_containing_cone_by_definition(b, c)
                assert b.smallest_containing_cone(c) is expected
                assert b.smallest_containing_cone(c) is expected  # kept
            refined = toric.common_refinement(a, b)
            assert refined is toric.common_refinement.__wrapped__(a, b)
            assert toric.common_refinement(a, b) is refined
    for u_obj, *completions in corp.independence:
        for completion in completions:
            sign, boundary = csupport.compact_terms(u_obj, completion)[1]
            assert sign == -1 and boundary == ToricLocus(completion, [
                c for c in completion.cones if not u_obj.fan.contains_cone(c)])
            assert csupport.compact_terms(u_obj, completion)[1][1] is boundary  # kept
    # every open of the battery: additivity windows and Mayer-Vietoris
    # windows; a subfan of a complete fan keeps its completeness and, at rank
    # 2 with every ray, its completion as proven, not computed
    windows = corp.pairs_xu + [(obj, w) for obj, u, v in corp.mv_triples for w in (u, v, u & v)]
    inherited = 0
    for obj, window in windows:
        sub = obj.fan.subfan(window)
        assert sub is Fan(obj.fan.rank, window) and obj.fan.subfan(set(window)) is sub
        assert sub.is_complete() is Fan.is_complete.__wrapped__(sub)
        if not sub.is_complete() and not sub.is_empty():
            completion = complete_surface(sub)
            assert completion is toric._gap_filled.__wrapped__(sub)
            assert complete_surface(sub) is completion
            assert sub._flags[toric._gap_filled.__wrapped__] is completion
            inherited += completion is obj.fan
    assert inherited > 0
    for fan in fans:  # a complete fan is its own completion and keeps none
        if fan.rank <= 2:
            assert complete_surface(fan) is fan
            assert toric._gap_filled.__wrapped__ not in fan._flags


def test_a_ray_keeps_one_subdivision_whatever_the_type_of_its_entries():
    fan = toric.hirzebruch_fan(5)
    by_bool = star_subdivide(fan, (True, 1))
    by_int = star_subdivide(fan, (1, 1))
    assert by_bool == by_int and by_bool.fan is by_int.fan
    star = toric._star_parts.__wrapped__
    kept = [k for k in fan._flags if isinstance(k, tuple) and k[0] is star]
    assert kept == [(star, (1, 1))]
    assert [type(x) for x in kept[0][1]] == [int, int]
    assert [type(x) for x in by_bool.new_ray] == [int, int]


def test_a_bad_ray_raises_on_every_call_and_is_not_kept():
    fan = toric.hirzebruch_fan(6)
    for _ in range(2):
        with pytest.raises(NonPrimitiveRayError):
            star_subdivide(fan, (2, 2))
        with pytest.raises(NonPrimitiveRayError):
            star_subdivide(fan, (0, 0))
        with pytest.raises(SubdivisionError, match="cone of dimension 1"):
            star_subdivide(fan, (1, 0))
    a2 = Fan.from_cones(2, [Cone(2, [(1, 0), (1, 5)])])
    for _ in range(2):
        with pytest.raises(SubdivisionError, match="outside the support"):
            star_subdivide(a2, (-1, -1))
    star = toric._star_parts.__wrapped__
    assert not [k for f in (fan, a2) for k in f._flags
                if isinstance(k, tuple) and k[0] is star]
    star_subdivide(fan, (1, 1))  # the filter above does see a kept subdivision
    assert [k for k in fan._flags if isinstance(k, tuple) and k[0] is star] == [(star, (1, 1))]


def _build_and_keep():
    """Fans no other test builds, with every kept construction filled in,
    the common refinement both ways round, and a product with the builtin
    P1; returns their table keys."""
    from kvar import csupport, spansite
    fan = build_fan(2, [(1, 0), (2, 7)], [(0, 1)])
    product = fan.product(builtin_fan("P1"))
    completion = complete_surface(fan)
    sd = star_subdivide(completion, toric.primitive(completion.maximal_cones[0].representative()))
    refined = toric.common_refinement(completion, sd.fan)
    toric.common_refinement(sd.fan, completion)
    csupport.compact_terms(spansite.ToricObject("U", fan), completion)
    for c in completion.cones:
        sd.fan.smallest_containing_cone(c)
    return [(f.rank, f.cones) for f in (fan, completion, sd.fan, refined, product)]


def test_a_dropped_fan_leaves_the_intern_table_with_what_it_keeps():
    keys = _build_and_keep()
    gc.collect()
    assert not [k for k in keys if k in Fan._interned]


def test_a_dropped_corpus_leaves_no_fan_in_the_intern_table():
    # a builtin fan is held while it is in use, and no longer: one held for
    # the whole process would keep each product and subdivision made from it
    code = """
import gc
from kvar import corpus, toric
p1 = toric.builtin_fan("P1")
assert toric.builtin_fan("P1") is p1
del p1
for seed in (1, 2):
    corp = corpus.generate(seed, 50)
    del corp
    gc.collect()
    print(len(toric.Fan._interned))
"""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(toric.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n0\n", "")


def test_fans_freed_after_their_module_globals_are_gone_write_nothing_to_stderr():
    # At exit the interpreter sets the globals of a module still referenced
    # to None, then frees what they held: here the builtin fans, and every
    # fan they keep.  The weak table's callbacks then compare table keys,
    # down to cones, whenever a key is not the one its entry was stored
    # under, as after the entry was replaced while an equal fan was alive.
    code = """
from kvar import corpus, spansite, toric
corp = corpus.generate(1, 10)
for sq in corp.squares:  # kept constructions that refer to each other
    toric.common_refinement(sq.Y.fan, sq.base.fan)
    toric.common_refinement(sq.base.fan, sq.Y.fan)
for fan in corp.all_fans():
    key = (fan.rank, fan.cones)
    del toric.Fan._interned[key]
    fresh = toric.Fan(fan.rank, sorted(fan.cones, key=lambda c: c.rays))
    toric.Fan._interned[key] = fan
del fan, sq, corp, fresh
for name in list(vars(toric)):
    if not name.startswith("__"):
        setattr(toric, name, None)
"""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(toric.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
