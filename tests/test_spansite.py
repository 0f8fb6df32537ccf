"""Spans, distinguished squares, simple covers, and the instance checks."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from kvar import corpus, kring, toric
from kvar.spansite import (
    EMPTY,
    DeclaredObject,
    DistinguishedSquare,
    IsoNode,
    SitePresentation,
    SpanError,
    SpanMorphism,
    SquareNode,
    TORIC_ID,
    ToricLocusObject,
    ToricObject,
    check_c_complete,
    check_dim_compatible,
    compose,
    declared_square,
    enumerate_simple_covers,
    identity_cover,
    identity_span,
    localization_square,
    square_cover,
    star_subdivision_square,
    validate_square,
    zero_span,
    _common_refinement_square,
)
from kvar.toric import Cone, builtin_fan


@pytest.fixture
def p2():
    return ToricObject("P2", builtin_fan("P2"))


@pytest.fixture
def p1():
    return ToricObject("P1", builtin_fan("P1"))


def a1_window(p1_obj):
    return frozenset(c for c in p1_obj.fan.cones if c.dim == 0 or (1,) in c.rays)


# -- composition ------------------------------------------------------------------

def test_compose_restrictions_pull_back_windows(p1):
    a1 = ToricObject("A1", builtin_fan("A1"))
    gm = ToricObject("Gm", builtin_fan("Gm"))
    first = SpanMorphism(p1, a1, a1_window(p1))
    second = SpanMorphism(a1, gm, frozenset(c for c in a1.fan.cones if c.dim == 0))
    out = compose(second, first)
    assert out.source is p1 and out.target is gm
    assert {c.dim for c in out.window} == {0}  # the window is Gm


def test_identity_is_a_two_sided_unit(p1):
    a1 = ToricObject("A1", builtin_fan("A1"))
    span = SpanMorphism(p1, a1, a1_window(p1))
    assert compose(span, identity_span(p1)) == span
    assert compose(identity_span(a1), span) == span


def test_zero_span_absorbs(p1):
    a1 = ToricObject("A1", builtin_fan("A1"))
    span = SpanMorphism(p1, a1, a1_window(p1))
    assert compose(zero_span(a1, p1), span).is_zero()
    assert compose(span, zero_span(a1, p1)).is_zero()


def test_composition_is_associative_on_toric_triples(p2):
    f1_fan, sq = star_subdivision_square(p2, (1, 1))
    f2_fan, sq2 = star_subdivision_square(sq.Y, (2, 1))
    h = SpanMorphism(p2, sq.base, frozenset(c for c in p2.fan.cones if c.dim == 0))
    g = sq.p_leg       # Y -> P2
    f = sq2.p_leg      # Y' -> Y
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


# -- squares ------------------------------------------------------------------------

def test_star_subdivision_square_validates(p2):
    _, sq = star_subdivision_square(p2, (1, 1))
    assert sq.kind == "smooth_blowup"
    report = validate_square(sq)
    assert report.ok and report.jointly_surjective
    assert {e.status for e in report.entries} == {"pass"}


def test_square_relation_from_corners(p2):
    _, sq = star_subdivision_square(p2, (1, 1))
    cls = sq.corner_classes()
    rep = kring.verify_square_relation(cls["upper_left"], cls["upper_right"],
                                       cls["lower_left"], cls["base"])
    assert rep.ok
    assert str(rep.lhs) == "2 + 2*L + L^2"


def test_localization_square_p1_a1(p1):
    sq = localization_square(p1, a1_window(p1))
    assert sq.corners["upper_left"].kclass() == kring.ONE  # one fixed point
    assert sq.corners["lower_left"] is EMPTY
    report = validate_square(sq)
    assert report.ok and report.jointly_surjective


def test_localization_square_degenerate_whole_space(p2):
    sq = localization_square(p2, p2.fan.cones)
    assert sq.corners["upper_left"].is_empty()
    assert validate_square(sq).ok


def test_localization_square_rejects_non_open(p2):
    ray = next(c for c in p2.fan.cones if c.dim == 1)
    with pytest.raises(toric.NotFaceClosedError):
        localization_square(p2, frozenset({ray}))


def weighted_square():
    """A weighted star square of P(1,1,2), whose cone on (1,0) and (-1,-2)
    is singular: the ray (1,-2) is 2(1,0) + (-1,-2), not the barycenter."""
    x_obj = ToricObject("P112", toric.build_fan(2, [(1, 0), (0, 1), (-1, -2)],
                                                [(0, 1), (1, 2), (0, 2)]))
    assert not x_obj.smooth and x_obj.complete
    return star_subdivision_square(x_obj, (1, -2))[1]


def refinement_square():
    """The square over one blowup of P2 of its common refinement with
    another: W has both new rays."""
    p2 = ToricObject("P2", builtin_fan("P2"))
    _, one = star_subdivision_square(p2, (1, 1))
    _, other = star_subdivision_square(p2, (1, 2))
    return _common_refinement_square(one.Y, other.Y)


SQUARES = {
    "smooth star": lambda: star_subdivision_square(ToricObject("P2", builtin_fan("P2")),
                                                   (1, 1))[1],
    "weighted star": weighted_square,
    "refinement": refinement_square,
}


def _replaced(sq, role, obj, leg, span):
    """``sq`` with the corner ``role`` and the leg ``leg`` replaced."""
    return DistinguishedSquare(sq.kind, dict(sq.corners, **{role: obj}),
                               dict(sq.maps, **{leg: span}), sq.provenance)


def _first(cones, outside):
    """The 2-cone of ``cones`` outside ``outside`` with the least rays."""
    return min((c for c in cones if c.dim == 2 and c not in outside), key=lambda c: c.rays)


def _wrong_point(sq):
    point = _first(sq.base.cones, sq.C.cones)
    c_obj = ToricLocusObject("C'", toric.ToricLocus(sq.base.fan, [point]))
    return _replaced(sq, "lower_left", c_obj, "bottom",
                     SpanMorphism(c_obj, sq.base, c_obj.cones))


def _wrong_exceptional_set(sq):
    cones = sq.E.cones | {_first(sq.Y.cones, sq.E.cones)}
    e_obj = ToricLocusObject("E'", toric.ToricLocus(sq.Y.fan, cones))
    return _replaced(sq, "upper_left", e_obj, "top", SpanMorphism(e_obj, sq.Y, cones))


def _center_of_another_fan(sq):
    other = toric.Fan.from_cones(2, sq.C.cones)
    assert other != sq.base.fan
    c_obj = ToricLocusObject("C'", toric.ToricLocus(other, sq.C.cones))
    assert c_obj.locus.is_closed() and c_obj.cones == sq.C.cones
    return _replaced(sq, "lower_left", c_obj, "bottom",
                     SpanMorphism(c_obj, sq.base, c_obj.cones))


@pytest.mark.parametrize("name", SQUARES)
def test_a_toric_blowup_square_validates_from_its_corners(name):
    sq = SQUARES[name]()
    report = validate_square(sq)
    assert {e.status for e in report.entries} == {"pass"} and report.jointly_surjective
    assert [e.condition for e in report.entries] == [
        "square is Cartesian (E is the preimage of C)", "i is a closed immersion",
        "p is proper", "restriction off the center is an isomorphism"]


@pytest.mark.parametrize("fault", [_wrong_point, _wrong_exceptional_set,
                                   _center_of_another_fan])
@pytest.mark.parametrize("name", SQUARES)
def test_a_planted_fault_in_a_blowup_square_fails(name, fault):
    report = validate_square(fault(SQUARES[name]()))
    assert not report.ok
    assert report.entries[0].status == "fail"  # E is not the preimage of C


def test_the_builder_gives_a_star_square_the_center_and_exceptional_cones():
    squares = [SQUARES["smooth star"](), weighted_square()]
    squares += corpus.generate(1, 10).squares
    for sq in squares:
        sd = sq.provenance
        assert sq.C.cones == frozenset(sd.center_cones)
        assert sq.E.cones == frozenset(sd.exceptional_cones)
        assert sq.kind == ("smooth_blowup" if sd.smooth_blowup else "abstract_blowup")
    assert weighted_square().kind == "abstract_blowup"
    assert refinement_square().kind == "abstract_blowup"


def _cover_squares(cover):
    if isinstance(cover.node, SquareNode):
        yield cover.node.square
        yield from _cover_squares(cover.node.over_upper)
        yield from _cover_squares(cover.node.over_lower)


def test_every_square_behind_a_c_complete_cover_validates():
    corp = corpus.generate(1, 200)
    squares = {}
    for sq, f in corp.c_complete_cases:
        verdict = check_c_complete(corp.site, sq, f)
        if verdict.found:
            squares.update((id(s), s) for s in _cover_squares(verdict.cover))
    refinements = [s for s in squares.values() if isinstance(s.provenance, tuple)
                   and s.kind == "abstract_blowup"]
    assert (len(squares), len(refinements)) == (811, 331)
    for sq in squares.values():
        report = validate_square(sq)
        assert report.ok and report.jointly_surjective, (sq, report.entries)


def test_a_localization_square_validates_from_its_corners(p2):
    torus = frozenset(c for c in p2.fan.cones if c.dim == 0)
    sq = localization_square(p2, torus)
    assert sq.provenance == (p2.fan, torus)
    assert validate_square(sq).ok
    bad = ToricLocusObject("bd'", toric.ToricLocus(p2.fan, p2.fan.cones - torus
                                                   - {_first(p2.fan.cones, ())}))
    faulty = _replaced(sq, "upper_left", bad, "top", SpanMorphism(bad, p2, bad.cones))
    assert validate_square(faulty).entries[0].status == "fail"


def test_declared_square_missing_flag_fails():
    corners = {
        "upper_left": DeclaredObject("E", 1, True),
        "upper_right": DeclaredObject("Y", 2, True),
        "lower_left": DeclaredObject("C", 0, True),
        "base": DeclaredObject("X", 2, True),
    }
    flags = {"cartesian": True, "closed_immersion": True, "proper": True}
    sq = declared_square("abstract_blowup", corners, flags)
    report = validate_square(sq)
    assert not report.ok
    assert any("off_center_iso undeclared" in e.note for e in report.entries)
    trusted = declared_square("abstract_blowup", corners,
                              dict(flags, off_center_iso=True))
    assert validate_square(trusted).ok


# -- simple covers -----------------------------------------------------------------

def test_cover_enumeration_depths(p2):
    site = SitePresentation()
    site.add_object(p2)
    _, sq = star_subdivision_square(p2, (1, 1))
    site.add_square(sq)
    depth0 = enumerate_simple_covers(site, p2, 0)
    assert [len(c.leaves()) for c in depth0] == [1]  # only the identity
    depth1 = enumerate_simple_covers(site, p2, 1)
    assert any(len(c.leaves()) == 2 for c in depth1)
    # stacked squares give the three-leaf cover at depth 2
    _, sq2 = star_subdivision_square(sq.Y, (2, 1))
    site.add_square(sq2)
    depth2 = enumerate_simple_covers(site, p2, 2)
    assert any(len(c.leaves()) == 3 for c in depth2)
    keys1 = {c.key() for c in enumerate_simple_covers(site, p2, 1)}
    keys2 = {c.key() for c in depth2}
    assert keys1 <= keys2


def test_one_identity_cover_per_object_in_one_enumeration(p2):
    # the empty object is the lower-left corner of both localization
    # squares, so it is covered at depths 1 and 0 below U2
    chart = max(p2.fan.maximal_cones, key=lambda c: c.rays)
    sq1 = localization_square(p2, chart.faces(), u_name="U1")
    ray = next(c for c in chart.faces() if c.dim == 1)
    sq2 = localization_square(sq1.base, ray.faces(), u_name="U2")
    site = SitePresentation()
    site.add_object(p2)
    site.add_square(sq1)
    site.add_square(sq2)
    identities = {}

    def walk(cover):
        if isinstance(cover.node, IsoNode):
            identities.setdefault(cover.root.name, set()).add(id(cover))
        else:
            walk(cover.node.over_upper)
            walk(cover.node.over_lower)

    covers = enumerate_simple_covers(site, sq2.base, 2)
    for cover in covers:
        walk(cover)
    assert set(identities) == {"U2", "U1", "P2", EMPTY.name}
    assert all(len(ids) == 1 for ids in identities.values())
    assert identity_cover(sq2.base).key() in {c.key() for c in covers}
    # one dict of identity covers, passed to every depth's enumeration
    shared = {}
    by_depth = [enumerate_simple_covers(site, sq2.base, d, shared) for d in range(3)]
    identities.clear()
    for cover in by_depth[1] + by_depth[2]:
        walk(cover)
    assert all(len(ids) == 1 for ids in identities.values())
    assert [[c.key() for c in covers] for covers in by_depth] == [
        [c.key() for c in enumerate_simple_covers(site, sq2.base, d)] for d in range(3)]


def test_enumerated_covers_are_jointly_surjective(p2):
    site = SitePresentation()
    site.add_object(p2)
    _, sq = star_subdivision_square(p2, (1, 1))
    site.add_square(sq)
    site.add_square(localization_square(p2, frozenset(
        c for c in p2.fan.cones if c.dim == 0), u_name="torus", complement_name="bd"))
    for obj in (p2, sq.Y):
        for cover in enumerate_simple_covers(site, obj, 2):
            assert cover.jointly_surjective()


def test_cover_replay_matches_leaves(p2):
    _, sq = star_subdivision_square(p2, (1, 1))
    cover = square_cover(sq)
    leaves = cover.leaves()
    assert len(leaves) == 2
    assert {leaf.target.name for leaf in leaves} == {"P2"}
    assert cover.depth() == 1


# -- c-completeness ----------------------------------------------------------------

def test_c_complete_identity_and_legs(p2):
    site = SitePresentation()
    site.add_object(p2)
    _, sq = star_subdivision_square(p2, (1, 1))
    site.add_square(sq)
    assert check_c_complete(site, sq, identity_span(p2)).found
    assert check_c_complete(site, sq, sq.p_leg).found
    assert check_c_complete(site, sq, sq.i_leg).found
    assert check_c_complete(site, sq, zero_span(sq.Y, p2)).found


def test_c_complete_at_depth_zero_finds_the_covers_of_depth_zero(p2):
    site = SitePresentation()
    site.add_object(p2)
    _, sq = star_subdivision_square(p2, (1, 1))
    site.add_square(sq)
    for f in (zero_span(sq.Y, p2), sq.p_leg):
        verdict = check_c_complete(site, sq, f, depth=0)
        assert verdict.found and verdict.depth_used == 0
    # the identity needs the square itself: one application of the rule
    assert not check_c_complete(site, sq, identity_span(p2), depth=0).found
    verdict = check_c_complete(site, sq, identity_span(p2), depth=1)
    assert verdict.found and verdict.depth_used == 1


def test_c_complete_pullback_along_other_blowdown(p2):
    site = SitePresentation()
    site.add_object(p2)
    _, sq = star_subdivision_square(p2, (1, 1))
    site.add_square(sq)
    _, other = star_subdivision_square(p2, (1, 2))
    verdict = check_c_complete(site, sq, other.p_leg)
    assert verdict.found and verdict.cover is not None
    assert verdict.cover.depth() <= 3


def test_c_complete_open_immersion_into_blowup_base(p2):
    a2 = ToricObject("A2", builtin_fan("A2"))
    _, sq = star_subdivision_square(a2, (1, 1))
    f = SpanMorphism(p2, a2, frozenset(a2.fan.cones))
    verdict = check_c_complete(SitePresentation(), sq, f)
    assert verdict.found
    assert "larger fan" in verdict.note


def test_c_complete_localization_restriction_span(p2):
    a2_cones = frozenset(builtin_fan("A2").cones)
    lsq = localization_square(p2, a2_cones, u_name="U")
    alt = ToricObject("Q", builtin_fan("P1xP1"))
    f = SpanMorphism(alt, lsq.base, a2_cones)
    verdict = check_c_complete(SitePresentation(), lsq, f)
    assert verdict.found
    assert verdict.cover.depth() <= 3


def test_c_complete_localization_refinement_onto_base(p2):
    a2_cones = frozenset(builtin_fan("A2").cones)
    lsq = localization_square(p2, a2_cones, u_name="U")
    bl = toric.star_subdivide(builtin_fan("A2"), (1, 1)).fan
    f = SpanMorphism(ToricObject("Bl", bl), lsq.base, frozenset(bl.cones))
    verdict = check_c_complete(SitePresentation(), lsq, f)
    assert verdict.found


def test_c_complete_of_a_full_window_span_that_is_not_proper(p2):
    # the open 1-skeleton of P2, mapped into P2 with all its cones as the
    # window: not proper, so there is no refinement to pull the square back
    # along
    from kvar.spansite import _proper_status
    skeleton = ToricObject("U", p2.fan.subfan(c for c in p2.fan.cones if c.dim <= 1))
    f = SpanMorphism(skeleton, p2, skeleton.fan.cones, TORIC_ID, "inclusion")
    assert _proper_status(f).status == "fail"
    _, sq = star_subdivision_square(p2, (1, 1))
    verdict = check_c_complete(SitePresentation(), sq, f)
    assert (verdict.found, verdict.cover, verdict.depth_used, verdict.note) == (
        False, None, None, "not proper")


def test_c_complete_not_found_is_reported():
    # a declared square offers the search nothing to work with
    corners = {
        "upper_left": DeclaredObject("E", 1, True),
        "upper_right": DeclaredObject("Y", 2, True),
        "lower_left": DeclaredObject("C", 0, True),
        "base": DeclaredObject("X", 2, True),
    }
    sq = declared_square("abstract_blowup", corners, {})
    f = SpanMorphism(DeclaredObject("Z", 2, True), corners["base"], "all",
                     ("declared", "f"), "declared")
    verdict = check_c_complete(SitePresentation(), sq, f)
    assert not verdict.found
    assert verdict.note


# -- dimension compatibility ---------------------------------------------------------

def test_dim_compatible_blowup_direct(p2):
    _, sq = star_subdivision_square(p2, (1, 1))
    assert check_dim_compatible(sq).kind == "direct"


def test_dim_compatible_localization_dense(p2):
    sq = localization_square(p2, frozenset(builtin_fan("A2").cones))
    assert check_dim_compatible(sq).kind == "direct"


def test_dim_compatible_empty_window(p2):
    sq = localization_square(p2, frozenset())
    verdict = check_dim_compatible(sq)
    assert verdict.kind == "refined" and verdict.refined == []


def test_dim_compatible_declared_closure_refinement():
    # a declared non-dense open: refine over the declared closure
    u = DeclaredObject("U", 1, False)
    x = DeclaredObject("X", 2, False)
    corners = {"upper_left": DeclaredObject("XminusU", 2, False),
               "upper_right": x, "lower_left": EMPTY, "base": u}
    sq = declared_square("localization", corners,
                         {"closure": {"closure": "Ubar", "boundary": "UbarMinusU",
                                      "boundary_dim": 0}})
    verdict = check_dim_compatible(sq)
    assert verdict.kind == "refined"
    assert len(verdict.refined) == 1
    assert check_dim_compatible(verdict.refined[0]).kind == "direct"


def test_dim_compatible_declared_failure_without_data():
    corners = {"upper_left": DeclaredObject("E2", 2, False),
               "upper_right": DeclaredObject("Y2", 2, False),
               "lower_left": DeclaredObject("C2", 2, False),
               "base": DeclaredObject("X2", 2, False)}
    sq = declared_square("abstract_blowup", corners, {})
    assert check_dim_compatible(sq).kind == "fail"


def test_support_comparison_detects_slivers():
    from kvar.spansite import _covers_support

    p2_fan = builtin_fan("P2")
    f1 = toric.star_subdivide(p2_fan, (1, 1)).fan
    missing = Cone(2, [(1, 0), (1, 1)])
    partial = toric.Fan.from_cones(
        2, [c for c in f1.maximal_cones if c != missing])
    assert _covers_support(f1, p2_fan)
    assert not _covers_support(partial, p2_fan)
    assert _covers_support(partial, partial)
    assert not _covers_support(builtin_fan("A1"), builtin_fan("P1"))
    # a missing interior slice among many rays of one quadrant
    rays = [(1, 0), (3, 1), (2, 1), (1, 1), (1, 2), (1, 3), (0, 1)]
    quadrant = [Cone(2, [rays[i], rays[i + 1]]) for i in range(len(rays) - 1)]
    assert _covers_support(toric.Fan.from_cones(2, quadrant), builtin_fan("A2"))
    sliced = toric.Fan.from_cones(2, quadrant[:3] + quadrant[4:])
    assert not _covers_support(sliced, builtin_fan("A2"))


def octant_fan():
    return toric.Fan.from_cones(3, [Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])])


def test_support_comparison_at_rank_three():
    from kvar.spansite import _covers_support

    def without_one(fan):
        return toric.Fan.from_cones(fan.rank, fan.maximal_cones[1:])

    cube = builtin_fan("P1xP1").product(builtin_fan("P1"))
    subdivided = toric.star_subdivide(cube, (1, 1, 1)).fan
    assert _covers_support(subdivided, cube)
    assert not _covers_support(without_one(cube), cube)
    octant = octant_fan()
    split = toric.star_subdivide(octant, (1, 1, 1)).fan
    assert _covers_support(split, octant)
    assert not _covers_support(without_one(split), octant)


def test_a_rank_three_refinement_is_decided_proper():
    from kvar.spansite import _proper_status

    octant = barycentric = octant_fan()
    for ray in ((1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)):
        barycentric = toric.star_subdivide(barycentric, ray).fan
    assert len([c for c in barycentric.cones if c.dim == 3]) == 6
    a3 = ToricObject("A3", octant)
    entry = _proper_status(SpanMorphism(ToricObject("Y", barycentric), a3, barycentric.cones))
    assert (entry.status, entry.note) == ("pass", "window support equals target support")
    holed = toric.Fan.from_cones(3, barycentric.maximal_cones[1:])
    entry = _proper_status(SpanMorphism(ToricObject("Y0", holed), a3, holed.cones))
    assert entry.status == "fail"


# -- site files -------------------------------------------------------------------

def test_site_presentation_from_json():
    data = {
        "backend": "declared",
        "objects": [
            {"name": "X", "dim": 2, "compact": True},
            {"name": "Y", "dim": 2, "compact": True},
            {"name": "C", "dim": 0, "compact": True},
            {"name": "E", "dim": 1, "compact": True},
            {"name": "T", "dim": 2, "compact": True, "backend_ref": "P2"},
        ],
        "morphisms": [
            {"src": "Y", "window": "all", "map": "p", "tgt": "X"},
        ],
        "squares": [
            {"kind": "abstract_blowup",
             "corners": {"upper_left": "E", "upper_right": "Y",
                         "lower_left": "C", "base": "X"},
             "maps": {"cartesian": True, "closed_immersion": True,
                      "proper": True, "off_center_iso": True}},
        ],
    }
    site = SitePresentation.from_json(data)
    assert isinstance(site.objects["T"], ToricObject)
    assert len(site.squares) == 1
    assert validate_square(site.squares[0]).ok
    assert len(site.morphisms) == 1


_SITE_OBJECTS = [{"name": "X", "dim": 1, "compact": True},
                 {"name": "T", "dim": 2, "compact": True, "backend_ref": "P2"}]


@pytest.mark.parametrize("data, error, where", [
    ([], SpanError, "the top level"),
    ({"objects": "abc"}, SpanError, "must be lists"),
    ('{"objects": [', SpanError, "the top level"),
    ("[" * 100_000, SpanError, "the top level"),
    ({"objects": [{"dim": 1}]}, SpanError, "objects[0]: missing 'name'"),
    ({"objects": [{"name": "X", "dim": "one"}]}, SpanError, "objects[0]"),
    ({"objects": _SITE_OBJECTS, "morphisms": [{"src": "X", "tgt": "Z"}]},
     SpanError, "morphisms[0]: unknown object 'Z'"),
    ({"objects": _SITE_OBJECTS, "morphisms": [{"src": "T", "window": [[0], [7]], "tgt": "T"}]},
     SpanError, "morphisms[0]: a window ray index is not in 0..2"),
    ({"objects": _SITE_OBJECTS, "squares": [
        {"kind": "abstract_blowup",
         "corners": {"upper_left": "X", "upper_right": "X", "lower_left": "X"}}]},
     SpanError, "squares[0]: missing 'base'"),
    ({"objects": [{"name": "S", "backend_ref": "P9"}]}, toric.ToricError, "P9"),
])
def test_malformed_site_file_raises_a_typed_error(data, error, where):
    with pytest.raises(error) as info:
        SitePresentation.from_json(data)
    assert type(info.value) is error
    assert where in str(info.value) and "\n" not in str(info.value)


def test_squares_over_matches_a_scan_of_all_squares():
    site = corpus.generate(1, 10).site
    assert site.squares
    for obj in site.objects.values():
        expected = [sq for sq in site.squares if sq.base.name == obj.name]
        assert site.squares_over(obj) == expected


# -- spans valid by construction ------------------------------------------------------

def test_a_window_of_another_rank_than_the_target_is_rejected(p1, p2):
    with pytest.raises(SpanError, match="rank"):
        SpanMorphism(p1, p2, p1.cones)
    with pytest.raises(SpanError, match="rank"):
        SpanMorphism(p2, p1, frozenset(c for c in p2.cones if c.dim == 0))


def test_every_trusted_span_of_a_battery_validates_in_full(monkeypatch):
    from kvar import cli
    built = []
    trusted = SpanMorphism._valid_by_construction.__func__

    def collect(cls, *args):
        span = trusted(cls, *args)
        built.append(span)
        return span
    monkeypatch.setattr(SpanMorphism, "_valid_by_construction", classmethod(collect))
    cli.run_corpus_checks(cli.Report({}), 1, 50, ["euler", "e"])
    assert {span.proper_reason for span in built} == {"identity", "composite"}
    for span in built:
        span._validate()


def _relatively_open(span: SpanMorphism, subset) -> frozenset:
    """The cones of the source that are faces of a cone in ``subset``."""
    return frozenset(f for c in subset for f in c.faces() if f in span.source.cones)


@functools.lru_cache(maxsize=None)
def _composable_pairs() -> tuple:
    """(first, second) with first.target the source of second: the legs of
    the seed-1 corpus squares that compose, and each leg before and after an
    identity."""
    corp = corpus.generate(1, 10)
    pairs = []
    for sq in corp.squares + corp.loc_squares:
        legs = sq.maps
        pairs += [(legs["top"], legs["right"]), (legs["left"], legs["bottom"])]
        for leg in legs.values():
            pairs += [(leg, SpanMorphism(leg.target, leg.target, leg.target.cones)),
                      (SpanMorphism(leg.source, leg.source, leg.source.cones), leg)]
    return tuple((a, b) for a, b in pairs if not a.is_zero() and not b.is_zero())


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_composite_of_validated_spans_validates_in_full(data):
    first, second = data.draw(st.sampled_from(_composable_pairs()))
    windows = []
    for leg in (first, second):
        cones = sorted(leg.window, key=lambda c: c.rays)
        subset = data.draw(st.sets(st.sampled_from(cones), min_size=1))
        windows.append(_relatively_open(leg, subset))
    first = SpanMorphism(first.source, first.target, windows[0])
    second = SpanMorphism(second.source, second.target, windows[1])
    out = compose(second, first)
    out._validate()
    mid = second.source.fan
    assert out.window == {c for c in first.window if mid.orbit_of(c) in second.window}
