"""Spans, distinguished squares, simple covers, and the instance checks."""

import ast
import functools
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from kvar import corpus, kring, toric
from kvar.spansite import (
    DistinguishedSquare,
    SitePresentation,
    SpanError,
    SpanMorphism,
    ToricLocusObject,
    ToricObject,
    check_c_complete,
    check_dim_compatible,
    compose,
    enumerate_simple_covers,
    identity_cover,
    identity_span,
    in_sieve,
    localization_square,
    square_cover,
    star_subdivision_square,
    validate_square,
    zero_span,
    _common_refinement_square,
)
from kvar.csupport import MeasureOnCompacts, compact_terms, extend_measure
from kvar.measures import MeasureSpec
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
    sq = star_subdivision_square(p2, (1, 1))
    sq2 = star_subdivision_square(sq.Y, (2, 1))
    h = SpanMorphism(p2, sq.base, frozenset(c for c in p2.fan.cones if c.dim == 0))
    g = sq.p_leg       # Y -> P2
    f = sq2.p_leg      # Y' -> Y
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


# -- squares ------------------------------------------------------------------------

def test_star_subdivision_square_validates(p2):
    sq = star_subdivision_square(p2, (1, 1))
    assert sq.kind == "smooth_blowup"
    report = validate_square(sq)
    assert report.ok and report.jointly_surjective
    assert {e.status for e in report.entries} == {"pass"}


def test_square_relation_from_corners(p2):
    sq = star_subdivision_square(p2, (1, 1))
    rep = kring.verify_square_relation(sq.E.kclass(), sq.Y.kclass(),
                                       sq.C.kclass(), sq.base.kclass())
    assert rep.ok
    assert str(rep.lhs) == "2 + 2*L + L^2"


def test_localization_square_p1_a1(p1):
    sq = localization_square(p1, a1_window(p1))
    assert sq.E.kclass() == kring.ONE  # one fixed point
    empty = sq.C
    assert empty.is_empty() and empty.fan == toric.Fan(p1.fan.rank, ())
    report = validate_square(sq)
    assert report.ok and report.jointly_surjective


def test_localization_square_degenerate_whole_space(p2):
    sq = localization_square(p2, p2.fan.cones)
    assert sq.E.is_empty()
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
    return star_subdivision_square(x_obj, (1, -2))


def refinement_square():
    """The square over one blowup of P2 of its common refinement with
    another: W has both new rays."""
    p2 = ToricObject("P2", builtin_fan("P2"))
    one = star_subdivision_square(p2, (1, 1))
    other = star_subdivision_square(p2, (1, 2))
    return _common_refinement_square(one.Y, other.Y)


SQUARES = {
    "smooth star": lambda: star_subdivision_square(ToricObject("P2", builtin_fan("P2")),
                                                   (1, 1)),
    "weighted star": weighted_square,
    "refinement": refinement_square,
}


def _corners(sq):
    return sq.E, sq.Y, sq.C, sq.base


def _legs(sq):
    return sq.top, sq.p_leg, sq.left, sq.i_leg


def _first(cones, outside):
    """The 2-cone of ``cones`` outside ``outside`` with the least rays."""
    return min((c for c in cones if c.dim == 2 and c not in outside), key=lambda c: c.rays)


def _wrong_point(sq):
    point = _first(sq.base.cones, sq.C.cones)
    c_obj = ToricLocusObject("C'", toric.ToricLocus(sq.base.fan, [point]))
    return DistinguishedSquare(sq.kind, sq.E, sq.Y, c_obj, sq.base, sq.top, sq.p_leg, sq.left,
                               SpanMorphism(c_obj, sq.base, c_obj.cones), sq.provenance)


def _wrong_exceptional_set(sq):
    cones = sq.E.cones | {_first(sq.Y.cones, sq.E.cones)}
    e_obj = ToricLocusObject("E'", toric.ToricLocus(sq.Y.fan, cones))
    return DistinguishedSquare(sq.kind, e_obj, sq.Y, sq.C, sq.base,
                               SpanMorphism(e_obj, sq.Y, cones), sq.p_leg, sq.left, sq.i_leg,
                               sq.provenance)


def _center_of_another_fan(sq):
    other = toric.Fan.from_cones(2, sq.C.cones)
    assert other != sq.base.fan
    c_obj = ToricLocusObject("C'", toric.ToricLocus(other, sq.C.cones))
    assert c_obj.locus.is_closed() and c_obj.cones == sq.C.cones
    return DistinguishedSquare(sq.kind, sq.E, sq.Y, c_obj, sq.base, sq.top, sq.p_leg, sq.left,
                               SpanMorphism(c_obj, sq.base, c_obj.cones), sq.provenance)


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


def test_the_builder_gives_a_star_square_its_kind():
    squares = [SQUARES["smooth star"](), weighted_square()]
    squares += corpus.generate(1, 10).squares
    for sq in squares:
        assert sq.kind == ("smooth_blowup" if sq.provenance.smooth_blowup
                           else "abstract_blowup")
    assert weighted_square().kind == "abstract_blowup"
    assert refinement_square().kind == "abstract_blowup"


def _cover_squares(cover):
    if cover.square is not None:
        yield cover.square
        yield from _cover_squares(cover.upper)
        yield from _cover_squares(cover.lower)


def test_every_square_behind_a_c_complete_cover_validates():
    corp = corpus.generate(1, 200)
    squares = {}
    for sq, f in corp.c_complete_cases:
        verdict = check_c_complete(sq, f)
        if verdict.cover is not None:
            squares.update((id(s), s) for s in _cover_squares(verdict.cover))
    refinements = [s for s in squares.values() if isinstance(s.provenance, tuple)
                   and s.kind == "abstract_blowup"]
    assert (len(squares), len(refinements)) == (811, 331)
    for sq in squares.values():
        report = validate_square(sq)
        assert report.ok and report.jointly_surjective, (sq, report.entries)


def test_each_leg_runs_between_the_corners_the_diagram_names():
    corp = corpus.generate(1, 50)
    squares = {id(sq): sq for sq in corp.squares + corp.loc_squares}
    for sq, f in corp.c_complete_cases:
        verdict = check_c_complete(sq, f)
        if verdict.cover is not None:
            squares.update((id(s), s) for s in _cover_squares(verdict.cover))
    assert len(squares) == 210  # the 121 corpus squares are in covers too
    for sq in squares.values():
        ends = [(leg.source, leg.target) for leg in _legs(sq)]
        expected = [(sq.E, sq.Y), (sq.Y, sq.base), (sq.E, sq.C), (sq.C, sq.base)]
        assert all(a is c and b is d for (a, b), (c, d) in zip(ends, expected)), sq
    with pytest.raises(AttributeError):
        sq.base = sq.Y


def test_a_localization_square_validates_from_its_corners(p2):
    torus = frozenset(c for c in p2.fan.cones if c.dim == 0)
    sq = localization_square(p2, torus)
    assert sq.provenance == (p2.fan, torus)
    assert validate_square(sq).ok
    bad = ToricLocusObject("bd'", toric.ToricLocus(p2.fan, p2.fan.cones - torus
                                                   - {_first(p2.fan.cones, ())}))
    faulty = DistinguishedSquare(sq.kind, bad, sq.Y, sq.C, sq.base,
                                 SpanMorphism(bad, p2, bad.cones), sq.p_leg, sq.left, sq.i_leg,
                                 sq.provenance)
    assert validate_square(faulty).entries[0].status == "fail"


# -- simple covers -----------------------------------------------------------------

def test_cover_enumeration_depths(p2):
    site = SitePresentation()
    sq = star_subdivision_square(p2, (1, 1))
    site.add_square(sq)
    depth0 = enumerate_simple_covers(site, p2, 0)
    assert [len(c.leaves()) for c in depth0] == [1]  # only the identity
    depth1 = enumerate_simple_covers(site, p2, 1)
    assert any(len(c.leaves()) == 2 for c in depth1)
    # stacked squares give the three-leaf cover at depth 2
    sq2 = star_subdivision_square(sq.Y, (2, 1))
    site.add_square(sq2)
    depth2 = enumerate_simple_covers(site, p2, 2)
    assert any(len(c.leaves()) == 3 for c in depth2)
    keys1 = {c.key() for c in enumerate_simple_covers(site, p2, 1)}
    keys2 = {c.key() for c in depth2}
    assert keys1 <= keys2


def test_one_identity_cover_per_object_in_one_enumeration(p2):
    # each localization square has an empty corner C of its own,
    # covered at depth 1 or 0 below U2
    chart = max(p2.fan.maximal_cones, key=lambda c: c.rays)
    sq1 = localization_square(p2, chart.faces(), u_name="U1")
    ray = next(c for c in chart.faces() if c.dim == 1)
    sq2 = localization_square(sq1.base, ray.faces(), u_name="U2")
    site = SitePresentation()
    site.add_square(sq1)
    site.add_square(sq2)
    identities = {}

    def walk(cover):
        if cover.square is None:
            identities.setdefault(cover.root, set()).add(id(cover))
        else:
            walk(cover.upper)
            walk(cover.lower)

    covers = enumerate_simple_covers(site, sq2.base, 2)
    for cover in covers:
        walk(cover)
    assert set(identities) == {sq2.base, sq1.base, p2, sq1.C, sq2.C}
    assert all(len(ids) == 1 for ids in identities.values())
    assert identity_cover(sq2.base).key() in {c.key() for c in covers}


def test_enumerated_covers_are_jointly_surjective(p2):
    site = SitePresentation()
    sq = star_subdivision_square(p2, (1, 1))
    site.add_square(sq)
    site.add_square(localization_square(p2, frozenset(
        c for c in p2.fan.cones if c.dim == 0), u_name="torus", complement_name="bd"))
    for obj in (p2, sq.Y):
        for cover in enumerate_simple_covers(site, obj, 2):
            assert cover.jointly_surjective()


def test_cover_replay_matches_leaves(p2):
    sq = star_subdivision_square(p2, (1, 1))
    cover = square_cover(sq)
    leaves = cover.leaves()
    assert len(leaves) == 2
    assert {leaf.target.name for leaf in leaves} == {"P2"}
    assert cover.depth() == 1


# -- c-completeness ----------------------------------------------------------------

def test_c_complete_identity_and_legs(p2):
    sq = star_subdivision_square(p2, (1, 1))
    assert check_c_complete(sq, identity_span(p2)).cover is not None
    assert check_c_complete(sq, sq.p_leg).cover is not None
    assert check_c_complete(sq, sq.i_leg).cover is not None
    assert check_c_complete(sq, zero_span(sq.Y, p2)).cover is not None


def test_c_complete_at_depth_zero_finds_the_covers_of_depth_zero(p2):
    sq = star_subdivision_square(p2, (1, 1))
    for f in (zero_span(sq.Y, p2), sq.p_leg):
        verdict = check_c_complete(sq, f, depth=0)
        assert verdict.cover.depth() == 0
    # the identity needs the square itself: one application of the rule
    verdict = check_c_complete(sq, identity_span(p2), depth=1)
    assert verdict.cover.depth() == 1


def test_c_complete_pullback_along_other_blowdown(p2):
    sq = star_subdivision_square(p2, (1, 1))
    other = star_subdivision_square(p2, (1, 2))
    verdict = check_c_complete(sq, other.p_leg)
    assert verdict.cover is not None
    assert verdict.cover.depth() <= 3


def test_c_complete_open_immersion_into_blowup_base(p2):
    a2 = ToricObject("A2", builtin_fan("A2"))
    sq = star_subdivision_square(a2, (1, 1))
    f = SpanMorphism(p2, a2, frozenset(a2.fan.cones))
    verdict = check_c_complete(sq, f)
    assert verdict.cover is not None
    assert "larger fan" in verdict.note


def test_c_complete_localization_restriction_span(p2):
    a2_cones = frozenset(builtin_fan("A2").cones)
    lsq = localization_square(p2, a2_cones, u_name="U")
    alt = ToricObject("Q", builtin_fan("P1xP1"))
    f = SpanMorphism(alt, lsq.base, a2_cones)
    verdict = check_c_complete(lsq, f)
    assert verdict.cover is not None
    assert verdict.cover.depth() <= 3


def test_c_complete_localization_refinement_onto_base(p2):
    a2_cones = frozenset(builtin_fan("A2").cones)
    lsq = localization_square(p2, a2_cones, u_name="U")
    bl = toric.star_subdivide(builtin_fan("A2"), (1, 1)).fan
    f = SpanMorphism(ToricObject("Bl", bl), lsq.base, frozenset(bl.cones))
    verdict = check_c_complete(lsq, f)
    assert verdict.cover is not None


def test_c_complete_of_a_full_window_span_that_is_not_proper(p2):
    # the open 1-skeleton of P2, mapped into P2 with all its cones as the
    # window: not proper, so there is no refinement to pull the square back
    # along
    from kvar.spansite import _proper_status
    skeleton = ToricObject("U", p2.fan.subfan(c for c in p2.fan.cones if c.dim <= 1))
    f = SpanMorphism(skeleton, p2, skeleton.fan.cones, "inclusion")
    assert _proper_status(f) == "fail"
    sq = star_subdivision_square(p2, (1, 1))
    verdict = check_c_complete(sq, f)
    assert (verdict.cover, verdict.note) == (None, "not proper")


def test_c_complete_not_found_is_reported(p2):
    # a window that is neither all of the source nor the base: no
    # toric-representable pullback applies
    sq = star_subdivision_square(p2, (1, 1))
    z = ToricObject("Z", builtin_fan("P2"))
    f = SpanMorphism(z, p2, frozenset(builtin_fan("A2").cones))
    assert f.window not in (z.cones, sq.base.cones)
    verdict = check_c_complete(sq, f)
    assert (verdict.cover, verdict.note) == (None, "no toric-representable pullback found")


def _star_square_and_its_locus_through_the_center(p2):
    """The square of P2 at (1, 1), and the closed line V((1, 0)) of P2 into
    it: the line holds the centre and is not inside it."""
    cones = frozenset(c for c in p2.fan.cones if (1, 0) in c.rays)
    line = ToricLocusObject("D", toric.ToricLocus(p2.fan, cones))
    return star_subdivision_square(p2, (1, 1)), SpanMorphism(line, p2, cones), 3


def _localization_of_p2_at_a2_and(source_fan, window=None):
    """The localization square of P2 over U = A2, and a span into U from
    ``source_fan`` on ``window`` (all its cones by default)."""
    lsq = localization_square(ToricObject("P2", builtin_fan("P2")),
                              frozenset(builtin_fan("A2").cones), u_name="U")
    z = ToricObject("Z", source_fan)
    return lsq, SpanMorphism(z, lsq.base, z.cones if window is None else window), 3


NOT_FOUND = {
    # the identity needs the square itself: one application of the rule
    "depth budget exhausted":
        lambda p2: (star_subdivision_square(p2, (1, 1)), identity_span(p2), 0),
    "search needs a toric variety as source": _star_square_and_its_locus_through_the_center,
    # the open A1 x Gm of U: it has not U's support, so it is not proper
    "not proper":
        lambda p2: _localization_of_p2_at_a2_and(toric.Fan.from_cones(2, [Cone(2, [(1, 0)])])),
    # the torus of P2 into U: a window neither all of P2 nor U's cones
    "no toric-representable pullback found":
        lambda p2: _localization_of_p2_at_a2_and(
            builtin_fan("P2"), frozenset(c for c in builtin_fan("P2").cones if c.dim == 0)),
}


@pytest.mark.parametrize("note", NOT_FOUND)
def test_c_complete_says_why_it_found_no_cover(p2, note):
    sq, f, depth = NOT_FOUND[note](p2)
    verdict = check_c_complete(sq, f, depth)
    assert (verdict.cover, verdict.note) == (None, note)


def test_a_cover_found_by_construction_lies_in_the_pulled_back_sieve(p2):
    # check_c_complete does not test these covers against the sieve; its
    # docstring proves that they lie in it
    cases = list(corpus.generate(1, 10).c_complete_cases)
    a2 = ToricObject("A2", builtin_fan("A2"))
    cases.append((star_subdivision_square(a2, (1, 1)), SpanMorphism(p2, a2, a2.cones)))
    x = p1xp2()
    cases.append((star_subdivision_square(x, (1, 1, 0)),
                  star_subdivision_square(x, (1, 0, 1)).p_leg))
    lsq = _rank_three_localization()
    z = toric.star_subdivide(lsq.base.fan, (1, 1, 1)).fan
    cases.append((lsq, SpanMorphism(ToricObject("Z", z), lsq.base, z.cones)))
    by_construction = {"pulled-back square via common refinement",
                       "square over the larger fan, same ray",
                       "dominating completion via common refinement",
                       "glued completion over the refinement"}
    seen = set()
    for sq, f in cases:
        verdict = check_c_complete(sq, f)
        if verdict.note in by_construction:
            seen.add(verdict.note)
            assert all(in_sieve(compose(f, leaf), sq) for leaf in verdict.cover.leaves())
    assert seen == by_construction


def p1xp2():
    return ToricObject("P1xP2", builtin_fan("P1").product(builtin_fan("P2")))


@pytest.mark.parametrize("square_ray, other_ray, smooth", [
    ((1, 1, 1), (1, 2, 1), True), ((1, 1, 0), (1, 0, 1), False),
    ((1, 2, 1), (1, 1, 1), True), ((-1, 1, 1), (1, 1, 1), True)])
def test_c_complete_pulls_a_rank_three_square_back_along_another_blowdown(
        square_ray, other_ray, smooth):
    x = p1xp2()
    sq = star_subdivision_square(x, square_ray)
    other = star_subdivision_square(x, other_ray)
    verdict = check_c_complete(sq, other.p_leg)
    assert (verdict.cover.depth(), verdict.note) == (
        1, "pulled-back square via common refinement")
    refinement = verdict.cover.square
    assert refinement.base is other.Y and refinement.Y.fan.is_smooth() is smooth
    assert refinement.Y.fan == toric.common_refinement(other.Y.fan, sq.Y.fan)
    for square in _cover_squares(verdict.cover):
        report = validate_square(square)
        assert report.ok and report.jointly_surjective, report.entries


def _rank_three_localization():
    """The localization square of P1xP2 over U, the affine chart of the
    cone on the unit vectors."""
    sigma = Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    return localization_square(p1xp2(), frozenset(sigma.faces()), u_name="U")


@pytest.mark.parametrize("ray, found, note", [
    ((1, 1, 1), True, "glued completion over the refinement"),
    # both subdivide a 2-cone that U shares with the boundary
    ((1, 1, 0), False, "non-toric glue required for this pullback"),
    ((0, 1, 1), False, "non-toric glue required for this pullback")])
def test_c_complete_glues_a_rank_three_refinement_only_into_a_fan(ray, found, note):
    lsq = _rank_three_localization()
    z = toric.star_subdivide(lsq.base.fan, ray).fan
    verdict = check_c_complete(lsq, SpanMorphism(ToricObject("Z", z), lsq.base, z.cones))
    assert (verdict.cover is not None, verdict.note) == (found, note)
    if found:
        assert verdict.cover.depth() == 1
        report = validate_square(verdict.cover.square)
        assert report.ok and report.jointly_surjective


def test_c_complete_over_a_completion_of_another_support_is_not_found(p2):
    a2_cones = frozenset(builtin_fan("A2").cones)
    lsq = localization_square(p2, a2_cones, u_name="U")
    # A2 and the cone of (0, 1), (-1, 0): not complete, so not a completion
    other = toric.Fan.from_cones(2, [Cone(2, [(1, 0), (0, 1)]), Cone(2, [(0, 1), (-1, 0)])])
    verdict = check_c_complete(lsq, SpanMorphism(ToricObject("X'", other), lsq.base, a2_cones))
    assert (verdict.cover, verdict.note) == (
        None, "the fans have different supports: no common refinement")


# -- dimension compatibility ---------------------------------------------------------

def test_dim_compatible_blowup_direct(p2):
    sq = star_subdivision_square(p2, (1, 1))
    assert check_dim_compatible(sq).kind == "direct"


def test_dim_compatible_localization_dense(p2):
    sq = localization_square(p2, frozenset(builtin_fan("A2").cones))
    assert check_dim_compatible(sq).kind == "direct"


def test_dim_compatible_empty_window(p2):
    sq = localization_square(p2, frozenset())
    verdict = check_dim_compatible(sq)
    assert (verdict.kind, verdict.note) == (
        "refined", "base is empty: the sieve contains the identity cover")


def _dims_only_square(kind, e_obj, base):
    """A square whose corners carry only the dimensions the check reads, and
    no legs."""
    empty = ToricObject("empty", toric.Fan(base.fan.rank, ()))
    return DistinguishedSquare(kind, E=e_obj, Y=e_obj, C=empty, base=base,
                               top=None, p_leg=None, left=None, i_leg=None)


def test_dim_compatible_fails_on_a_non_dense_open(p1, p2):
    verdict = check_dim_compatible(_dims_only_square("localization", p2, p1))
    assert (verdict.kind, verdict.note) == ("fail", "unexpected non-dense toric open")


def test_dim_compatible_fails_on_a_blowup_without_a_dimension_drop(p2):
    verdict = check_dim_compatible(_dims_only_square("abstract_blowup", p2, p2))
    assert (verdict.kind, verdict.note) == (
        "fail", "toric fans are irreducible; no refinement applies")


def test_support_comparison_detects_slivers():
    from kvar.toric import covers_support

    p2_fan = builtin_fan("P2")
    f1 = toric.star_subdivide(p2_fan, (1, 1)).fan
    missing = Cone(2, [(1, 0), (1, 1)])
    partial = toric.Fan.from_cones(
        2, [c for c in f1.maximal_cones if c != missing])
    assert covers_support(f1, p2_fan)
    assert not covers_support(partial, p2_fan)
    assert covers_support(partial, partial)
    assert not covers_support(builtin_fan("A1"), builtin_fan("P1"))
    # a missing interior slice among many rays of one quadrant
    rays = [(1, 0), (3, 1), (2, 1), (1, 1), (1, 2), (1, 3), (0, 1)]
    quadrant = [Cone(2, [rays[i], rays[i + 1]]) for i in range(len(rays) - 1)]
    assert covers_support(toric.Fan.from_cones(2, quadrant), builtin_fan("A2"))
    sliced = toric.Fan.from_cones(2, quadrant[:3] + quadrant[4:])
    assert not covers_support(sliced, builtin_fan("A2"))


def octant_fan():
    return toric.Fan.from_cones(3, [Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])])


def test_support_comparison_at_rank_three():
    from kvar.toric import covers_support

    def without_one(fan):
        return toric.Fan.from_cones(fan.rank, fan.maximal_cones[1:])

    cube = builtin_fan("P1xP1").product(builtin_fan("P1"))
    subdivided = toric.star_subdivide(cube, (1, 1, 1)).fan
    assert covers_support(subdivided, cube)
    assert not covers_support(without_one(cube), cube)
    octant = octant_fan()
    split = toric.star_subdivide(octant, (1, 1, 1)).fan
    assert covers_support(split, octant)
    assert not covers_support(without_one(split), octant)


def test_a_rank_three_refinement_is_decided_proper():
    from kvar.spansite import _proper_status

    octant = barycentric = octant_fan()
    for ray in ((1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)):
        barycentric = toric.star_subdivide(barycentric, ray).fan
    assert len([c for c in barycentric.cones if c.dim == 3]) == 6
    # neither the target fan nor complete: the support comparison decides
    assert barycentric.cones != octant.cones and not barycentric.is_complete()
    a3 = ToricObject("A3", octant)
    assert _proper_status(SpanMorphism(ToricObject("Y", barycentric), a3,
                                       barycentric.cones)) == "pass"
    holed = toric.Fan.from_cones(3, barycentric.maximal_cones[1:])
    assert _proper_status(SpanMorphism(ToricObject("Y0", holed), a3, holed.cones)) == "fail"


# -- sites -----------------------------------------------------------------------

def test_squares_over_matches_a_scan_of_the_squares_by_base_object():
    corp = corpus.generate(1, 10)
    site = corp.site
    assert site.squares
    objects = {id(obj): obj for sq in site.squares for obj in _corners(sq)}
    objects.update((id(obj), obj) for obj in corp.surfaces)
    for obj in objects.values():
        expected = [sq for sq in site.squares if sq.base is obj]
        assert site.squares_over(obj) == expected


def test_two_objects_under_one_name_each_keep_their_own_squares(p2):
    quadric = ToricObject(p2.name, builtin_fan("P1xP1"))
    twin = ToricObject(p2.name, p2.fan)  # one name and one fan, no squares
    site = SitePresentation()
    over_p2 = site.add_square(star_subdivision_square(p2, (1, 1)))
    over_quadric = site.add_square(star_subdivision_square(quadric, (1, 1)))
    site.add_square(over_p2)
    assert site.squares_over(p2) == [over_p2, over_p2]
    assert site.squares_over(quadric) == [over_quadric]
    assert site.squares_over(twin) == []
    assert len(enumerate_simple_covers(site, p2, 1)) == 2
    assert len(enumerate_simple_covers(site, twin, 1)) == 1


def test_spans_that_differ_only_in_object_names_are_equal_and_compose(p2):
    other = ToricObject("X", p2.fan)
    assert identity_span(other) == identity_span(p2)
    assert hash(identity_span(other)) == hash(identity_span(p2))
    across = SpanMorphism(p2, other, p2.cones)
    assert across.is_identity() and across == identity_span(p2)
    sq = star_subdivision_square(other, (1, 1))
    # the p-leg ends at X, and P2 is X under another name
    assert compose(identity_span(p2), sq.p_leg) == sq.p_leg
    assert compose(across, compose(sq.p_leg, identity_span(sq.Y))) == sq.p_leg
    verdict = check_c_complete(sq, identity_span(p2))
    assert verdict.cover.depth() == 1


def _p2():
    return ToricObject("P2", builtin_fan("P2"))


def _a2():
    return ToricObject("A2", builtin_fan("A2"))


def _quadric():
    return ToricObject("Q", builtin_fan("P1xP1"))


def _a_maximal_cone(obj):
    return frozenset([obj.fan.maximal_cones[0]])


def _p2_less_a_point():
    fan = builtin_fan("P2")
    return ToricObject("P2-pt", fan.subfan(fan.cones - _a_maximal_cone(_p2())))


def _star_square_as(kind, drop=()):
    """The corners and legs of a star square of P2, as a square of ``kind``
    without the fields in ``drop``."""
    sq = star_subdivision_square(_p2(), (1, 1))
    fields = dict(kind=kind, E=sq.E, Y=sq.Y, C=sq.C, base=sq.base, top=sq.top,
                  p_leg=sq.p_leg, left=sq.left, i_leg=sq.i_leg, provenance=sq.provenance)
    return DistinguishedSquare(**{name: v for name, v in fields.items() if name not in drop})


@pytest.mark.parametrize("build, error, match", [
    pytest.param(lambda: SpanMorphism(_p2(), _p2(), _quadric().cones),
                 SpanError, "not a subset of the source", id="window outside the source"),
    pytest.param(lambda: SpanMorphism(_p2(), _p2(), _a_maximal_cone(_p2())),
                 SpanError, "not relatively open", id="window without its faces"),
    pytest.param(lambda: SpanMorphism(_quadric(), _a2(), _quadric().cones),
                 SpanError, "does not map into the target fan", id="window outside the target"),
    pytest.param(lambda: compose(identity_span(_p2()), identity_span(_a2())),
                 SpanError, "cannot compose: A2 is not P2", id="composite through two objects"),
    pytest.param(lambda: _star_square_as("flip"),
                 SpanError, "unknown square kind 'flip'", id="unknown square kind"),
    pytest.param(lambda: _star_square_as("abstract_blowup", drop=("base",)),
                 TypeError, "required .* argument: 'base'", id="square without a base"),
    pytest.param(lambda: star_subdivision_square(_a2(), (-1, 1)),
                 toric.SubdivisionError, "outside the support", id="ray outside the support"),
    pytest.param(lambda: star_subdivision_square(_a2(), (0, 0)),
                 toric.NonPrimitiveRayError, "not a primitive ray", id="zero ray"),
    pytest.param(lambda: star_subdivision_square(_a2(), (1, 1, 1)),
                 toric.ToricError, "does not have length 2", id="ray of another rank"),
    pytest.param(lambda: ToricObject("X", builtin_fan("P9")),
                 toric.ToricError, "unknown builtin fan 'P9'", id="unknown builtin fan"),
    pytest.param(lambda: compact_terms(_a2(), builtin_fan("A2")),
                 kring.MissingCompactificationError, "not complete",
                 id="completion that is not complete"),
    pytest.param(lambda: extend_measure(MeasureOnCompacts(MeasureSpec("euler")),
                                        _p2_less_a_point(), builtin_fan("P1xP1")),
                 kring.MissingCompactificationError, "does not contain the fan",
                 id="completion without the fan"),
    pytest.param(lambda: extend_measure(MeasureOnCompacts(MeasureSpec("e_poly")),
                                        ToricObject("Gm", builtin_fan("Gm")), builtin_fan("P2")),
                 kring.MissingCompactificationError, "does not contain the fan",
                 id="completion of another rank"),
])
def test_a_malformed_site_datum_raises_a_typed_error(build, error, match):
    with pytest.raises(error, match=match):
        build()


# -- spans valid by construction ------------------------------------------------------

def test_a_window_of_another_rank_than_the_target_is_rejected(p1, p2):
    with pytest.raises(SpanError, match="rank"):
        SpanMorphism(p1, p2, p1.cones)
    with pytest.raises(SpanError, match="rank"):
        SpanMorphism(p2, p1, frozenset(c for c in p2.cones if c.dim == 0))


def test_only_the_zero_span_maps_into_the_empty_object(p1):
    corner = localization_square(p1, a1_window(p1)).C
    for empty in (corner, ToricObject("empty", toric.Fan(1, ()))):
        assert zero_span(p1, empty).is_zero()
        with pytest.raises(SpanError, match="only the zero span"):
            SpanMorphism(p1, empty, p1.cones)


def _trusted_reasons_in_source() -> set:
    """The ``proper_reason`` of each ``_valid_by_construction`` call under
    ``src/kvar``, read from the syntax tree.  Every reference to the method
    must be called there, with the reason a string literal, so that no
    alias or computed reason hides a trusted builder from this list."""
    reasons = set()
    for path in sorted((pathlib.Path(__file__).parents[1] / "src" / "kvar").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_valid_by_construction":
                assert id(node) in called, f"{path.name}:{node.lineno} aliases the method"
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_valid_by_construction":
                given = [k.value for k in node.keywords if k.arg == "proper_reason"]
                reason = (given or node.args[3:4] or [None])[0]
                assert isinstance(reason, ast.Constant) and isinstance(reason.value, str), \
                    f"{path.name}:{node.lineno} gives no string-literal reason"
                reasons.add(reason.value)
    return reasons


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
    assert {span.proper_reason for span in built} == _trusted_reasons_in_source() == {
        "identity", "composite", "closed immersion", "refinement",
        "restriction of the refinement", "restriction to the open"}
    for span in built:
        span._validate()


def test_corpus_generation_validates_no_square_leg(monkeypatch):
    validated = []
    validate = SpanMorphism._validate

    def recording(span):
        validated.append(span)
        validate(span)
    monkeypatch.setattr(SpanMorphism, "_validate", recording)
    corp = corpus.generate(1, 50)
    seen = {id(span) for span in validated}
    legs = [leg for sq in corp.squares + corp.loc_squares
            for leg in _legs(sq) if not leg.is_zero()]
    assert len(legs) == 4 * len(corp.squares) + 2 * len(corp.loc_squares)
    assert not [leg for leg in legs if id(leg) in seen]
    # every corner has a fan, the empty one too
    assert all(obj.fan.rank == sq.base.fan.rank for sq in corp.squares + corp.loc_squares
               for obj in _corners(sq))


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
        pairs += [(sq.top, sq.p_leg), (sq.left, sq.i_leg)]
        for leg in _legs(sq):
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
