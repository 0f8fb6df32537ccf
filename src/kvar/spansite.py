"""The category of spans and the distinguished-square calculus.

A morphism X -> Y here is a window (an open subobject of X) together with a
proper map from the window to Y; the zero span has the empty window.  Every
site object is a toric variety or a locus of one, the empty variety being
the empty fan, so windows are face-closed cone subsets and every proper map
is the identity on the ambient lattice (refinements, subfan inclusions,
orbit closure inclusions): composition, orbit images, and factorization
through square legs are all exact cone computations.

Squares come in three kinds: smooth blowup, abstract blowup (corners E, Y,
C over the base X), and localization (corners X \\ U, X, empty over the
base U).  Simple covers of an object are built inductively from identity
covers and squares over it; the instance checks below decide membership of
pulled-back sieves and compatibility with the dimension function.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from kvar import toric
from kvar.kring import Frozen, KClass
from kvar.toric import Cone, Fan, StarSubdivision, ToricLocus


class SpanError(Exception):
    pass


# ---------------------------------------------------------------------------
# site objects

class SiteObject:
    """Common surface of site objects: a name, ``dim``, ``is_compact()``,
    ``is_empty()``, ``kclass()``, its ``fan``, the orbits as the cone set
    ``cones``, and ``geometry``, what the object is: its fan or its locus.
    Every site object is a toric variety or a locus of one, and the empty
    variety is the empty fan.  Spans compare objects by their geometry; the
    name only labels them."""

    name: str
    cones: FrozenSet[Cone]
    geometry: object

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class ToricObject(SiteObject):
    """A named toric variety, given by its fan."""

    def __init__(self, name: str, fan: Fan):
        self.name = name
        self.fan = self.geometry = fan
        self.cones = fan.cones

    # each flag alone: the fan caches them, and completeness is far cheaper
    # than smoothness
    @property
    def dim(self) -> int:
        return self.fan.dimension()

    @property
    def smooth(self) -> bool:
        return self.fan.is_smooth()

    @property
    def complete(self) -> bool:
        return self.fan.is_complete()

    def is_compact(self) -> bool:
        return self.fan.is_compact()

    def is_empty(self) -> bool:
        return self.fan.is_empty()

    def kclass(self) -> KClass:
        return self.fan.class_of()


class ToricLocusObject(SiteObject):
    def __init__(self, name: str, locus: ToricLocus):
        self.name = name
        self.locus = self.geometry = locus
        self.cones = locus.cones

    @property
    def fan(self) -> Fan:
        return self.locus.fan

    @property
    def dim(self) -> int:
        return self.locus.dim

    def is_compact(self) -> bool:
        return self.locus.is_compact()

    def is_empty(self) -> bool:
        return self.locus.is_empty()

    def kclass(self) -> KClass:
        return self.locus.kclass()


# ---------------------------------------------------------------------------
# span morphisms

class SpanMorphism:
    """X -> Y given by an open window of X and a proper map window -> Y.

    Windows are cone subsets of the source, face-closed relative to the
    source (absolutely face-closed for variety sources); the map is the
    lattice identity.  ``proper_reason`` records why the map is proper.
    """

    def __init__(self, source: SiteObject, target: SiteObject,
                 window, proper_reason: str = "unchecked"):
        self._fill(source, target, window, proper_reason)
        self._validate()

    @classmethod
    def _valid_by_construction(cls, source: SiteObject, target: SiteObject,
                               window, proper_reason: str) -> "SpanMorphism":
        """A span that its builder proves valid, without ``_validate``.
        For ``compose`` and ``identity_span`` the checks hold so:

        - the identity window is all of the source's cones;
        - a composite window is the preimage, under the orbit map of the
          middle fan, of the second window, which is relatively open; the
          orbit of a face is a face of the orbit, so the preimage is
          relatively open in the first window and so in the source;
        - each composite window cone lies in the orbit it maps to, a cone of
          the second window, which maps into the target;
        - ``compose`` takes the middle objects of both spans to have one
          geometry, so every fan in the chain has the target's rank.

        The legs of the square builders, ``_refinement_square`` and
        ``localization_square``, have their proofs in those docstrings.
        """
        span = cls.__new__(cls)
        span._fill(source, target, window, proper_reason)
        return span

    def _fill(self, source, target, window, proper_reason) -> None:
        self.source = source
        self.target = target
        self.window = frozenset(window)
        self.proper_reason = proper_reason
        self._key = None

    # -- basics ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.window

    def is_identity(self) -> bool:
        return self.source.geometry == self.target.geometry and self.window == self.source.cones

    def key(self):
        """What the span is: the geometries of its ends and its window."""
        if self._key is None:
            self._key = (self.source.geometry, self.target.geometry, self.window)
        return self._key

    def __eq__(self, other):
        return isinstance(other, SpanMorphism) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Span({self.source.name} -[{len(self.window)} cones]-> {self.target.name})"

    # -- validation -------------------------------------------------------------

    def _validate(self) -> None:
        if self.is_zero():
            return
        if not self.target.cones:
            raise SpanError(f"only the zero span maps into {self.target.name}")
        tfan = self.target.fan
        if any(c.rank != tfan.rank for c in self.window):
            raise SpanError(f"window cones are not of the target's rank {tfan.rank}")
        cones = self.source.cones
        if not self.window <= cones:
            raise SpanError("window is not a subset of the source's cones")
        if self.window != cones:
            for c in self.window:
                for f in c.faces():
                    if f in cones and f not in self.window:
                        raise SpanError("window is not relatively open in the source")
        for c in self.window:
            if tfan.smallest_containing_cone(c) is None:
                raise SpanError(f"window cone {c} does not map into the target fan")

    # -- orbit tracking -----------------------------------------------------------

    def orbit_image(self) -> FrozenSet[Cone]:
        """The target orbits hit by the window, as cones of the target fan."""
        if self.is_zero():
            return frozenset()
        tfan = self.target.fan
        return frozenset(tfan.orbit_of(c) for c in self.window)


def identity_span(obj: SiteObject) -> SpanMorphism:
    return SpanMorphism._valid_by_construction(obj, obj, obj.cones, "identity")


def zero_span(source: SiteObject, target: SiteObject) -> SpanMorphism:
    return SpanMorphism(source, target, frozenset(), "zero")


def compose(second: SpanMorphism, first: SpanMorphism) -> SpanMorphism:
    """Composite span: the window is the pullback of the second window
    along the first map (for toric identity maps, the cones of the first
    window landing inside the second window's support)."""
    if first.target.geometry != second.source.geometry:
        raise SpanError(
            f"cannot compose: {first.target.name} is not {second.source.name}"
        )
    if first.is_zero() or second.is_zero():
        return zero_span(first.source, second.target)
    mid_fan = second.source.fan
    window = {c for c in first.window if mid_fan.orbit_of(c) in second.window}
    return SpanMorphism._valid_by_construction(first.source, second.target, window, "composite")


# ---------------------------------------------------------------------------
# distinguished squares
#
#   E ──top──▶ Y
#   │          │
#  left      p_leg
#   ▼          ▼
#   C ─i_leg─▶ base

SQUARE_KINDS = ("smooth_blowup", "abstract_blowup", "localization")


class DistinguishedSquare(Frozen):
    """A square of one of ``SQUARE_KINDS``: the corners E, Y and C over the
    base, and the legs top: E -> Y, p_leg: Y -> base, left: E -> C and
    i_leg: C -> base.  ``provenance`` is what the square was built from.
    Squares compare and hash by identity, and their fields are frozen: a
    square with another corner is a new square, built from all ten fields."""
    __slots__ = ("kind", "E", "Y", "C", "base", "top", "p_leg", "left", "i_leg", "provenance")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, kind: str, E: SiteObject, Y: SiteObject, C: SiteObject,
                 base: SiteObject, top: SpanMorphism, p_leg: SpanMorphism,
                 left: SpanMorphism, i_leg: SpanMorphism, provenance: object = None):
        if kind not in SQUARE_KINDS:
            raise SpanError(f"unknown square kind {kind!r}")
        for name, value in zip(self.__slots__, (kind, E, Y, C, base, top, p_leg, left,
                                                i_leg, provenance)):
            object.__setattr__(self, name, value)

    def __repr__(self):
        names = ", ".join(o.name for o in (self.E, self.Y, self.C, self.base))
        return f"Square[{self.kind}]({names})"


def localization_square(x_obj: ToricObject, window: Iterable[Cone],
                        complement_name: Optional[str] = None,
                        u_name: Optional[str] = None) -> DistinguishedSquare:
    """The span-category square (X \\ U, X, empty, U) for U open in X.

    The empty corner is the empty fan of X's rank, one object per square,
    where both zero legs end or start.  The two legs that are not zero are
    valid by construction.  X is a toric variety, so its cones are those of
    its fan, and ``Fan.subfan`` has checked that the window is a
    face-closed set of them: it is relatively open in X, and U's fan is the
    subfan on it.

    - p_leg, X -> U, the restriction to the open: each window cone is a
      cone of U's fan.
    - top, X \\ U -> X, the closed immersion of the complement: the window
      is all of the complement's cones, each a cone of X's fan.

    Both targets have X's rank.
    """
    window = frozenset(window)
    sub = x_obj.fan.subfan(window)  # validates face-closedness and membership
    u_obj = ToricObject(u_name or f"{x_obj.name}|U", sub)
    comp = ToricLocus(x_obj.fan, x_obj.fan.cones - window)
    comp_obj = ToricLocusObject(complement_name or f"{x_obj.name}-minus-U", comp)
    empty = ToricObject("empty", Fan(x_obj.fan.rank, ()))
    return DistinguishedSquare(
        "localization", E=comp_obj, Y=x_obj, C=empty, base=u_obj,
        top=SpanMorphism._valid_by_construction(comp_obj, x_obj, comp.cones,
                                                "closed immersion"),
        p_leg=SpanMorphism._valid_by_construction(x_obj, u_obj, window,
                                                  "restriction to the open"),
        left=zero_span(comp_obj, empty), i_leg=zero_span(empty, u_obj),
        provenance=(x_obj.fan, window))


def star_subdivision_square(x_obj: ToricObject, new_ray: Sequence[int]) -> DistinguishedSquare:
    """Star-subdivide X at a ray and name the corners of its blowup square:
    Bl(X;ray) over X, with centre V(center)@X and exceptional part E(X;ray).
    The subdivided fan is the square's ``Y.fan``."""
    sd = toric.star_subdivide(x_obj.fan, new_ray)
    y_obj = ToricObject(f"Bl({x_obj.name};{sd.new_ray})", sd.fan)
    return _refinement_square(y_obj, x_obj, f"V{sd.center.rays}@{x_obj.name}",
                              f"E({x_obj.name};{sd.new_ray})", sd)


def _refinement_square(w_obj: ToricObject, x_obj: ToricObject, c_name: str, e_name: str,
                       provenance) -> DistinguishedSquare:
    """The blowup square (E, W, C, X) of a refinement p: W -> X, the one
    builder of toric blowup squares.  ``provenance`` is what W was built
    from: a ``StarSubdivision`` (a smooth blowup when it says so) or the
    fans (W, X) of a common refinement (an abstract blowup).

    C is the cones of X that are not cones of W, and E, the cones of W
    that are not cones of X, is exactly p^{-1}(C): the cones of W whose
    orbit in X is in C.  A cone of W that is also a cone of X is its own
    orbit, which is not in C.  A cone w of W that is not a cone of X has
    its relative interior inside that of a cone tau of X (W refines X), and
    tau is not a cone of W, since the relative interiors of distinct cones
    of one fan are disjoint.  So tau is in C.

    The four legs are valid by construction.  W and X are toric varieties,
    so their cones are those of their fans, and E and C are loci of those
    fans.  W refines X, so the two fans have one rank, and each window
    cone has the target's rank.  Each window is all of its source's cones,
    so it is relatively open.  Each window cone lies in a cone of the
    target's fan:

    - top, E -> W, and i_leg, C -> X, are closed immersions: the window
      cones are cones of the target's fan;
    - p_leg, W -> X, is the refinement: each cone of W lies in a cone of X;
    - left, E -> C, is its restriction: each cone of E is a cone of W, so
      it lies in a cone of X, the fan of C.
    """
    c_cones = x_obj.cones - w_obj.cones
    e_cones = w_obj.cones - x_obj.cones
    c_obj = ToricLocusObject(c_name, ToricLocus(x_obj.fan, c_cones))
    e_obj = ToricLocusObject(e_name, ToricLocus(w_obj.fan, e_cones))
    smooth = isinstance(provenance, StarSubdivision) and provenance.smooth_blowup
    return DistinguishedSquare(
        "smooth_blowup" if smooth else "abstract_blowup",
        E=e_obj, Y=w_obj, C=c_obj, base=x_obj,
        top=SpanMorphism._valid_by_construction(e_obj, w_obj, e_cones, "closed immersion"),
        p_leg=SpanMorphism._valid_by_construction(w_obj, x_obj, w_obj.cones, "refinement"),
        left=SpanMorphism._valid_by_construction(e_obj, c_obj, e_cones,
                                                 "restriction of the refinement"),
        i_leg=SpanMorphism._valid_by_construction(c_obj, x_obj, c_cones, "closed immersion"),
        provenance=provenance)


# ---------------------------------------------------------------------------
# square validation

class CheckEntry(NamedTuple):
    condition: str
    status: str  # pass | fail | trusted


class SquareValidation(NamedTuple):
    entries: List[CheckEntry]
    jointly_surjective: bool

    @property
    def ok(self) -> bool:
        return all(e.status != "fail" for e in self.entries)


def _proper_status(span: SpanMorphism) -> str:
    """Decide properness of a toric span where the support comparison is
    computable: the zero span, closed immersions and compact closed loci,
    and for a toric window the target fan itself, a complete window, or
    the supports of window and target fan compared at any rank."""
    if span.is_zero():
        return "pass"
    if isinstance(span.source, ToricLocusObject):
        locus = span.source.locus
        if span.window == span.source.cones and locus.is_closed() and (
                span.target.fan == locus.fan or locus.is_compact()):
            return "pass"
        return "trusted"
    # the source is a toric variety
    tfan = span.target.fan
    window_fan = Fan(span.source.fan.rank, span.window)
    if (frozenset(window_fan.cones) == frozenset(tfan.cones) or window_fan.is_complete()
            or toric.covers_support(window_fan, tfan)):
        return "pass"
    return "fail"


def validate_square(sq: DistinguishedSquare) -> SquareValidation:
    """Check the defining conditions of a distinguished square.

    A square is checked from its corners and legs alone, by exact
    cone combinatorics, whatever built it.  A blowup square (E, Y, C, X)
    is Cartesian when E is the locus {c in Y : orbit of c in C} of Y's fan
    and C a locus of X's fan; i is a closed immersion when C is also
    closed in X; p is proper by ``_proper_status``; and p is an
    isomorphism off the center when Y minus E and X minus C are the same
    cones.  The corner E of a localization square (X minus U, X, empty,
    U) must be the locus of X's fan on the cones outside the window of p.
    Either way {i, p} must hit every orbit of the base.
    """
    def entry(condition: str, holds: bool) -> CheckEntry:
        return CheckEntry(condition, "pass" if holds else "fail")

    if sq.kind == "localization":
        x_obj, comp = sq.Y, sq.E
        entries = [
            entry("upper left is the closed complement",
                  _locus_in(comp, x_obj.fan) and comp.cones == x_obj.cones - sq.p_leg.window),
            entry("lower left is empty", sq.C.is_empty()),
            CheckEntry("p is proper", _proper_status(sq.top))]
    else:
        x_fan, y_fan = sq.base.fan, sq.Y.fan
        c_in_x = _locus_in(sq.C, x_fan)
        preimage = frozenset(c for c in y_fan.cones if x_fan.orbit_of(c) in sq.C.cones)
        entries = [
            entry("square is Cartesian (E is the preimage of C)",
                  c_in_x and _locus_in(sq.E, y_fan) and sq.E.cones == preimage),
            entry("i is a closed immersion", c_in_x and sq.C.locus.is_closed()),
            CheckEntry("p is proper", _proper_status(sq.p_leg)),
            entry("restriction off the center is an isomorphism",
                  sq.Y.cones - sq.E.cones == sq.base.cones - sq.C.cones)]
    covered = sq.p_leg.orbit_image() | sq.i_leg.orbit_image()
    return SquareValidation(entries, sq.base.cones <= covered)


def _locus_in(obj: SiteObject, fan: Fan) -> bool:
    """Is ``obj`` a locus of ``fan``?"""
    return isinstance(obj, ToricLocusObject) and obj.fan == fan


# ---------------------------------------------------------------------------
# site presentations

class SitePresentation:
    """Finite site: the distinguished squares, found by their base object.

    A square is filed under its base object itself, not its name or its
    fan: two objects with one fan may have different squares over them."""

    def __init__(self):
        self.squares: List[DistinguishedSquare] = []
        self._squares_by_base: Dict[SiteObject, List[DistinguishedSquare]] = {}

    def add_square(self, sq: DistinguishedSquare) -> DistinguishedSquare:
        self.squares.append(sq)
        self._squares_by_base.setdefault(sq.base, []).append(sq)
        return sq

    def squares_over(self, obj: SiteObject) -> List[DistinguishedSquare]:
        """The squares with base ``obj``, in the order they were added."""
        return list(self._squares_by_base.get(obj, ()))


# ---------------------------------------------------------------------------
# simple covers

class SimpleCover:
    """Witness tree for membership in the class of simple covers.

    With no ``square`` it is the identity cover of ``root``, whose one leaf
    is the identity span.  With one it is the square rule over ``root``,
    the square's base: ``upper`` covers the square's Y and ``lower`` its C,
    and their leaves composed with p_leg and i_leg are the leaves of the
    cover.  Replaying the rule from the leaves reconstructs the family.
    """

    def __init__(self, root: SiteObject, square: Optional[DistinguishedSquare] = None,
                 upper: Optional["SimpleCover"] = None, lower: Optional["SimpleCover"] = None):
        self.root = root
        self.square = square
        self.upper = upper
        self.lower = lower
        self._leaf_spans: Optional[Tuple[SpanMorphism, ...]] = None
        self._key: Optional[frozenset] = None

    def leaves(self) -> Tuple[SpanMorphism, ...]:
        if self._leaf_spans is None:
            sq = self.square
            self._leaf_spans = (identity_span(self.root),) if sq is None else tuple(
                [compose(sq.p_leg, leaf) for leaf in self.upper.leaves()]
                + [compose(sq.i_leg, leaf) for leaf in self.lower.leaves()])
        return self._leaf_spans

    def depth(self) -> int:
        if self.square is None:
            return 0
        return 1 + max(self.upper.depth(), self.lower.depth())

    def key(self) -> frozenset:
        """Deduplication key: the multiset of leaf morphisms."""
        if self._key is None:
            counts: dict = {}
            for leaf in self.leaves():
                key = leaf.key()
                counts[key] = counts.get(key, 0) + 1
            self._key = frozenset(counts.items())
        return self._key

    def jointly_surjective(self) -> bool:
        """All orbits of the root are hit by some leaf's proper map."""
        hit = frozenset()
        for leaf in self.leaves():
            if not leaf.is_zero():
                hit = hit | leaf.orbit_image()
        return self.root.cones <= hit

    def __repr__(self):
        return f"SimpleCover({self.root.name}, {len(self.leaves())} leaves, depth {self.depth()})"


def identity_cover(obj: SiteObject) -> SimpleCover:
    return SimpleCover(obj)


def square_cover(sq: DistinguishedSquare,
                 over_upper: Optional[SimpleCover] = None,
                 over_lower: Optional[SimpleCover] = None) -> SimpleCover:
    return SimpleCover(sq.base, sq, over_upper or identity_cover(sq.Y),
                       over_lower or identity_cover(sq.C))


def enumerate_simple_covers(site: SitePresentation, obj: SiteObject,
                            depth: int) -> List[SimpleCover]:
    """All covers of ``obj`` reachable with at most ``depth`` applications
    of the square rule, each to a square that the site files over the
    object being covered (``squares_over``); monotone in depth.  Covers are
    deduplicated by leaf family: by what the leaf spans are, whatever their
    ends are named.
    """
    return _covers(site, obj, depth, {})


def cover_height(site: SitePresentation, obj: SiteObject, budget: int,
                 memo: Optional[dict] = None) -> int:
    """min(budget, h), for h the height of the tree of squares over ``obj``:
    the longest chain of squares, each over a corner (Y or C) of the one
    before, that ``enumerate_simple_covers`` follows.  The covers of depth d
    and of depth min(d, h) are the same list, since a square cover of depth
    d is built from covers of depth d - 1 of corners of smaller height.  A
    site may hold a cycle, a square with its own base as a corner (h
    infinite); the budget still ends the walk, after at most one step per
    object and budget."""
    memo = {} if memo is None else memo
    if budget <= 0:
        return 0
    key = (obj, budget)
    if key not in memo:
        memo[key] = max((1 + cover_height(site, corner, budget - 1, memo)
                         for sq in site.squares_over(obj) for corner in (sq.Y, sq.C)),
                        default=0)
    return memo[key]


def square_tree(site: SitePresentation, obj: SiteObject, budget: int, memo: dict) -> object:
    """A token for what ``enumerate_simple_covers`` reads of ``site`` over
    ``obj`` with at most ``budget`` square steps: the object's geometry
    and, for each square that the site files over it, the square's
    provenance and kind and the trees of its Y and C corners with one step
    less.  No part of it is a name, so objects with one token have the
    same covers up to the names of their ends.

    ``memo`` maps each (object, budget) and each tree to its token, a plain
    ``object()``: a tree is built once per object and budget, as in
    ``cover_height``, so a site with a cycle stays linear, and equal trees
    get one token.  Tokens of different memos never compare equal."""
    key = (obj, budget)
    token = memo.get(key)
    if token is None:
        tree = (obj.geometry, tuple(
            (sq.provenance, sq.kind, square_tree(site, sq.Y, budget - 1, memo),
             square_tree(site, sq.C, budget - 1, memo))
            for sq in site.squares_over(obj)) if budget > 0 else ())
        token = memo[key] = memo.setdefault(tree, object())
    return token


def _covers(site: SitePresentation, o: SiteObject, d: int, memo: dict) -> List[SimpleCover]:
    # a function of its own, not a recursive closure: that would be a
    # reference cycle holding every cover until the garbage collector runs.
    # ``memo`` maps (object, depth) to its covers and each object to its one
    # identity cover
    key = (o, d)
    if key in memo:
        return memo[key]
    identity = memo.get(o)
    if identity is None:
        identity = memo[o] = identity_cover(o)
    found = {identity.key(): identity}
    if d > 0:
        for sq in site.squares_over(o):
            for cu in _covers(site, sq.Y, d - 1, memo):
                for cl in _covers(site, sq.C, d - 1, memo):
                    cover = square_cover(sq, cu, cl)
                    found.setdefault(cover.key(), cover)
    out = list(found.values())
    memo[key] = out
    return out


# ---------------------------------------------------------------------------
# sieve membership and c-completeness

def factors_through(g: SpanMorphism, leg: SpanMorphism) -> bool:
    """Does g lie in the sieve generated by the leg (g = leg . h)?"""
    if g.is_zero():
        return True  # zero factors through anything via the zero span
    if leg.is_zero():
        return False
    if g == leg:
        return True
    # closed-immersion-style legs: factoring is orbit-image containment
    same_target = g.target.geometry == leg.target.geometry
    if isinstance(leg.source, ToricLocusObject) and leg.window == leg.source.cones:
        if same_target:
            return g.orbit_image() <= leg.source.cones
    # try the maximal lift: a full-window span into the leg's source (g and
    # the leg are not zero, so both sources have a fan)
    if same_target:
        source_cones = g.source.cones
        tfan = leg.source.fan
        if all(tfan.smallest_containing_cone(c) is not None for c in source_cones):
            h = SpanMorphism(g.source, leg.source, source_cones, "lift")
            if compose(leg, h) == g and _proper_status(h) == "pass":
                return True
        # partial lift: just the window, when that is already a proper span
        if isinstance(g.source, ToricObject) and all(
                tfan.smallest_containing_cone(c) is not None for c in g.window):
            h = SpanMorphism(g.source, leg.source, g.window, "window lift")
            if compose(leg, h) == g and _proper_status(h) == "pass":
                return True
    return False


def in_sieve(g: SpanMorphism, sq: DistinguishedSquare) -> bool:
    return factors_through(g, sq.p_leg) or factors_through(g, sq.i_leg)


class CCompleteVerdict(NamedTuple):
    """The simple cover found in the pulled-back sieve, or None, and why."""
    cover: Optional[SimpleCover]
    note: str


def _common_refinement_square(source: ToricObject, other: ToricObject) -> DistinguishedSquare:
    """The blowup square over ``source`` of its common refinement with
    ``other``, a fan of the same support (else a ``ToricError``)."""
    name = f"{source.name}&{other.name}"
    w_fan = toric.common_refinement(source.fan, other.fan)
    return _refinement_square(ToricObject(name, w_fan), source, f"{name}-center",
                              f"{name}-exc", (w_fan, source.fan))


def check_c_complete(sq: DistinguishedSquare, f: SpanMorphism,
                     depth: int = 3) -> CCompleteVerdict:
    """Search the pulled-back sieve f*<i,p> for a simple cover of f's source.

    Implements the toric-representable constructions, at every rank:
    pullback of the square along proper refinements (common refinement of
    fans), the same-ray star subdivision for open immersions into a blowup
    base, and, into a localization base, completion glueing for a
    refinement of the base and the common refinement with another
    completion.  A full-window f that is not proper, a glue that breaks the
    fan condition, or a completion of another support, gets no cover, only
    a note, as does anything beyond these.

    The covers lie in the sieve by construction, so f composed with their
    leaves is not tested against it.  In the first and the last, W is the
    common refinement, and the centre leaf holds the cones of the source
    that are not cones of W.

    - Refinement Z -> X, proper with full window.  A cone of W lies in a
      cone of Y, so W -> X lifts to W -> Y.  A cone of Z that is not a cone
      of W lies in no cone of Y, so the cone of X whose relative interior
      holds it is not a cone of Y: it is in C, and the centre leaf factors
      through i.
    - Open immersion X -> Z, the window all cones of X.  The centre is a
      cone of X, so of Z, of dimension at least 2 with the ray in its
      relative interior, so Z subdivides at the ray.  Over X, Bl Z is
      Bl X, so that leaf lifts, and the centre of Z meets X in C.
    - Restriction X' -> U from another completion.  The cones of U are
      cones of X and of X', so of W: the centre leaf misses the window and
      is zero, and W -> X' -> U lifts to W -> X.
    - Refinement Z -> U, proper with full window, so Z has U's support.
      Each cone of Z lies in a cone of U, so the glued fan G (Z with the
      cones of X outside U, when they form a fan) refines X and has X's
      support: G -> X is a proper span.  Composed with X -> U, its window
      is the cones of Z, as is that of f composed with the leaf G -> Z.
      The leaf through the empty corner is zero.
    """
    if f.target.geometry != sq.base.geometry:
        raise SpanError("the morphism must target the square's base")

    # the zero span pulls back to the maximal sieve
    if f.is_zero():
        return CCompleteVerdict(identity_cover(f.source),
                                "zero span: the pulled-back sieve is maximal")
    # f itself factors through a leg: the identity covers the source
    if in_sieve(f, sq):
        return CCompleteVerdict(identity_cover(f.source),
                                "the morphism factors through the square")
    # every cover below needs one application of the square rule
    if depth < 1:
        return CCompleteVerdict(None, "depth budget exhausted")
    if f.is_identity():
        return CCompleteVerdict(square_cover(sq),
                                "pullback along the identity is the square's own cover")

    source = f.source
    if not isinstance(source, ToricObject):
        return CCompleteVerdict(None, "search needs a toric variety as source")
    full_window = f.window == source.fan.cones
    # a proper full-window span has the support of the base, the
    # precondition of the common refinement and of the glued completion
    if full_window and _proper_status(f) == "fail":
        return CCompleteVerdict(None, "not proper")

    if isinstance(sq.provenance, StarSubdivision):
        if full_window:
            # proper refinement Z -> X: pull the square back
            return CCompleteVerdict(square_cover(_common_refinement_square(source, sq.Y)),
                                    "pulled-back square via common refinement")
        if f.window == sq.base.cones:
            # open immersion Z <- X: subdivide the big fan at the same ray
            big_square = star_subdivision_square(source, sq.provenance.new_ray)
            return CCompleteVerdict(square_cover(big_square),
                                    "square over the larger fan, same ray")
        return CCompleteVerdict(None, "no toric-representable pullback found")

    if sq.kind == "localization":
        x_obj, window = sq.Y, sq.p_leg.window
        if full_window:
            # Z -> U with the window all of Z: extend Z over X.  From rank 3
            # a refinement may subdivide a face that U shares with the
            # boundary, and the glued cones are then not a fan
            boundary = [c for c in x_obj.fan.cones if c not in window]
            try:
                glued = Fan.from_cones(source.fan.rank, source.fan.cones.union(boundary))
                glued._check_pairwise()
            except toric.ToricError:
                return CCompleteVerdict(None, "non-toric glue required for this pullback")
            g_obj = ToricObject(f"{source.name}+bd", glued)
            loc = localization_square(g_obj, frozenset(source.fan.cones),
                                      u_name=f"{source.name}|open")
            return CCompleteVerdict(square_cover(loc), "glued completion over the refinement")
        if f.window == window:
            # restriction span X' -> U from another completion of U
            try:
                refinement = _common_refinement_square(source, x_obj)
            except toric.ToricError as exc:
                return CCompleteVerdict(None, str(exc))
            return CCompleteVerdict(square_cover(refinement),
                                    "dominating completion via common refinement")
    return CCompleteVerdict(None, "no toric-representable pullback found")


# ---------------------------------------------------------------------------
# dimension compatibility

class DimCompatVerdict(NamedTuple):
    kind: str  # direct | refined | fail
    note: str = ""


def check_dim_compatible(sq: DistinguishedSquare) -> DimCompatVerdict:
    """Per-square compatibility with the dimension function.

    Direct when the corner dimensions already satisfy the strict drop on
    the corner E, and refined, by the identity cover, over an empty base.
    Any other square fails: a toric open is dense, and a fan is
    irreducible, so no refinement applies.
    """
    d_base = sq.base.dim
    if sq.C.dim <= d_base and sq.Y.dim <= d_base and sq.E.dim < d_base:
        return DimCompatVerdict("direct")
    if sq.kind == "localization":
        if sq.base.is_empty():
            # the sieve on the empty object contains its identity cover
            return DimCompatVerdict(
                "refined", "base is empty: the sieve contains the identity cover")
        # toric opens are dense, so failure here means an empty window
        return DimCompatVerdict("fail", "unexpected non-dense toric open")
    return DimCompatVerdict("fail", "toric fans are irreducible; no refinement applies")
