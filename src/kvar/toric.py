"""Rational polyhedral fans as a concrete geometry backend.

Fans supply varieties where everything the ring engine needs is computable
exactly: completeness (= compactness), open subvarieties (subfans), blowups
(star subdivisions), complements (cone sets), and classes (orbit
decomposition).  All lattice arithmetic is on arbitrary-precision
integers, and its linear algebra is one Hermite normal form; there is no
fraction or floating point anywhere.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import operator
import re
import weakref
from collections import Counter
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from kvar.kring import KClass, MissingCompactificationError

Vector = Tuple[int, ...]

# the largest rank of a fan file: a dense torus costs time quadratic in it
MAX_FAN_FILE_RANK = 64

# the largest rank of a torus with an automatic completion: (P1)^k has 3^k
# cones, and building it takes about four times as long per rank (1.5 s at
# rank 8 on a 2-core cloud host)
MAX_TORUS_COMPLETION_RANK = 8


class ToricError(Exception):
    pass


class NonPrimitiveRayError(ToricError):
    pass


class NotStronglyConvexError(ToricError):
    pass


class FanConditionError(ToricError):
    pass


class NotFaceClosedError(ToricError):
    pass


class SubdivisionError(ToricError):
    pass


# ---------------------------------------------------------------------------
# exact integer linear algebra

def vgcd(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    return g


def primitive(v: Sequence[int]) -> Vector:
    g = vgcd(v)
    if g == 0:
        raise NonPrimitiveRayError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(operator.mul, u, v))


def _hermite(rows: Iterable[Sequence[int]], width: int) -> List[List[int]]:
    """The reduced row Hermite normal form of integer ``rows`` on their
    first ``width`` columns (Cohen, GTM 138, 2.4), by unimodular row
    operations only; columns past ``width`` ride along.  The rows with a
    pivot there come first, in the order of their pivot columns, each pivot
    positive, the entries below it 0 and those above it in [0, pivot); the
    rest are 0 on those columns.  It depends only on the lattice the rows
    span, and the number of pivots is their rank."""
    done, rows = [], [list(row) for row in rows]
    for c in range(width):
        live = [row for row in rows if row[c]]
        rows = [row for row in rows if not row[c]]
        while len(live) > 1:  # Euclid: reduce the others by the least entry
            pivot = min(live, key=lambda row: abs(row[c]))
            reduced = [[x - row[c] // pivot[c] * y for x, y in zip(row, pivot)]
                       for row in live if row is not pivot]
            live = [pivot] + [row for row in reduced if row[c]]
            rows += [row for row in reduced if not row[c]]
        if live:
            pivot = live[0] if live[0][c] > 0 else [-x for x in live[0]]
            done = [[x - row[c] // pivot[c] * y for x, y in zip(row, pivot)]
                    for row in done] + [pivot]
    return done + rows


def mat_rank(rows: Sequence[Sequence[int]]) -> int:
    return sum(map(any, _hermite(rows, len(rows[0]) if rows else 0)))


def nullspace(rows: Sequence[Sequence[int]], ncols: int) -> List[Vector]:
    """The lattice of integer vectors that ``rows`` send to 0, as the rows
    of its Hermite normal form.  The transpose of ``rows``, beside an
    identity block, is reduced by unimodular row operations: the identity
    rows whose first block comes out 0 are then a Z-basis of that lattice,
    each vector primitive, and their reduced Hermite form is unique to the
    lattice, so the basis does not depend on how ``rows`` present it."""
    m = len(rows)
    block = [[row[j] for row in rows] + [int(i == j) for i in range(ncols)]
             for j in range(ncols)]
    return [tuple(row[m:]) for row in _hermite(block, m + ncols) if not any(row[:m])]


# ---------------------------------------------------------------------------
# cones

def _check_rank(rank) -> None:
    # before any intern-table lookup: True == 1 and 2.0 == 2 would share a
    # key with the int rank and hand that rank to every later caller
    if type(rank) is not int or rank < 0:
        raise ToricError(f"rank must be a non-negative int, not {rank!r}")


class Cone:
    """Strongly convex rational polyhedral cone, stored by its primitive rays:
    every generator must be a ray, an extreme one, of the cone.

    The facet description (span equations plus facet inequalities) is
    computed once, by enumerating supporting hyperplanes through
    (dim-1)-element ray subsets; this is exact and ample for the small
    cones the engine manipulates.  Instances are interned by (rank, rays),
    so the derived data is shared and equality is cheap; a cone enters the
    intern table only once it has validated, and its hash is computed once.
    """

    __slots__ = ("rank", "rays", "_hash", "_dim", "_span_eqs", "_facets", "_faces")

    _interned: dict = {}
    # each product cone of ``product``, keyed by its factor pair (a, b)
    _products: dict = {}

    def __new__(cls, rank: int, rays: Iterable[Sequence[int]] = ()):
        _check_rank(rank)
        rays = tuple(sorted(tuple(int(x) for x in r) for r in rays))
        key = (rank, rays)
        cached = cls._interned.get(key)
        if cached is not None:
            return cached
        for r in rays:
            if len(r) != rank:
                raise ToricError(f"ray {r} does not have length {rank}")
            if all(x == 0 for x in r):
                raise NonPrimitiveRayError("zero vector is not a ray")
            if vgcd(r) != 1:
                raise NonPrimitiveRayError(f"ray {r} is not primitive")
        if len(set(rays)) != len(rays):
            raise ToricError("duplicate rays")
        inst = cls._blank(key)
        if inst._lineality_rank() != 0:
            raise NotStronglyConvexError(f"cone{rays} contains a line")
        for r in rays if len(rays) > inst.dim else ():  # a simplicial cone's are rays
            tight = [f for f in inst.facet_normals if dot(f, r) == 0]
            if sum(all(dot(f, s) == 0 for f in tight) for s in rays) > 1:
                raise ToricError(f"generator {r} is not a ray of cone{rays}")
        cls._interned[key] = inst
        return inst

    @classmethod
    def _blank(cls, key: Tuple[int, Tuple[Vector, ...]]) -> "Cone":
        inst = object.__new__(cls)
        inst.rank, inst.rays = key
        inst._hash = hash(key)
        inst._dim = None
        inst._span_eqs = None
        inst._facets = None
        inst._faces = None
        return inst

    @classmethod
    def product(cls, a: "Cone", b: "Cone") -> "Cone":
        """The product cone a x b in the sum of the two lattices, with its
        faces.

        Its faces are the products f x g of a face f of a and a face g of b
        (Fulton, Introduction to Toric Varieties, 1.2): a functional
        (u, v) >= 0 on a x b is >= 0 on a and on b, since both contain 0,
        so it vanishes at (x, y) exactly when u vanishes at x and v at y;
        its face is the product of the faces u and v cut out, and each such
        product is cut out so.  Distinct face pairs give distinct products,
        as their padded rays differ.  So the faces are those products,
        interned here from the factors' faces with no facet subset
        enumerated, and the facet normals are the factors' facet normals
        padded with zeros, as are the span equations; all come out exactly
        as ``Cone`` computes them from the rays.  Padded primitive rays stay
        primitive and distinct, and a product of strongly convex cones is
        strongly convex, so nothing is left to validate.  The result is
        interned like any cone, and kept under the factor pair, so a
        repeated product is one lookup.
        """
        pair = (a, b)
        found = cls._products.get(pair)
        if found is not None:
            return found
        pad_a, pad_b = (0,) * b.rank, (0,) * a.rank
        rays = sorted([r + pad_a for r in a.rays] + [pad_b + s for s in b.rays])
        key = (a.rank + b.rank, tuple(rays))
        cached = cls._interned.get(key)
        if cached is not None:
            cls._products[pair] = cached
            return cached
        inst = cls._blank(key)
        inst._dim = a.dim + b.dim
        inst._span_eqs = (tuple(e + pad_a for e in a.span_equations)
                          + tuple(pad_b + e for e in b.span_equations))
        inst._facets = tuple(sorted([f + pad_a for f in a.facet_normals]
                                    + [pad_b + f for f in b.facet_normals]))
        inst._faces = tuple(inst if f is a and g is b else cls.product(f, g)
                            for f in a.faces() for g in b.faces())
        cls._interned[key] = cls._products[pair] = inst
        return inst

    @property
    def dim(self) -> int:
        if self._dim is None:
            self._dim = mat_rank(self.rays)
        return self._dim

    @property
    def span_equations(self) -> Tuple[Vector, ...]:
        """Primitive normals cutting out the linear span."""
        if self._span_eqs is None:
            self._span_eqs = tuple(nullspace(self.rays, self.rank))
        return self._span_eqs

    @property
    def facet_normals(self) -> Tuple[Vector, ...]:
        if self._facets is None:
            self._facets = self._compute_facets()
        return self._facets

    def _compute_facets(self) -> Tuple[Vector, ...]:
        d = self.dim
        if d == 0:
            return ()
        found = {}
        for subset in itertools.combinations(self.rays, d - 1):
            kernel = nullspace(subset + self.span_equations, self.rank)
            if len(kernel) != 1:
                continue
            n = kernel[0]
            signs = [dot(n, r) for r in self.rays]
            if all(s >= 0 for s in signs):
                normal = n
            elif all(s <= 0 for s in signs):
                normal = tuple(-x for x in n)
            else:
                continue
            tight = [r for r in self.rays if dot(normal, r) == 0]
            if mat_rank(tight) == d - 1:
                found[normal] = True
        return tuple(sorted(found))

    def _lineality_rank(self) -> int:
        return len(nullspace(self.span_equations + self.facet_normals, self.rank))

    def contains(self, point: Sequence[int]) -> bool:
        return (all(dot(e, point) == 0 for e in self.span_equations)
                and all(dot(f, point) >= 0 for f in self.facet_normals))

    def relint_contains(self, point: Sequence[int]) -> bool:
        if self.dim == 0:
            return all(x == 0 for x in point)
        return (all(dot(e, point) == 0 for e in self.span_equations)
                and all(dot(f, point) > 0 for f in self.facet_normals))

    def representative(self) -> Vector:
        """An interior lattice point (the sum of the rays; 0 for the zero cone)."""
        return tuple(sum(col) for col in zip(*self.rays)) if self.rays else (0,) * self.rank

    def smallest_face_containing(self, points: Sequence[Sequence[int]]) -> "Cone":
        tight_normals = [f for f in self.facet_normals
                         if all(dot(f, p) == 0 for p in points)]
        rays = [r for r in self.rays if all(dot(f, r) == 0 for f in tight_normals)]
        return Cone(self.rank, rays)

    def faces(self) -> Tuple["Cone", ...]:
        """All faces, the zero cone and the cone itself included."""
        if self._faces is not None:
            return self._faces
        out = {self.rays: self}
        for k in range(1, len(self.facet_normals) + 1):
            for normals in itertools.combinations(self.facet_normals, k):
                rays = tuple(r for r in self.rays
                             if all(dot(f, r) == 0 for f in normals))
                if rays not in out:
                    out[rays] = Cone(self.rank, rays)
        if () not in out:
            out[()] = Cone(self.rank, ())
        self._faces = tuple(out.values())
        return self._faces

    def is_face_of(self, other: "Cone") -> bool:
        if not set(self.rays) <= set(other.rays):
            return False
        return other.smallest_face_containing(self.rays).rays == self.rays

    def is_simplicial(self) -> bool:
        return len(self.rays) == self.dim

    def is_smooth(self) -> bool:
        """Rays extend to a basis of the ambient lattice: simplicial, with
        the gcd of the maximal minors of the rays equal to 1.  The Hermite
        form of the rays taken as columns keeps that gcd, as unimodular row
        operations do, and there it is the product of the pivots: so the
        cone is smooth exactly when every pivot is 1.  (Not so for the rays
        as rows: the ray (2, 1) is smooth, and its row form has pivot 2.)"""
        if not self.is_simplicial():
            return False
        form = _hermite(zip(*self.rays), len(self.rays))
        return all(form[i][i] == 1 for i in range(len(self.rays)))

    def intersect(self, other: "Cone") -> "Cone":
        """Exact intersection, by the face rule.  A point x of the meet lies
        in the relative interiors of a face F of self and a face G of other;
        near x the meet is the meet of their tangent cones, whose lineality
        space is span F & span G, so x spans a ray of the meet exactly when
        that is the line through x.  Every generator is a ray, so dim F = 1
        is a generator of self lying in other and dim G = 1 the converse;
        else 2 <= dim F, dim G < rank and dim F + dim G <= rank + 1, as two
        spans meet in at least their dimensions less the rank (no such pair
        at rank 2)."""
        if self is other:
            return self
        if self.rank != other.rank:
            raise ToricError("rank mismatch")
        rays = {r for r in self.rays if other.contains(r)}
        rays.update(r for r in other.rays if self.contains(r))
        for f in self.faces():
            if 2 <= f.dim < self.rank:
                for g in other.faces():
                    if 2 <= g.dim <= self.rank + 1 - f.dim:
                        line = nullspace(f.span_equations + g.span_equations, self.rank)
                        if len(line) == 1:
                            rays.update(v for v in (line[0], tuple(-x for x in line[0]))
                                        if self.contains(v) and other.contains(v))
        return Cone(self.rank, rays)

    def __eq__(self, other) -> bool:
        # type(self), not the module global: the weak fan table's callbacks
        # may compare cones at interpreter exit, after the globals are gone
        return isinstance(other, type(self)) and self.rank == other.rank and self.rays == other.rays

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Cone, (self.rank, self.rays)

    def __repr__(self) -> str:
        return f"Cone{self.rays}"


# ---------------------------------------------------------------------------
# fans

def kept(compute):
    """Keep ``compute(fan, *args)``, a pure function of an interned fan and
    hashable, normalised arguments, in the fan's ``_flags``, keyed by
    ``compute`` alone or with the arguments: it lives until the fan dies
    or a ``kept_until_done`` block ends.  An error is not kept, so it is
    raised again on every call.
    """
    @functools.wraps(compute)
    def keeper(fan, *args):
        key = (compute,) + args if args else compute
        flags = fan._flags
        try:
            return flags[key]
        except KeyError:
            pass
        value = flags[key] = compute(fan, *args)
        return value

    return keeper


def keep_proven(keeper, fan: "Fan", value, *args) -> None:
    """Keep ``value`` as the ``kept`` function ``keeper`` would keep it on
    ``fan`` and ``args``, under the same key: for a value proven without
    running the computation, which is then never run on this fan."""
    compute = keeper.__wrapped__
    fan._flags[(compute,) + args if args else compute] = value


class Fan:
    """Finite fan: a set of cones closed under faces, pairwise intersecting
    in common faces.  The empty fan is the empty variety; the fan with only
    the zero cone is the dense torus.

    Instances are interned by (rank, cones) in a weak table, so every caller
    that builds an equal fan shares one object and its derived data; a fan
    enters the table only once it has validated, and leaves it when it is
    dropped, with everything it keeps.  Each datum is kept by ``kept``, as
    a pure function of the fan and the other arguments: completeness,
    smoothness, maximal cones, the class, point and cone containment,
    the closedness and class of a cone subset, the subfan on a cone subset,
    the product with another fan, the star subdivision at a ray, the automatic
    completion, the common refinement with another fan of the same support,
    at any rank, and an open's combination of compact objects inside each
    completion (``csupport``).  A proper subfan of a complete fan keeps its
    completeness and, at rank 2, its completion as proven (``_subfan``).

    A product fan (``product``) validates in full and computes its maximal
    cones, completeness, smoothness and class from its own cones, like any
    fan; only its cones come with their faces (``Cone.product``), so no
    face is enumerated on the way.
    """

    __slots__ = ("rank", "cones", "_hash", "_flags", "__weakref__")

    _interned: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __new__(cls, rank: int, cones: Iterable[Cone]):
        _check_rank(rank)
        cone_set = frozenset(cones)
        key = (rank, cone_set)
        cached = cls._interned.get(key)
        if cached is not None:
            return cached
        for c in cone_set:
            if c.rank != rank:
                raise ToricError("cone rank differs from fan rank")
        if cone_set and Cone(rank, ()) not in cone_set:
            raise NotFaceClosedError("nonempty fan must contain the zero cone")
        for c in cone_set:
            for f in c.faces():
                if f not in cone_set:
                    raise NotFaceClosedError(f"face {f} of {c} missing from the fan")
        inst = object.__new__(cls)
        inst.rank = rank
        inst.cones = cone_set
        inst._hash = hash(key)
        inst._flags = {}
        cls._interned[key] = inst
        return inst

    def _check_pairwise(self) -> None:
        """The fan condition: each two cones meet in a common face.  Pairs
        of maximal cones are enough, since every cone is a face of one.  If
        F = s & t is a face of s and of t, and s' and t' are faces of s and
        t, then s' & t' = (s' & F) & (t' & F) is a meet of two faces of F,
        so a face of F, hence of s, and it lies in s', so it is a face of
        s'; and of t' likewise."""
        for a, b in itertools.combinations(self.maximal_cones, 2):
            meet = a.intersect(b)
            if not (meet.is_face_of(a) and meet.is_face_of(b)):
                raise FanConditionError(
                    f"cones {a} and {b} intersect in {meet}, not a common face"
                )

    @staticmethod
    def from_cones(rank: int, cones: Iterable[Cone]) -> "Fan":
        """Face-close the given cones and build the fan."""
        closed = set()
        for c in cones:
            closed.update(c.faces())
        return Fan(rank, closed)

    # -- views ---------------------------------------------------------------

    @property
    @kept
    def maximal_cones(self) -> Tuple[Cone, ...]:
        """The cones that are not a proper face of another cone."""
        proper_faces = {f for c in self.cones for f in c.faces() if f is not c}
        return tuple(sorted((c for c in self.cones if c not in proper_faces),
                            key=lambda c: c.rays))

    @property
    def rays(self) -> Tuple[Vector, ...]:
        return tuple(sorted({r for c in self.cones for r in c.rays}))

    def is_empty(self) -> bool:
        return not self.cones

    def is_compact(self) -> bool:
        """Proper: the empty variety, or a complete fan."""
        return self.is_empty() or self.is_complete()

    def contains_cone(self, cone: Cone) -> bool:
        return cone in self.cones

    def smallest_containing(self, point: Sequence[int]) -> Optional[Cone]:
        point = tuple(point)
        if len(point) != self.rank:
            raise ToricError(f"point {point} does not have length {self.rank}")
        return self._relint_holding(point)

    @kept
    def _relint_holding(self, point: Vector) -> Optional[Cone]:
        return next((c for c in self.cones if c.relint_contains(point)), None)

    def orbit_of(self, cone: Cone) -> Optional[Cone]:
        """The fan cone whose relative interior holds the cone's relative
        interior (equivalently, its representative), or None.

        A cone of the fan is its own answer, found by lookup, since the
        relative interiors of fan cones are disjoint.
        """
        if cone in self.cones:
            return cone
        return self.smallest_containing(cone.representative())

    def smallest_containing_cone(self, cone: Cone) -> Optional[Cone]:
        """Minimal fan cone containing the given cone entirely, or None.

        The relative interior of the cone meets the relative interior of at
        most one fan cone; containment additionally needs every ray inside,
        which is decided once per cone.
        """
        if cone in self.cones:
            return cone
        return self._containing_cone(cone)

    @kept
    def _containing_cone(self, cone: Cone) -> Optional[Cone]:
        container = self.smallest_containing(cone.representative())
        if container is not None and not all(container.contains(r) for r in cone.rays):
            return None
        return container

    def face_counts(self) -> dict:
        counts: dict = {}
        for c in self.cones:
            counts[c.dim] = counts.get(c.dim, 0) + 1
        return counts

    # -- derived flags -------------------------------------------------------

    @kept
    def is_smooth(self) -> bool:
        return all(c.is_smooth() for c in self.maximal_cones)

    @kept
    def is_complete(self) -> bool:
        """Support covers the ambient space: nonempty, with facet pairing
        over the star of the zero cone."""
        return not self.is_empty() and self._complete_over(Cone(self.rank, ()))

    def _complete_over(self, sigma: Cone) -> bool:
        """Facet pairing over the star of ``sigma``, a cone of the fan: every
        maximal cone containing sigma is full-dimensional, and every
        codimension-one cone containing sigma is a face of exactly two of
        them.  For the zero cone this says the fan is complete; for any
        cone, that the orbit closure V(sigma) is proper (Fulton,
        Introduction to Toric Varieties, 2.4 and 3.1).  Inside one fan,
        sigma is a face of a cone exactly when its rays are among the
        cone's rays."""
        below = set(sigma.rays)
        counts: dict = {}
        for c in self.maximal_cones:
            if below and not below <= set(c.rays):
                continue
            if c.dim != self.rank:
                return False
            for f in c.faces():
                if f.dim == self.rank - 1 and (not below or below <= set(f.rays)):
                    counts[f] = counts.get(f, 0) + 1
        return all(v == 2 for v in counts.values())

    def dimension(self) -> int:
        """Dimension of the toric variety: the ambient rank, or -1 for the
        empty fan (the dense torus orbit always has full dimension)."""
        return -1 if self.is_empty() else self.rank

    # -- classes -------------------------------------------------------------

    def class_of(self, cone_subset: Optional[Iterable[Cone]] = None) -> KClass:
        """Class of a union of torus orbits: sum of (L-1)^(n - dim) over the
        cones.  The subset need not be face-closed (locally closed unions).
        The class of the whole fan is kept."""
        if cone_subset is None:
            return self._class()
        codim_counts: dict = {}
        for c in cone_subset:
            if not self.contains_cone(c):
                raise ToricError(f"{c} is not a cone of the fan")
            k = self.rank - c.dim
            codim_counts[k] = codim_counts.get(k, 0) + 1
        # count * (L - 1)^k, expanded binomially into powers of L
        terms: dict = {}
        for k, count in codim_counts.items():
            for j in range(k + 1):
                coeff = count * math.comb(k, j) * (-1) ** (k - j)
                terms[(j, ())] = terms.get((j, ()), 0) + coeff
        return KClass(terms)

    @kept
    def _class(self) -> KClass:
        return self.class_of(self.cones)

    def orbit_count(self, q: int) -> int:
        """Independent point count over F_q: direct summation of
        (q-1)^(n - dim) with plain integers, no KClass arithmetic."""
        return sum((q - 1) ** (self.rank - c.dim) for c in self.cones)

    # -- constructions -------------------------------------------------------

    def subfan(self, cone_subset: Iterable[Cone]) -> "Fan":
        """The fan on a face-closed subset of the cones; a proper subfan is
        kept on this fan."""
        subset = frozenset(cone_subset)
        return self if subset == self.cones else self._subfan(subset)

    @kept
    def _subfan(self, subset: frozenset) -> "Fan":
        """The proper subfan on ``subset``.  ``Fan`` checks face-closure, or
        finds the interned fan on these cones, which was face-closed when
        it was built.

        A proper subfan of a complete fan keeps two proven facts
        (``keep_proven``), so no open of a complete surface is tested for
        completeness or gap-filled from scratch:

        - It is not complete.  Every cone of a complete fan is a face of a
          full-dimensional cone (Fulton, Introduction to Toric Varieties,
          2.4), and a face-closed proper subset lacks one of those, since
          it holds every face of each cone it holds.  The interior of the
          lacked cone meets no other cone of the fan, so it lies in no
          cone of the subset, and the support is not the whole space.
        - At rank 2, when it holds every ray of this fan, its automatic
          completion (``complete_surface``) is this fan.  Consecutive rays
          of a complete rank-2 fan bound its 2-cones, each under pi, so gap
          filling (``_gap_filled``) adds no ray and closes exactly this
          fan's missing 2-cones, with this fan's own rays and cones.
        """
        if not subset <= self.cones:
            stray = next(c for c in subset if c not in self.cones)
            raise ToricError(f"{stray} is not a cone of the fan")
        sub = Fan(self.rank, subset)
        if self.is_complete():
            keep_proven(Fan.is_complete, sub, False)
            if self.rank == 2 and all(c in subset for c in self.cones if c.dim == 1):
                keep_proven(_gap_filled, sub, self)
        return sub

    @kept
    def product(self, other: "Fan") -> "Fan":
        """The product fan: the products a x b of a cone of each factor
        (Fulton, Introduction to Toric Varieties, 1.2), kept on ``self``
        keyed by ``other``."""
        return Fan(self.rank + other.rank,
                   {Cone.product(a, b) for a in self.cones for b in other.cones})

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.rank == other.rank and self.cones == other.cones

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Fan, (self.rank, self.cones)

    def __repr__(self) -> str:
        return f"Fan(rank={self.rank}, cones={len(self.cones)})"

    # -- I/O -----------------------------------------------------------------

    def to_json(self) -> dict:
        rays = list(self.rays)
        index = {r: i for i, r in enumerate(rays)}
        maximal = [sorted(index[r] for r in c.rays) for c in self.maximal_cones]
        out = {"rank": self.rank, "rays": [list(r) for r in rays],
               "maximal_cones": sorted(maximal)}
        if not rays and self.cones:
            out["dense_torus"] = True
        return out

    @staticmethod
    def from_json(data) -> "Fan":
        if isinstance(data, str):
            try:
                data = json.loads(data)
            except (ValueError, RecursionError) as exc:  # nesting too deep to decode
                raise ToricError(f"fan file is not JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ToricError("a fan file is a JSON object")
        rank, rays, maximal = (data.get(k) for k in ("rank", "rays", "maximal_cones"))
        torus = data.get("dense_torus", False)

        def int_rows(rows, length=None, bound=None) -> bool:
            return isinstance(rows, list) and all(
                isinstance(row, (list, tuple))
                and (length is None or len(row) == length)
                and all(type(x) is int and (bound is None or 0 <= x < bound) for x in row)
                for row in rows)

        if type(rank) is not int or not 0 <= rank <= MAX_FAN_FILE_RANK:
            raise ToricError(f'fan file: "rank" must be an integer from 0 to {MAX_FAN_FILE_RANK}')
        if not int_rows(rays, length=rank):
            raise ToricError(f'fan file: "rays" must be a list of integer vectors of length {rank}')
        if not int_rows(maximal, bound=len(rays)):
            raise ToricError('fan file: "maximal_cones" must be a list of lists of ray indices')
        if type(torus) is not bool:
            raise ToricError('fan file: "dense_torus" must be true or false')
        rays = [tuple(r) for r in rays]
        maximal = [tuple(ix) for ix in maximal]
        if torus and not maximal:
            maximal = [()]
        return build_fan(rank, rays, maximal)


@contextlib.contextmanager
def kept_until_done():
    """A block at whose end every interned fan drops its ``kept`` data.
    A kept value is a pure function of its fan, so dropping it costs at
    most a recomputation.  Kept data can form reference cycles (an open
    keeps its completion, and the completion keeps the open as a subfan),
    and a fan from before the block can keep fans built inside it, so
    those fans then die by reference count, with nothing left for the
    garbage collector."""
    try:
        yield
    finally:
        for fan in list(Fan._interned.values()):
            fan._flags.clear()


def sort_rays_ccw(rays: Iterable[Vector]) -> List[Vector]:
    """Rank-2 rays sorted counterclockwise from the positive x-axis,
    exactly (quadrant class, then cross products)."""

    def half(v: Vector) -> int:
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def cmp(u: Vector, v: Vector) -> int:
        if half(u) != half(v):
            return half(u) - half(v)
        c = u[0] * v[1] - u[1] * v[0]
        return 0 if c == 0 else (-1 if c > 0 else 1)

    return sorted(rays, key=functools.cmp_to_key(cmp))


# ---------------------------------------------------------------------------
# the spec-level operations

class FanProperties(NamedTuple):
    complete: bool
    smooth: bool
    dimension: int


def build_fan(rank: int, rays: Sequence[Sequence[int]],
              maximal_cones: Sequence[Sequence[int]]) -> Fan:
    """Construct a face-closed fan from rays and maximal-cone index sets.

    Raw input gets the full validation: primitive distinct rays, strong
    convexity, and the pairwise common-face condition.
    """
    rays = [tuple(int(x) for x in r) for r in rays]
    for r in rays:
        if vgcd(r) != 1:
            raise NonPrimitiveRayError(f"ray {r} is not primitive")
    if len(set(rays)) != len(rays):
        raise ToricError("duplicate rays")
    cones = [Cone(rank, [rays[i] for i in ix]) for ix in maximal_cones]
    fan = Fan.from_cones(rank, cones)
    fan._check_pairwise()
    return fan


def fan_properties(fan: Fan) -> FanProperties:
    return FanProperties(fan.is_complete(), fan.is_smooth(), fan.dimension())


@kept
def common_refinement(a: Fan, b: Fan) -> Fan:
    """The fan of the meets of the cones of two fans of one support, at any
    rank (Fulton, Introduction to Toric Varieties, 1.2 and 2.4), kept on
    ``a`` keyed by ``b``.  Every meet is a face of a meet of two maximal
    cones.  A facet hyperplane of one cone that has the other on its far
    side puts their meet in a facet, a face of a meet across it, so that
    pair is skipped; the support test sees any meet missed.  Fans of
    different supports raise a ``ToricError``."""
    refined = Fan.from_cones(a.rank, [
        s.intersect(t) for s in a.maximal_cones for t in b.maximal_cones
        if not any(all(dot(f, r) <= 0 for r in y.rays)
                   for x, y in ((s, t), (t, s)) for f in x.facet_normals)])
    if not (a.is_complete() and b.is_complete()
            or covers_support(refined, a) and covers_support(refined, b)):
        raise ToricError("the fans have different supports: no common refinement")
    return refined


def covers_support(window_fan: Fan, target_fan: Fan) -> bool:
    """Does the window's support contain the target's, so that the map is
    proper (Fulton, Introduction to Toric Varieties, 2.4)?  Each window cone
    must lie in a target cone, so the window cones of dimension dim tau in a
    maximal target cone tau must fill it.  They form a pure polyhedral set,
    which is tau when it is nonempty and its frontier lies in the boundary
    of tau: a facet of those cones lies in two of them if its orbit is tau
    (it meets the interior) and else in one."""
    if window_fan.rank != target_fan.rank:
        return False
    for tau in target_fan.maximal_cones:
        rays = set(tau.rays)
        inside = [w for w in window_fan.cones if w.dim == tau.dim
                  and rays.issuperset(target_fan.smallest_containing_cone(w).rays)]
        facets = Counter(f for w in inside for f in w.faces() if f.dim == tau.dim - 1)
        if not inside or any(n != (2 if target_fan.orbit_of(f) == tau else 1)
                             for f, n in facets.items()):
            return False
    return True


class StarSubdivision(NamedTuple):
    """Result of a star subdivision: the refined fan and what it was built
    from.  The corners C and E of its blowup square are the cones of X that
    are not cones of Y and those of Y that are not cones of X
    (``spansite.star_subdivision_square``)."""
    fan: Fan                      # the subdivided fan Y
    parent: Fan                   # X
    center: Cone                  # the cone whose relative interior holds the ray
    new_ray: Vector
    smooth_blowup: bool


def star_subdivide(fan: Fan, new_ray: Sequence[int]) -> StarSubdivision:
    """Insert a primitive ray through the relative interior of a cone.

    Every cone containing the ray is replaced by the cones spanned by the
    ray together with the facets not containing it.  The center is the
    orbit closure of the unique cone whose relative interior holds the ray;
    the exceptional locus is its preimage.  Tagged as a smooth blowup only
    when the parent fan is smooth and the ray is the barycenter of the
    center cone (then the subdivision is literally the blowup along a
    smooth center).

    The parts are kept on the fan, one entry per normalized ray, so a ray
    given as (True, 1) shares the entry of (1, 1); an error is raised again
    on every call, never kept.
    """
    ray = tuple(int(x) for x in new_ray)
    if all(x == 0 for x in ray) or vgcd(ray) != 1:
        raise NonPrimitiveRayError(f"{ray} is not a primitive ray")
    subdivided, center, smooth = _star_parts(fan, ray)
    return StarSubdivision(subdivided, fan, center, ray, smooth)


@kept
def _star_parts(fan: Fan, ray: Vector) -> tuple:
    """What ``star_subdivide`` returns but the parent fan and the ray: the
    kept value holds no reference back to its fan."""
    sigma = fan.smallest_containing(ray)
    if sigma is None:
        raise SubdivisionError(f"ray {ray} lies outside the support of the fan")
    if sigma.dim <= 1:
        raise SubdivisionError(
            f"ray {ray} lies on a cone of dimension {sigma.dim}; "
            "the subdivision center is ambiguous"
        )
    star = [c for c in fan.cones if set(sigma.rays) <= set(c.rays)]
    new_cones = [c for c in fan.cones if c not in star]
    for tau in star:
        for facet in tau.faces():
            if facet.dim == tau.dim - 1 and not facet.contains(ray):
                new_cones.append(Cone(fan.rank, facet.rays + (ray,)))
    subdivided = Fan.from_cones(fan.rank, new_cones)
    barycentric = ray == primitive(sigma.representative())
    smooth = fan.is_smooth() and barycentric
    return subdivided, sigma, smooth


def complete_surface(fan: Fan) -> Fan:
    """The automatic completion of a fan, kept on the fan: the fan itself
    when it is complete, deterministic gap filling in rank <= 2 (below),
    and (P1)^k for a k-torus up to ``MAX_TORUS_COMPLETION_RANK`` (Fulton,
    Introduction to Toric Varieties, 2.4).  The empty fan is a
    ``ToricError``; any other fan takes an explicit completion, and is a
    ``MissingCompactificationError`` here.

    Gap filling: uncovered angular gaps of more than pi get the primitive
    negated sum of their bounding rays; gaps of exactly pi (negated sum
    degenerates) get the 90-degree counterclockwise rotation of the
    starting ray.  Once all uncovered gaps are strictly less than pi, each
    is filled with a single 2-cone.  The input fan survives as a subfan;
    a torus of rank <= 2 gap-fills to (P1)^k.
    """
    if fan.is_empty():
        raise ToricError("cannot complete the empty fan")
    if fan.is_complete():  # every nonempty rank-0 fan is
        return fan
    if fan.rank <= 2:
        return _gap_filled(fan)
    if len(fan.cones) > 1:
        raise MissingCompactificationError(
            f"no automatic completion of a rank-{fan.rank} fan; pass an explicit choice")
    if fan.rank > MAX_TORUS_COMPLETION_RANK:
        raise MissingCompactificationError(
            f"no automatic completion of a rank-{fan.rank} torus: (P1)^{fan.rank} "
            f"has 3^{fan.rank} cones, past the bound of rank {MAX_TORUS_COMPLETION_RANK}")
    return _p1_closure(fan)


@kept
def _p1_closure(torus: Fan) -> Fan:
    """(P1)^k, the completion of the k-torus, k >= 3."""
    return functools.reduce(Fan.product, [builtin_fan("P1")] * torus.rank)


@kept
def _gap_filled(fan: Fan) -> Fan:
    """The completion ``complete_surface`` describes, of a fan that is not
    complete."""
    if fan.rank == 1:
        cones = set(fan.cones)
        for r in ((1,), (-1,)):
            cones.add(Cone(1, [r]))
        return Fan(1, cones)

    rays = list(fan.rays)
    if not rays:
        rays = [(1, 0)]
    if len(rays) == 1:
        rays.append(primitive((-rays[0][0], -rays[0][1])))

    two_cones = {c.rays for c in fan.cones if c.dim == 2}

    def gap_kind(v: Vector, w: Vector) -> str:
        """Classify the ccw angle from v to w: 'lt' < pi, 'pi', 'gt' > pi."""
        c = v[0] * w[1] - v[1] * w[0]
        if c > 0:
            return "lt"
        if c == 0:
            return "pi" if dot(v, w) < 0 else "gt"
        return "gt"

    def covered(v: Vector, w: Vector) -> bool:
        # a 2-cone only ever spans a sector of less than pi
        return gap_kind(v, w) == "lt" and tuple(sorted((v, w))) in two_cones

    for _ in range(10000):
        rays = sort_rays_ccw(rays)
        pairs = list(zip(rays, rays[1:] + rays[:1]))
        wide = next(((v, w) for v, w in pairs
                     if not covered(v, w) and gap_kind(v, w) != "lt"), None)
        if wide is None:
            break
        v, w = wide
        if gap_kind(v, w) == "gt":
            rays.append(primitive((-(v[0] + w[0]), -(v[1] + w[1]))))
        else:
            rays.append(primitive((-v[1], v[0])))
    else:
        raise ToricError("completion did not stabilize")

    cones = set(fan.cones)
    rays = sort_rays_ccw(rays)
    for v, w in zip(rays, rays[1:] + rays[:1]):
        if not covered(v, w):
            cones.add(Cone(2, [v, w]))
    return Fan.from_cones(2, cones)


def alternative_completion(fan: Fan, pick=None) -> Optional[Fan]:
    """A second completion of ``fan``: its automatic completion
    star-subdivided at the barycentre of a maximal 2-cone that ``fan``
    lacks, or None when it lacks none.  ``pick`` chooses from those cones,
    given in ray order; by default the first."""
    completion = complete_surface(fan)
    outside = [c for c in completion.maximal_cones
               if c.dim == 2 and not fan.contains_cone(c)]
    if not outside:
        return None
    cone = pick(outside) if pick else outside[0]
    return star_subdivide(completion, primitive(cone.representative())).fan


# ---------------------------------------------------------------------------
# loci

class ToricLocus:
    """A locally closed union of torus orbits: a fan plus a cone subset.

    Downward-closed subsets are open subvarieties, upward-closed subsets
    are closed ones; arbitrary subsets are locally closed unions.
    """

    __slots__ = ("fan", "cones")

    def __init__(self, fan: Fan, cones: Iterable[Cone]):
        subset = frozenset(cones)
        if not subset <= fan.cones:
            stray = next(c for c in subset if c not in fan.cones)
            raise ToricError(f"{stray} is not a cone of the ambient fan")
        self.fan = fan
        self.cones = subset

    @property
    def dim(self) -> int:
        if not self.cones:
            return -1
        return self.fan.rank - min(c.dim for c in self.cones)

    def is_empty(self) -> bool:
        return not self.cones

    def is_closed(self) -> bool:
        """Upward-closed: with every cone, all fan cones having it as a face
        (Fulton, Introduction to Toric Varieties, 3.1).  That depends on the
        fan and the cone set alone, so it is decided once per interned fan."""
        return _is_upward_closed(self.fan, self.cones)

    def is_compact(self) -> bool:
        """Proper loci: empty, or closed with the orbit closure of every
        minimal cone proper.  A closed locus in a complete ambient fan is
        proper at once; otherwise each minimal cone gets the fan's facet
        pairing over its star."""
        if self.is_empty():
            return True
        if not self.is_closed():
            return False
        if self.fan.is_complete():
            return True
        return all(self.fan._complete_over(c) for c in self._minimal_cones())

    def _minimal_cones(self) -> List[Cone]:
        return [c for c in self.cones
                if not any(o is not c and set(o.rays) <= set(c.rays) for o in self.cones)]

    def kclass(self) -> KClass:
        """The class of the orbits, kept once per interned fan and cone set."""
        return _locus_class(self.fan, self.cones)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ToricLocus)
                and self.fan == other.fan and self.cones == other.cones)

    def __hash__(self) -> int:
        return hash(("locus", self.fan, self.cones))

    def __repr__(self) -> str:
        return f"ToricLocus({len(self.cones)} cones in {self.fan!r})"


@kept
def _is_upward_closed(fan: Fan, cones: frozenset) -> bool:
    return not any(f in cones for other in fan.cones if other not in cones
                   for f in other.faces())


@kept
def _locus_class(fan: Fan, cones: frozenset) -> KClass:
    return fan.class_of(cones)


# ---------------------------------------------------------------------------
# builtin fans

def hirzebruch_fan(a: int) -> Fan:
    """The a-th Hirzebruch surface: rays e1, e2, -e1 + a*e2, -e2."""
    return build_fan(2, [(1, 0), (0, 1), (-1, a), (0, -1)],
                     [(0, 1), (1, 2), (2, 3), (3, 0)])


_BUILTIN_FANS = {
    "P1": lambda: build_fan(1, [(1,), (-1,)], [(0,), (1,)]),
    "P2": lambda: build_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
    "P1xP1": lambda: builtin_fan("P1").product(builtin_fan("P1")),
    "A1": lambda: build_fan(1, [(1,)], [(0,)]),
    "A2": lambda: build_fan(2, [(1, 0), (0, 1)], [(0, 1)]),
    "Gm": lambda: build_fan(1, [], [()]),
}

BUILTIN_FAN_NAMES = tuple(_BUILTIN_FANS)

# the builtin fans in use, by name: a fan leaves when its last user drops
# it, with the products and subdivisions it keeps
_builtins: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


def builtin_fan(name: str) -> Fan:
    """A builtin fan (``BUILTIN_FAN_NAMES`` or ``Hirzebruch(a)``), built
    once while in use."""
    fan = _builtins.get(name)
    if fan is None:
        if name in _BUILTIN_FANS:
            fan = _BUILTIN_FANS[name]()
        else:
            hirzebruch = re.fullmatch(r"Hirzebruch\((-?[0-9]{1,18})\)", name)
            if not hirzebruch:
                raise ToricError(f"unknown builtin fan {name!r}")
            fan = hirzebruch_fan(int(hirzebruch.group(1)))
        _builtins[name] = fan
    return fan
