"""Deterministic check corpus: seeded families of toric objects and squares.

The recipe is fixed (version tag below) so identical seeds give identical
corpora and byte-identical reports: smooth complete surfaces arise from P2
and P1xP1 by repeated barycentric star subdivisions of maximal cones (the
classical construction of all smooth complete toric surfaces), opens are
face-closed cone subsets, and rank-3 objects are products with P1.  All
random draws go through one seeded generator over sorted candidate lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import FrozenSet, List, NamedTuple, Tuple

from kvar import toric
from kvar.spansite import (
    DistinguishedSquare,
    SitePresentation,
    SpanMorphism,
    ToricObject,
    identity_span,
    localization_square,
    star_subdivision_square,
    zero_span,
)
from kvar.toric import Cone, Fan

RECIPE_VERSION = "corpus-v1"

EXPR_GENERATORS = ("pt", "P1", "P2", "P3", "A1", "A2", "A3", "Gm", "L")


class TwoCompletions(NamedTuple):
    """An open of an independence check, its automatic completion and a
    second one (a triple that ``perfbench/verify.py`` reads by ``.obj``)."""
    obj: ToricObject
    completion: Fan
    alternative: Fan


@dataclass
class Corpus:
    seed: int
    size: int
    surfaces: List[ToricObject] = field(default_factory=list)
    squares: List[DistinguishedSquare] = field(default_factory=list)
    loc_squares: List[DistinguishedSquare] = field(default_factory=list)
    pairs_xu: List[Tuple[ToricObject, FrozenSet[Cone]]] = field(default_factory=list)
    independence: List[TwoCompletions] = field(default_factory=list)
    mv_triples: List[Tuple[ToricObject, FrozenSet[Cone], FrozenSet[Cone]]] = field(default_factory=list)
    kunneth_pairs: List[Tuple[ToricObject, ToricObject]] = field(default_factory=list)
    rank3: List[ToricObject] = field(default_factory=list)
    expressions: List[str] = field(default_factory=list)
    site: SitePresentation = field(default_factory=SitePresentation)
    c_complete_cases: List[Tuple[DistinguishedSquare, SpanMorphism]] = field(default_factory=list)

    def all_fans(self) -> List[Fan]:
        fans = [o.fan for o in self.surfaces]
        fans.extend(sq.Y.fan for sq in self.squares)
        fans.extend(o.fan for o in self.rank3)
        return fans


def _sorted_maximal(fan: Fan, dim: int = 2) -> List[Cone]:
    return [c for c in fan.maximal_cones if c.dim == dim]


def _random_surface(rng: random.Random, index: int) -> Tuple[ToricObject, List[DistinguishedSquare]]:
    base_name = rng.choice(["P2", "P1xP1"])
    fan = toric.builtin_fan(base_name)
    obj = ToricObject(f"{base_name}#{index}", fan)
    squares = []
    for step in range(rng.randint(1, 3)):
        cone = rng.choice(_sorted_maximal(obj.fan))
        ray = toric.primitive(cone.representative())
        sq = star_subdivision_square(obj, ray)
        squares.append(sq)
        obj = ToricObject(f"{obj.name}.{step}", sq.Y.fan)
    return obj, squares


def _random_window(rng: random.Random, fan: Fan) -> FrozenSet[Cone]:
    """A face-closed proper subset of the fan's cones."""
    maximal = _sorted_maximal(fan)
    style = rng.randrange(3)
    if style == 0:
        dropped = rng.choice(maximal)
        keep = [c for c in maximal if c != dropped]
    elif style == 1:
        keep = []
    else:
        k = rng.randint(1, max(1, len(maximal) - 1))
        keep = rng.sample(maximal, k)
    cones = set()
    for c in keep:
        cones.update(c.faces())
    cones.add(Cone(fan.rank, []))
    return frozenset(cones)


def _random_expression(rng: random.Random, depth: int = 0) -> str:
    if depth >= 3 or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.15:
            return str(rng.randint(0, 5))
        return rng.choice(EXPR_GENERATORS)
    op = rng.choice(["+", "-", "*"])
    left = _random_expression(rng, depth + 1)
    right = _random_expression(rng, depth + 1)
    return f"({left} {op} {right})"


def generate(seed: int, size: int) -> Corpus:
    """Build the corpus for a seed; the recipe is versioned for reports."""
    rng = random.Random(seed)
    corpus = Corpus(seed, size)
    site = corpus.site

    n_surfaces = max(8, size)
    for i in range(n_surfaces):
        obj, squares = _random_surface(rng, i)
        corpus.surfaces.append(obj)
        for sq in squares:
            site.add_square(sq)
            corpus.squares.append(sq)

    # (X, U) pairs for additivity; at least four windows per surface
    per_surface = max(4, (4 * size + len(corpus.surfaces) - 1) // max(1, len(corpus.surfaces)))
    for obj in corpus.surfaces:
        for _ in range(per_surface):
            corpus.pairs_xu.append((obj, _random_window(rng, obj.fan)))

    # independence: non-complete opens, auto-completion vs a subdivided one
    for obj, window in corpus.pairs_xu:
        if len(corpus.independence) >= max(50, size):
            break
        if window == frozenset(obj.fan.cones):
            continue
        sub = obj.fan.subfan(window)
        if sub.is_complete() or sub.is_empty():
            continue
        comp_b = toric.alternative_completion(sub, pick=rng.choice)
        if comp_b is None:
            continue
        u_obj = ToricObject(f"{obj.name}|open{len(corpus.independence)}", sub)
        corpus.independence.append(TwoCompletions(u_obj, toric.complete_surface(sub), comp_b))

    # Mayer-Vietoris triples: drop two different maximal cones
    for obj in corpus.surfaces:
        maximal = _sorted_maximal(obj.fan)
        if len(maximal) < 2:
            continue
        for _ in range(max(1, size // len(corpus.surfaces) + 1)):
            s1, s2 = rng.sample(maximal, 2)
            win_u = obj.fan.cones - {s1}
            win_v = obj.fan.cones - {s2}
            corpus.mv_triples.append((obj, win_u, win_v))

    # Kunneth pool: small surfaces, their opens, and rank-1 objects
    pool: List[ToricObject] = [
        ToricObject("P1", toric.builtin_fan("P1")),
        ToricObject("A1", toric.builtin_fan("A1")),
        ToricObject("Gm", toric.builtin_fan("Gm")),
    ]
    for obj in corpus.surfaces[:6]:
        pool.append(obj)
        window = _random_window(rng, obj.fan)
        sub = obj.fan.subfan(window)
        if not sub.is_empty():
            pool.append(ToricObject(f"{obj.name}|k", sub))
    for _ in range(2 * max(50, size)):
        corpus.kunneth_pairs.append((rng.choice(pool), rng.choice(pool)))

    # rank-3 smooth complete objects: P1 x surface
    p1_fan = toric.builtin_fan("P1")
    for obj in corpus.surfaces[:max(4, size // 10)]:
        corpus.rank3.append(ToricObject(f"P1x{obj.name}", p1_fan.product(obj.fan)))
    corpus.rank3.append(ToricObject("P1^3", p1_fan.product(p1_fan).product(p1_fan)))

    # expressions over builtins for the round-trip checks
    for _ in range(2 * max(50, size)):
        corpus.expressions.append(_random_expression(rng))

    # localization squares from a sample of the (X, U) pairs
    for obj, window in corpus.pairs_xu[:max(20, size // 2)]:
        if not window or window == frozenset(obj.fan.cones):
            continue
        n = len(corpus.loc_squares)
        sq = localization_square(obj, window, u_name=f"{obj.name}|loc{n}",
                                 complement_name=f"{obj.name}-bd{n}")
        corpus.loc_squares.append(sq)
        site.add_square(sq)

    # morphisms into square bases for the c-completeness criterion
    for sq in corpus.squares:
        base = sq.base
        cases = [identity_span(base), sq.p_leg, zero_span(sq.Y, base)]
        other = rng.choice(_sorted_maximal(base.fan))
        alt = star_subdivision_square(base, toric.primitive(other.representative()))
        cases.append(alt.p_leg)
        for f in cases:
            corpus.c_complete_cases.append((sq, f))
    for sq in corpus.loc_squares:
        u_obj = sq.base
        cases = [identity_span(u_obj), sq.p_leg, zero_span(sq.Y, u_obj)]
        if not u_obj.fan.is_complete():
            alt_fan = toric.alternative_completion(u_obj.fan) \
                or toric.complete_surface(u_obj.fan)
            alt_obj = ToricObject(f"{u_obj.name}^alt", alt_fan)
            cases.append(SpanMorphism(alt_obj, u_obj, frozenset(u_obj.fan.cones),
                                      "restriction from an alternative completion"))
        for f in cases:
            corpus.c_complete_cases.append((sq, f))

    return corpus
