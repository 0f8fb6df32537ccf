"""Spans, distinguished squares, simple covers, and the instance checks.

A morphism X -> Y is an open window of X with a proper map to Y.
Distinguished squares (blowup and localization) generate covers; the
checks below decide c-completeness and dimension compatibility on
concrete instances.
"""

from kvar import toric
from kvar.spansite import (
    SitePresentation,
    SpanMorphism,
    ToricObject,
    check_c_complete,
    check_dim_compatible,
    compose,
    enumerate_simple_covers,
    identity_span,
    localization_square,
    star_subdivision_square,
    validate_square,
)
from kvar.toric import builtin_fan

print("== span composition pulls back windows ==")
p1 = ToricObject("P1", builtin_fan("P1"))
a1 = ToricObject("A1", builtin_fan("A1"))
gm = ToricObject("Gm", builtin_fan("Gm"))
first = SpanMorphism(p1, a1, frozenset(c for c in p1.fan.cones
                                       if c.dim == 0 or (1,) in c.rays))
second = SpanMorphism(a1, gm, frozenset(c for c in a1.fan.cones if c.dim == 0))
composite = compose(second, first)
print("  (P1 -> A1) then (A1 -> Gm): window has",
      len(composite.window), "cone (the torus), target", composite.target.name)

print()
print("== squares validate by exact cone combinatorics ==")
p2 = ToricObject("P2", builtin_fan("P2"))
square = star_subdivision_square(p2, (1, 1))
report = validate_square(square)
for entry in report.entries:
    print(f"  {entry.condition:55s} {entry.status}")
print("  jointly surjective on orbits:", report.jointly_surjective)

loc = localization_square(p2, frozenset(c for c in p2.fan.cones if c.dim == 0))
print("  localization square (P2, torus): closed part class =",
      loc.E.kclass())

print()
print("== simple covers ==")
site = SitePresentation()
site.add_square(square)
stacked = star_subdivision_square(square.Y, (2, 1))
site.add_square(stacked)
for depth in range(3):
    covers = enumerate_simple_covers(site, p2, depth)
    shapes = sorted(len(c.leaves()) for c in covers)
    print(f"  depth {depth}: {len(covers)} covers, leaf counts {shapes}")

print()
print("== c-completeness: pulled-back sieves contain simple covers ==")
cases = [
    ("identity", identity_span(p2)),
    ("the p-leg itself", square.p_leg),
    ("another blowdown", star_subdivision_square(p2, (1, 2)).p_leg),
]
for label, f in cases:
    verdict = check_c_complete(square, f)
    print(f"  {label:24s} found={verdict.cover is not None}  ({verdict.note})")

a2 = ToricObject("A2", builtin_fan("A2"))
open_base_square = star_subdivision_square(a2, (1, 1))
f_open = SpanMorphism(p2, a2, frozenset(a2.fan.cones))
verdict = check_c_complete(open_base_square, f_open)
print(f"  open immersion P2 <- A2    found={verdict.cover is not None}  ({verdict.note})")

print()
print("== dimension compatibility ==")
print("  blowup square:", check_dim_compatible(square).kind)
print("  localization with dense open:", check_dim_compatible(loc).kind)
empty_window = localization_square(p2, frozenset())
verdict = check_dim_compatible(empty_window)
print("  localization with empty open:", verdict.kind, f"({verdict.note})")
