"""Motivic measures, point counts, and weight-graded reporting.

Each measure is a ring substitution on canonical classes; the E-polynomial
of a smooth complete toric variety is pure, with coefficients equal to the
h-vector of its fan.
"""

from kvar import toric
from kvar.csupport import MeasureOnCompacts, extend_measure
from kvar.kring import normalize
from kvar.measures import MeasureSpec, apply_measure, h_vector, weight_report
from kvar.spansite import ToricObject
from kvar.toric import builtin_fan

print("== the four builtin measures on [P2] ==")
cls = normalize("P2")
for spec in (MeasureSpec("euler"), MeasureSpec("e_poly"),
             MeasureSpec("virtual_poincare"), MeasureSpec("point_count", q=2)):
    print(f"  {spec.name:18s} -> {apply_measure(spec, cls)}")

print()
print("== E-polynomials specialize to point counts ==")
fan = toric.star_subdivide(builtin_fan("P1xP1"), (1, 1)).fan
e_val = apply_measure(MeasureSpec("e_poly"), fan.class_of())
print("  E(Bl(P1xP1)) =", e_val)
for q in (2, 3, 4, 5):
    print(f"    at uv = {q}: {e_val.substitute_int(q)}  "
          f"(orbit count {fan.orbit_count(q)})")

print()
print("== weight tables and purity ==")
e_poly = MeasureOnCompacts(MeasureSpec("e_poly"))
examples = [
    ToricObject("P1xP1", builtin_fan("P1xP1")),
    ToricObject("P1xP2", builtin_fan("P1").product(builtin_fan("P2"))),
    ToricObject("Gm", builtin_fan("Gm")),
    ToricObject("A2", builtin_fan("A2")),
]
for obj in examples:
    value = extend_measure(e_poly, obj).value
    report = weight_report(value, obj.smooth, obj.is_compact(),
                           obj.fan.face_counts(), obj.fan.rank)
    verdict = {True: "pure", False: "IMPURE", None: "no verdict"}[report.purity]
    flags = " mixed" if report.mixed else ""
    print(f"  {obj.name:7s} weights {dict(report.weights)}  [{verdict}{flags}]")

print()
print("== h-vectors from face counts alone ==")
for name in ("P2", "P1xP1"):
    fan = builtin_fan(name)
    print(f"  {name}: face counts {fan.face_counts()} -> "
          f"h-vector {h_vector(fan.face_counts(), fan.rank)}")
