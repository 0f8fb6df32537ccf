"""Extending invariants of compact varieties to compact-support invariants.

Phi_c(U) = Phi(Xbar) - Phi_c(Xbar \\ U) for any compactification, a fixed
combination of compact objects, printed beside each value; the value is
independent of the choice exactly when Phi satisfies abstract-blowup
descent, and a deliberately broken measure is caught as a descent
violation.
"""

from kvar.csupport import (
    MeasureOnCompacts,
    PerturbedMeasure,
    additivity_check,
    compact_terms,
    consistency_check,
    extend_measure,
    independence_check,
    oracle_value,
)
from kvar.measures import MeasureSpec
from kvar.spansite import ToricObject, star_subdivision_square
from kvar.toric import builtin_fan

chi = MeasureOnCompacts(MeasureSpec("euler"))
e_poly = MeasureOnCompacts(MeasureSpec("e_poly"))


def show(name):
    """The combination of compact objects, one for every measure, then its values."""
    obj = ToricObject(name, builtin_fan(name))
    terms = " ".join(f"{c:+d} Phi({k!r})" for c, k in compact_terms(obj))
    print(f"  Phi_c({name}) = {terms}")
    for phi in (chi, e_poly):
        print(f"    {phi.name}_c({name}) = {extend_measure(phi, obj)}")


print("== values of the extension ==")
for name in ("P2", "A1", "A2", "Gm"):
    show(name)

print()
print("== the two routes agree (orbit-class oracle) ==")
for name in ("A2", "Gm", "P1xP1"):
    obj = ToricObject(name, builtin_fan(name))
    ours = extend_measure(e_poly, obj)
    oracle = oracle_value(e_poly, obj)
    print(f"  E_c({name}) = {ours}  == substitution of the class: {ours == oracle}")

print()
print("== independence of the compactification ==")
a2 = ToricObject("A2", builtin_fan("A2"))
via_p2 = builtin_fan("P2")
via_quadric = builtin_fan("P1xP1")
report = independence_check(e_poly, a2, via_p2, via_quadric)
print(f"  E_c(A2) via P2 = {report.lhs}, via P1xP1 = {report.rhs}: {report.status}")

print()
print("== the descent identities ==")
p1 = ToricObject("P1", builtin_fan("P1"))
win = frozenset(c for c in p1.fan.cones if c.dim == 0 or (1,) in c.rays)
print("  additivity on (P1, A1):",
      additivity_check(chi, p1, win).status)
square = star_subdivision_square(ToricObject("P2", builtin_fan("P2")), (1, 1))
report = consistency_check("blowup_descent", e_poly, square)
print(f"  blowup descent on (P1, F1, pt, P2): {report.status}, both sides {report.lhs}")
gm = ToricObject("Gm", builtin_fan("Gm"))
report = consistency_check("kunneth", e_poly, (gm, gm))
print(f"  Kunneth on Gm x Gm: {report.status}, E_c = {report.lhs}")

print()
print("== a broken measure is evidence, not an engine error ==")
broken = PerturbedMeasure(e_poly, builtin_fan("P2"), delta=1)
report = independence_check(broken, a2, via_p2, via_quadric)
print(f"  perturbed Phi(P2): independence {report.status} ({report.note})")
report = consistency_check("blowup_descent", broken, square)
print(f"  perturbed Phi(P2): blowup descent {report.status}")
