"""The toric backend: fans supply varieties where everything is computable.

Completeness is compactness, subfans are open subvarieties, star
subdivisions are blowups, and classes come from the orbit decomposition,
all in exact integer arithmetic.
"""

from kvar import toric
from kvar.spansite import ToricObject, star_subdivision_square
from kvar.toric import build_fan, builtin_fan, complete_surface, fan_properties

print("== builtin fans ==")
for name in toric.BUILTIN_FAN_NAMES:
    fan = builtin_fan(name)
    props = fan_properties(fan)
    print(f"  {name:6s} cones={len(fan.cones):3d}  complete={props.complete!s:5s} "
          f"smooth={props.smooth!s:5s}  class = {fan.class_of()}")

print()
print("== a fan from raw data ==")
fan = build_fan(2, [(1, 0), (0, 1), (-1, 2)], [(0, 1), (1, 2)])
print("  rays", fan.rays, "->", fan_properties(fan))
print("  (the cone <e2, -e1+2e2> has determinant -2: a quotient singularity)")

print()
print("== star subdivision = blowup ==")
square = star_subdivision_square(ToricObject("P2", builtin_fan("P2")), (1, 1))
print("  blowing up P2 at the fixed point of <e1,e2>:")
print("  new fan rays:", square.Y.fan.rays)
print("  [Y] =", square.Y.kclass(), " [E] =", square.E.kclass(),
      " [C] =", square.C.kclass())
lhs = square.E.kclass() + square.base.kclass()
rhs = square.C.kclass() + square.Y.kclass()
print("  [E] + [X] == [C] + [Y]:", lhs == rhs, "| both:", lhs)

print()
print("== orbit counting over finite fields ==")
for q in (2, 3, 4, 5):
    print(f"  #F1(F_{q}) =", square.Y.fan.orbit_count(q))

print()
print("== surface completion (the computable stand-in for compactification) ==")
for name in ("A1", "A2", "Gm"):
    fan = builtin_fan(name)
    done = complete_surface(fan)
    print(f"  {name}: rays {fan.rays} -> completion rays {done.rays} "
          f"(complete={done.is_complete()})")
one_ray = build_fan(2, [(2, 1)], [(0,)])
print("  a single singular ray:", one_ray.rays, "->",
      complete_surface(one_ray).rays)
