"""Compactly supported extension of measures defined on compact varieties.

Given a ring-valued measure on compact objects, the extension is
Phi_c(U) = Phi(Xbar) - Phi_c(Xbar \\ U) for a compactification Xbar of U;
the recursion terminates because boundaries drop dimension.  Toric
boundaries are decomposed orbit by orbit, so the recursion bottoms out in
torus classes, whose own compactification chain is (P1)^k.  The value is
well defined exactly when the input measure satisfies descent for abstract
blowup squares; the checks in this module verify the resulting identities
(additivity, independence of the compactification, blowup descent,
Mayer-Vietoris, Kunneth) and report violations as evidence rather than
engine errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from kvar import toric
from kvar.kring import KClass, MissingCompactificationError
from kvar.measures import MeasureSpec, MeasureValue, apply_measure
from kvar.spansite import DistinguishedSquare, SiteObject, ToricLocusObject, ToricObject
from kvar.toric import Cone, Fan, ToricLocus


class CSupportError(Exception):
    pass


class MeasureDomainError(CSupportError):
    pass


# ---------------------------------------------------------------------------
# measures on compact objects

class MeasureOnCompacts:
    """A measure defined on the compact objects of the corpus.

    A compact object evaluates through its canonical class, a fan class,
    and the spec's ring substitution.  Each measure memoizes its value per
    class; a failure is never memoized.
    """

    multiplicative = True

    def __init__(self, spec: MeasureSpec):
        self.spec = spec
        self.name = spec.name
        self._values: Dict[KClass, MeasureValue] = {}

    def on_compact(self, obj: SiteObject) -> MeasureValue:
        if obj.is_empty():
            return MeasureValue.integer(0)
        if not obj.is_compact():
            raise MeasureDomainError(f"{obj.name} is not compact")
        cls = obj.kclass()
        value = self._values.get(cls)
        if value is None:
            value = self._values[cls] = apply_measure(self.spec, cls)
        return value

    def substitute_class(self, cls: KClass) -> MeasureValue:
        return apply_measure(self.spec, cls)


class PerturbedMeasure(MeasureOnCompacts):
    """Mutation fixture: the base measure with one compact variety's value
    shifted.  Breaks abstract-blowup descent, which the check suite must
    detect as a descent violation."""

    multiplicative = False

    def __init__(self, base: MeasureOnCompacts, target_fan: Fan, delta: int = 1):
        super().__init__(base.spec)
        self.name = f"{base.name}+perturbed"
        self.target_fan = target_fan
        self.delta = delta

    def on_compact(self, obj: SiteObject) -> MeasureValue:
        value = super().on_compact(obj)
        if isinstance(obj, ToricObject) and obj.fan == self.target_fan:
            value = value + MeasureValue.integer(self.delta)
        return value


# ---------------------------------------------------------------------------
# compactification choices

@dataclass
class CompactificationChoice:
    """U sits as a dense open inside ``compact_obj`` with the given boundary."""
    compact_obj: ToricObject
    boundary: ToricLocus


def toric_choice(obj: ToricObject, completion: Optional[Fan] = None,
                 name: Optional[str] = None) -> CompactificationChoice:
    """The object as a dense open of ``completion``, the rest as boundary.
    With no completion, the automatic one (``toric.complete_surface``),
    which holds the fan by construction; a given one must be complete and
    contain the fan."""
    if completion is None:
        completion = toric.complete_surface(obj.fan)
    elif not completion.is_complete():
        raise MissingCompactificationError("completion fan is not complete")
    elif not all(completion.contains_cone(c) for c in obj.fan.cones):
        raise MissingCompactificationError("completion does not contain the fan")
    compact_obj = ToricObject(name or f"{obj.name}^bar", completion)
    return CompactificationChoice(compact_obj,
                                  ToricLocus(completion, _boundary(obj.fan, completion)))


@toric.kept
def _boundary(fan: Fan, completion: Fan) -> frozenset:
    """The cones of the completion outside the fan, kept on the fan."""
    return frozenset(c for c in completion.cones if not fan.contains_cone(c))


# ---------------------------------------------------------------------------
# the extension

@dataclass(frozen=True, slots=True)
class TraceStep:
    object_desc: str
    compactification: str
    boundary_desc: str
    depth: int


@dataclass(frozen=True, slots=True)
class ExtensionResult:
    object_name: str
    value: MeasureValue
    trace: Tuple[TraceStep, ...]


def extend_measure(phi: MeasureOnCompacts, obj: SiteObject,
                   choice: Optional[CompactificationChoice] = None) -> ExtensionResult:
    """Phi_c of any object: Phi on compacts, else Phi(Xbar) - Phi_c(boundary).

    Xbar is the object's automatic completion (``toric_choice``), or
    ``choice`` when one is given (by the independence check, and for a fan
    that has no automatic completion).  Trace depth never exceeds dim + 1:
    every recursive boundary strictly drops dimension.  Nothing is memoized
    here, so the value and the trace are functions of the measure, the
    object and the choice, and of nothing extended before.  The recursion
    is module functions sharing ``trace``: nested closures would form a
    reference cycle per call, which only the garbage collector frees.
    """
    trace: List[TraceStep] = []
    if obj.is_empty():
        value = MeasureValue.integer(0)
    elif obj.is_compact():
        value = phi.on_compact(obj)
    elif isinstance(obj, ToricObject):
        value = _of_open(phi, obj, choice or toric_choice(obj), 0, trace)
    elif isinstance(obj, ToricLocusObject):
        value = _of_locus(phi, obj.locus, 0, trace)
    else:
        raise CSupportError(f"cannot extend over {obj!r}")
    return ExtensionResult(obj.name, value, tuple(trace))


def _of_open(phi: MeasureOnCompacts, obj: ToricObject, choice: CompactificationChoice,
             depth: int, trace: List[TraceStep]) -> MeasureValue:
    """Phi(Xbar) - Phi_c(Xbar \\ U) for U the object, one step deeper."""
    trace.append(TraceStep(obj.name, choice.compact_obj.name,
                           f"{len(choice.boundary.cones)} boundary cones", depth + 1))
    return phi.on_compact(choice.compact_obj) \
        - _of_locus(phi, choice.boundary, depth + 1, trace)


def _of_locus(phi: MeasureOnCompacts, locus: ToricLocus, depth: int,
              trace: List[TraceStep]) -> MeasureValue:
    """A compact locus is measured; any other is decomposed orbit by orbit
    into tori, each torus dimension extended once as the dense open of
    (P1)^k.  A completion's boundary is upward-closed, hence compact
    (Fulton, Introduction to Toric Varieties, 2.4 and 3.1), so one
    extension decomposes at most one locus: a non-closed top-level locus."""
    if locus.is_empty():
        return MeasureValue.integer(0)
    if locus.is_compact():
        return phi.on_compact(ToricLocusObject("piece", locus))
    tori: Dict[int, MeasureValue] = {}
    total = MeasureValue.integer(0)
    for cone in sorted(locus.cones, key=lambda c: c.rays):
        k = locus.fan.rank - cone.dim
        if k not in tori:
            torus = ToricObject(f"torus^{k}", Fan(k, [Cone(k, ())]))
            tori[k] = phi.on_compact(torus) if k == 0 else _of_open(
                phi, torus, toric_choice(torus, name=f"(P1)^{k}"), depth, trace)
        total = total + tori[k]
    return total


def oracle_value(phi: MeasureOnCompacts, obj: SiteObject) -> MeasureValue:
    """Independent route: substitute the measure into the canonical class
    from the orbit decomposition."""
    return phi.substitute_class(obj.kclass())


# ---------------------------------------------------------------------------
# checks

class CheckResult(NamedTuple):
    """What a check found, as its report record holds it."""
    status: str  # pass | fail
    lhs: object = None
    rhs: object = None
    note: str = ""


def verdict(ok: bool, lhs=None, rhs=None, note: str = "") -> CheckResult:
    """The result of a check that passed exactly when ``ok`` holds."""
    return CheckResult("pass" if ok else "fail", lhs, rhs, note)


def additivity_check(phi: MeasureOnCompacts, x_obj: ToricObject,
                     window: Iterable[Cone]) -> CheckResult:
    """Phi_c(U) + Phi_c(X \\ U) = Phi_c(X) for U the open subvariety on a
    face-closed cone subset."""
    window = frozenset(window)
    sub = x_obj.fan.subfan(window)
    u_obj = ToricObject(f"{x_obj.name}|U", sub)
    complement = ToricLocus(x_obj.fan, [c for c in x_obj.fan.cones if c not in window])
    lhs = extend_measure(phi, u_obj).value \
        + extend_measure(phi, ToricLocusObject("complement", complement)).value
    rhs = extend_measure(phi, x_obj).value
    return verdict(lhs == rhs, lhs, rhs)


def independence_check(phi: MeasureOnCompacts, obj: ToricObject,
                       comp_a: CompactificationChoice,
                       comp_b: CompactificationChoice) -> CheckResult:
    """Phi_c through two compactifications; inequality is evidence of a
    descent violation (well-definedness fails exactly then)."""
    va = extend_measure(phi, obj, comp_a).value
    vb = extend_measure(phi, obj, comp_b).value
    return verdict(va == vb, va, vb, "" if va == vb else
                   "descent violation: the measure does not satisfy abstract-blowup descent")


def consistency_check(kind: str, phi: MeasureOnCompacts, args) -> CheckResult:
    """Descent identities at measure level.

    blowup_descent:  Phi_c(X) + Phi_c(E) = Phi_c(C) + Phi_c(Y) on a square;
    mayer_vietoris:  Phi_c(U n V) + Phi_c(X) = Phi_c(U) + Phi_c(V), X = U u V;
    kunneth:         Phi_c(X x Y) = Phi_c(X) Phi_c(Y), phi multiplicative; a
                     product that is not complete is extended through the
                     product of the factors' completions.
    """
    if kind == "blowup_descent":
        sq: DistinguishedSquare = args
        lhs = extend_measure(phi, sq.base).value + extend_measure(phi, sq.E).value
        rhs = extend_measure(phi, sq.C).value + extend_measure(phi, sq.Y).value
        return verdict(lhs == rhs, lhs, rhs, "" if lhs == rhs else "descent violation")
    if kind == "mayer_vietoris":
        x_obj, win_u, win_v = args
        win_u, win_v = frozenset(win_u), frozenset(win_v)
        if win_u | win_v != frozenset(x_obj.fan.cones):
            raise CSupportError("U and V do not cover X")
        vu, vv, vunv = (extend_measure(phi, ToricObject(tag, x_obj.fan.subfan(win))).value
                        for tag, win in (("U", win_u), ("V", win_v), ("UnV", win_u & win_v)))
        lhs = vunv + extend_measure(phi, x_obj).value
        return verdict(lhs == vu + vv, lhs, vu + vv)
    if kind == "kunneth":
        if not phi.multiplicative:
            raise MeasureDomainError("kunneth needs a multiplicative measure")
        a_obj, b_obj = args
        product_fan = a_obj.fan.product(b_obj.fan)
        prod_obj = ToricObject(f"{a_obj.name}x{b_obj.name}", product_fan)
        choice = None
        if not product_fan.is_complete():
            choice = toric_choice(prod_obj, toric.complete_surface(a_obj.fan).product(
                toric.complete_surface(b_obj.fan)))
        lhs = extend_measure(phi, prod_obj, choice).value
        rhs = extend_measure(phi, a_obj).value * extend_measure(phi, b_obj).value
        return verdict(lhs == rhs, lhs, rhs)
    raise CSupportError(f"unknown consistency check {kind!r}")
