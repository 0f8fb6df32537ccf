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


def euler_measure() -> MeasureOnCompacts:
    return MeasureOnCompacts(MeasureSpec("euler"))


def e_polynomial_measure() -> MeasureOnCompacts:
    return MeasureOnCompacts(MeasureSpec("e_poly"))


def virtual_poincare_measure() -> MeasureOnCompacts:
    return MeasureOnCompacts(MeasureSpec("virtual_poincare"))


def point_count_measure(q: int) -> MeasureOnCompacts:
    return MeasureOnCompacts(MeasureSpec("point_count", q=q))


BUILTIN_MEASURES = ("euler", "e_poly", "virtual_poincare")


# ---------------------------------------------------------------------------
# compactification choices and providers

@dataclass
class CompactificationChoice:
    """U sits as a dense open inside ``compact_obj`` with the given boundary."""
    compact_obj: ToricObject
    boundary: ToricLocus


class CompletionProvider:
    """Supplies a completion fan for every non-compact toric object it
    meets of rank <= 2, and for tori of any rank (products of P1).  An
    object of higher rank takes an explicit compactification choice
    (``toric_choice``) instead.

    A provider belongs to one run.  It keeps the automatic rank-2
    completion of each fan, so the completion it picks for a fan stays
    fixed.
    """

    def __init__(self):
        self._completions: Dict[Fan, Fan] = {}

    def completion_fan(self, fan: Fan) -> Fan:
        if fan.is_complete():
            return fan
        if all(c.dim == 0 for c in fan.cones):
            return _p1_power(fan.rank)
        if fan.rank <= 2:
            completion = self._completions.get(fan)
            if completion is None:
                completion = self._completions[fan] = toric.complete_surface(fan)
            return completion
        raise MissingCompactificationError(
            f"no automatic completion of a rank-{fan.rank} fan; pass an explicit choice")

    def choose(self, obj: ToricObject) -> CompactificationChoice:
        return _completion_choice(obj, self.completion_fan(obj.fan))


def _p1_power(k: int) -> Fan:
    fan = toric.builtin_fan("P1")
    if k == 0:
        return Fan(0, [Cone(0, [])])
    out = fan
    for _ in range(k - 1):
        out = out.product(fan)
    return out


def toric_choice(obj: ToricObject, completion: Fan,
                 name: Optional[str] = None) -> CompactificationChoice:
    """Explicit compactification of a toric object by a completion fan
    containing its fan as a subfan."""
    _check_completion(obj.fan, completion)
    return _completion_choice(obj, completion, name)


def _check_completion(fan: Fan, completion: Fan) -> None:
    if not completion.is_complete():
        raise MissingCompactificationError("completion fan is not complete")
    if not all(completion.contains_cone(c) for c in fan.cones):
        raise MissingCompactificationError("completion does not contain the fan")


def _completion_choice(obj: ToricObject, completion: Fan,
                       name: Optional[str] = None) -> CompactificationChoice:
    """The object as a dense open of the completion, the rest as boundary."""
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
                   provider: Optional[CompletionProvider] = None,
                   choice: Optional[CompactificationChoice] = None) -> ExtensionResult:
    """Phi_c of any object: Phi on compacts, else Phi(Xbar) - Phi_c(boundary).

    ``choice`` overrides the provider's compactification of the object
    (used by the independence check, and for a rank above 2).  Trace depth
    never exceeds dim + 1: every recursive boundary strictly drops
    dimension.  Nothing is memoized, so the value and the trace depend on
    the measure, the object and the completions the provider picks, and on
    nothing extended before.  The recursion is module functions sharing
    ``trace``: nested closures would form a reference cycle per call, which
    only the garbage collector frees.
    """
    trace: List[TraceStep] = []
    if obj.is_empty():
        value = MeasureValue.integer(0)
    elif obj.is_compact():
        value = phi.on_compact(obj)
    elif isinstance(obj, ToricObject):
        ch = choice or (provider or CompletionProvider()).choose(obj)
        trace.append(TraceStep(obj.name, ch.compact_obj.name,
                               f"{len(ch.boundary.cones)} boundary cones", 1))
        value = phi.on_compact(ch.compact_obj) - _of_locus(phi, ch.boundary, 1, trace)
    elif isinstance(obj, ToricLocusObject):
        value = _of_locus(phi, obj.locus, 0, trace)
    else:
        raise CSupportError(f"cannot extend over {obj!r}")
    return ExtensionResult(obj.name, value, tuple(trace))


def _of_locus(phi: MeasureOnCompacts, locus: ToricLocus, depth: int,
              trace: List[TraceStep]) -> MeasureValue:
    """A compact locus is measured; any other is decomposed orbit by orbit
    into tori, each torus dimension extended once.  A completion's boundary
    is upward-closed, hence compact (Fulton, Introduction to Toric
    Varieties, 2.4 and 3.1), so one extension decomposes at most one locus:
    a non-closed top-level locus."""
    if locus.is_empty():
        return MeasureValue.integer(0)
    if locus.is_compact():
        return phi.on_compact(ToricLocusObject("piece", locus))
    tori: Dict[int, MeasureValue] = {}
    total = MeasureValue.integer(0)
    for cone in sorted(locus.cones, key=lambda c: c.rays):
        k = locus.fan.rank - cone.dim
        if k not in tori:
            tori[k] = _of_torus(phi, k, depth, trace)
        total = total + tori[k]
    return total


def _of_torus(phi: MeasureOnCompacts, k: int, depth: int,
              trace: List[TraceStep]) -> MeasureValue:
    """The k-torus as the dense open of (P1)^k."""
    if k == 0:
        return phi.on_compact(ToricObject("pt", _p1_power(0)))
    ambient = _p1_power(k)
    boundary = ToricLocus(ambient, [c for c in ambient.cones if c.dim > 0])
    trace.append(TraceStep(f"torus^{k}", f"(P1)^{k}",
                           f"{len(boundary.cones)} boundary cones", depth + 1))
    return phi.on_compact(ToricObject(f"(P1)^{k}", ambient)) \
        - _of_locus(phi, boundary, depth + 1, trace)


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
                     window: Iterable[Cone],
                     provider: Optional[CompletionProvider] = None) -> CheckResult:
    """Phi_c(U) + Phi_c(X \\ U) = Phi_c(X) for U the open subvariety on a
    face-closed cone subset."""
    provider = provider or CompletionProvider()
    window = frozenset(window)
    sub = x_obj.fan.subfan(window)
    u_obj = ToricObject(f"{x_obj.name}|U", sub)
    complement = ToricLocus(x_obj.fan, [c for c in x_obj.fan.cones if c not in window])
    lhs = extend_measure(phi, u_obj, provider).value \
        + extend_measure(phi, ToricLocusObject("complement", complement), provider).value
    rhs = extend_measure(phi, x_obj, provider).value
    return verdict(lhs == rhs, lhs, rhs)


def independence_check(phi: MeasureOnCompacts, obj: ToricObject,
                       comp_a: CompactificationChoice,
                       comp_b: CompactificationChoice,
                       provider: Optional[CompletionProvider] = None) -> CheckResult:
    """Phi_c through two compactifications; inequality is evidence of a
    descent violation (well-definedness fails exactly then)."""
    va = extend_measure(phi, obj, provider, choice=comp_a).value
    vb = extend_measure(phi, obj, provider, choice=comp_b).value
    return verdict(va == vb, va, vb, "" if va == vb else
                   "descent violation: the measure does not satisfy abstract-blowup descent")


def consistency_check(kind: str, phi: MeasureOnCompacts, args,
                      provider: Optional[CompletionProvider] = None) -> CheckResult:
    """Descent identities at measure level.

    blowup_descent:  Phi_c(X) + Phi_c(E) = Phi_c(C) + Phi_c(Y) on a square;
    mayer_vietoris:  Phi_c(U n V) + Phi_c(X) = Phi_c(U) + Phi_c(V), X = U u V;
    kunneth:         Phi_c(X x Y) = Phi_c(X) Phi_c(Y), phi multiplicative; a
                     product that is not complete is extended through the
                     product of the factors' completions.
    """
    provider = provider or CompletionProvider()
    if kind == "blowup_descent":
        sq: DistinguishedSquare = args
        lhs = extend_measure(phi, sq.base, provider).value \
            + extend_measure(phi, sq.E, provider).value
        rhs = extend_measure(phi, sq.C, provider).value \
            + extend_measure(phi, sq.Y, provider).value
        return verdict(lhs == rhs, lhs, rhs, "" if lhs == rhs else "descent violation")
    if kind == "mayer_vietoris":
        x_obj, win_u, win_v = args
        win_u, win_v = frozenset(win_u), frozenset(win_v)
        if win_u | win_v != frozenset(x_obj.fan.cones):
            raise CSupportError("U and V do not cover X")
        vu, vv, vunv = (extend_measure(phi, ToricObject(tag, x_obj.fan.subfan(win)),
                                       provider).value
                        for tag, win in (("U", win_u), ("V", win_v), ("UnV", win_u & win_v)))
        lhs = vunv + extend_measure(phi, x_obj, provider).value
        return verdict(lhs == vu + vv, lhs, vu + vv)
    if kind == "kunneth":
        if not phi.multiplicative:
            raise MeasureDomainError("kunneth needs a multiplicative measure")
        a_obj, b_obj = args
        product_fan = a_obj.fan.product(b_obj.fan)
        prod_obj = ToricObject(f"{a_obj.name}x{b_obj.name}", product_fan)
        choice = None
        if not product_fan.is_complete():
            comp_a = provider.completion_fan(a_obj.fan)
            comp_b = provider.completion_fan(b_obj.fan)
            choice = toric_choice(prod_obj, comp_a.product(comp_b))
        lhs = extend_measure(phi, prod_obj, provider, choice).value
        rhs = extend_measure(phi, a_obj, provider).value \
            * extend_measure(phi, b_obj, provider).value
        return verdict(lhs == rhs, lhs, rhs)
    raise CSupportError(f"unknown consistency check {kind!r}")
