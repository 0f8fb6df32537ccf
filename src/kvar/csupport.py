"""Compactly supported extension of measures defined on compact varieties.

Given a ring-valued measure on compact objects, the extension is
Phi_c(U) = Phi(Xbar) - Phi_c(Xbar \\ U) for a compactification Xbar of U.
Applied down to compact pieces, with other loci split orbit by orbit into
tori, each the dense open of (P1)^k, it is a fixed integer combination of
compact objects that does not depend on the measure (``compact_terms``),
and Phi_c is Phi summed over it (Bittner, Compositio Math. 140, 2004,
gives the blowup presentation of K0(Var) behind it).  The value is
well defined exactly when the input measure satisfies descent for abstract
blowup squares; the checks in this module verify the resulting identities
(additivity, independence of the compactification, blowup descent,
Mayer-Vietoris, Kunneth) and report violations as evidence rather than
engine errors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

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
    """U sits as a dense open inside the complete fan ``completion`` with
    the given boundary."""
    completion: Fan
    boundary: ToricLocus


def toric_choice(obj: ToricObject, completion: Optional[Fan] = None) -> CompactificationChoice:
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
    return CompactificationChoice(completion,
                                  ToricLocus(completion, _boundary(obj.fan, completion)))


@toric.kept
def _boundary(fan: Fan, completion: Fan) -> frozenset:
    """The cones of the completion outside the fan, kept on the fan."""
    return frozenset(c for c in completion.cones if not fan.contains_cone(c))


# ---------------------------------------------------------------------------
# the extension

@dataclass(frozen=True, slots=True)
class ExtensionResult:
    """Phi_c of an object, with the combination of compact geometries
    (``compact_terms``) it sums: no name, so one geometry under two names
    extends to equal results."""
    value: MeasureValue
    terms: Tuple[Tuple[int, object], ...]


def compact_terms(obj: SiteObject, choice: Optional[CompactificationChoice] = None
                  ) -> Tuple[Tuple[int, object], ...]:
    """Phi_c(obj) as (c, K) pairs, Phi_c(obj) = sum of c * Phi(K) for every
    measure Phi: each K a compact fan or locus, with no name.

    A compact object is its own term.  An open is +Xbar, less its boundary
    in Xbar: the object's automatic completion (``toric_choice``), or
    ``choice`` when one is given (by the independence check, and for a fan
    that has no automatic completion).  A completion's boundary is
    upward-closed in a complete fan, hence compact (Fulton, Introduction to
    Toric Varieties, 2.4 and 3.1).  Any other locus splits orbit by orbit
    into tori, a torus of dimension k > 0 being the dense open of (P1)^k,
    and the terms of each torus dimension count its orbits.  So there are
    at most 2 * dim + 1 terms, and they depend on the geometry and the
    choice alone.
    """
    if obj.is_empty():
        return ()
    if obj.is_compact():
        return ((1, obj.geometry),)
    if isinstance(obj, ToricObject):
        choice = choice or toric_choice(obj)
        return ((1, choice.completion), (-1, choice.boundary))
    if not isinstance(obj, ToricLocusObject):
        raise CSupportError(f"cannot extend over {obj!r}")
    fan = obj.locus.fan
    orbits = Counter(fan.rank - c.dim for c in obj.locus.cones)
    return tuple((n * c, k) for dim, n in sorted(orbits.items(), reverse=True)
                 for c, k in _torus_terms(fan, dim))


@toric.kept
def _torus_terms(fan: Fan, dim: int) -> Tuple[Tuple[int, object], ...]:
    """The terms of the torus of dimension ``dim``, kept on ``fan``, the
    ambient fan of a locus with orbits of that dimension, so that the torus
    is completed once while the fan lives.  They hold the torus's
    completion and boundary, and neither the torus nor ``fan``."""
    return compact_terms(ToricObject("torus", Fan(dim, [Cone(dim, ())])))


def extend_measure(phi: MeasureOnCompacts, obj: SiteObject,
                   choice: Optional[CompactificationChoice] = None) -> ExtensionResult:
    """Phi_c of any object: the sum of c * Phi(K) over its ``compact_terms``.

    Nothing is memoized here, so the value is a function of the measure,
    the object and the choice, and of nothing extended before.
    """
    terms = compact_terms(obj, choice)
    value = None
    for c, k in terms:
        term = phi.on_compact(ToricObject("K", k) if isinstance(k, Fan)
                              else ToricLocusObject("K", k))
        if c != 1:
            term = -term if c == -1 else term * MeasureValue.integer(c)
        value = term if value is None else value + term
    return ExtensionResult(MeasureValue.integer(0) if value is None else value, terms)


def oracle_value(phi: MeasureOnCompacts, obj: SiteObject) -> MeasureValue:
    """Independent route: substitute the measure into the canonical class
    from the orbit decomposition."""
    return apply_measure(phi.spec, obj.kclass())


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
