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

import functools
from collections import Counter
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
    class, and its sum over each combination of compact objects
    (``sum_over``); a failure is never memoized.
    """

    multiplicative = True

    def __init__(self, spec: MeasureSpec):
        self.spec = spec
        self.name = spec.name
        self._values: Dict[KClass, MeasureValue] = {}
        self._sums: Dict[tuple, MeasureValue] = {}

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

    def sum_over(self, terms: Tuple[Tuple[int, object], ...]) -> MeasureValue:
        """The sum of c * Phi(K) over (c, K) pairs of ``compact_terms``,
        kept per combination, so a repeated extension is one lookup."""
        value = self._sums.get(terms)
        if value is None:
            value = self._sums[terms] = self._sum(terms)
        return value

    def _sum(self, terms: Tuple[Tuple[int, object], ...]) -> MeasureValue:
        value = None
        for c, k in terms:
            term = self.on_compact(ToricObject("K", k) if isinstance(k, Fan)
                                   else ToricLocusObject("K", k))
            if c != 1:
                term = -term if c == -1 else term * MeasureValue.integer(c)
            value = term if value is None else value + term
        return MeasureValue.integer(0) if value is None else value


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
# the extension

def compact_terms(obj: SiteObject, completion: Optional[Fan] = None
                  ) -> Tuple[Tuple[int, object], ...]:
    """Phi_c(obj) as (c, K) pairs, Phi_c(obj) = sum of c * Phi(K) for every
    measure Phi: each K a compact fan or locus, with no name.

    A compact object is its own term.  An open is +Xbar, less its boundary
    Xbar \\ U: Xbar is the open's automatic completion
    (``toric.complete_surface``), or ``completion`` when one is given (by
    the independence check, and for a fan that has no automatic
    completion), which must be complete and contain the fan.  An open's
    terms are kept on its fan, keyed by the completion, which fixes the
    boundary: the completion's cones outside the fan.  A completion's
    boundary is upward-closed in a complete fan, hence compact (Fulton,
    Introduction to Toric Varieties, 2.4 and 3.1).  Any other locus splits
    orbit by orbit into tori, a torus of dimension k > 0 being the dense
    open of (P1)^k, and the terms of each torus dimension count its orbits.
    So there are at most 2 * dim + 1 terms, and they depend on the
    geometry and the completion alone.
    """
    if obj.is_empty():
        return ()
    if obj.is_compact():
        return ((1, obj.geometry),)
    if isinstance(obj, ToricObject):
        return _open_terms(obj.fan, completion)
    if not isinstance(obj, ToricLocusObject):
        raise CSupportError(f"cannot extend over {obj!r}")
    fan = obj.locus.fan
    orbits = Counter(fan.rank - c.dim for c in obj.locus.cones)
    return tuple((n * c, k) for dim, n in sorted(orbits.items(), reverse=True)
                 for c, k in _torus_terms(dim))


@toric.kept
def _open_terms(fan: Fan, completion: Optional[Fan]) -> Tuple[Tuple[int, object], ...]:
    """The terms of the open on ``fan`` inside ``completion``, by default
    its automatic one, which holds the fan by construction
    (``compact_terms``)."""
    if completion is None:
        completion = toric.complete_surface(fan)
    elif not completion.is_complete():
        raise MissingCompactificationError("completion fan is not complete")
    elif not all(completion.contains_cone(c) for c in fan.cones):
        raise MissingCompactificationError("completion does not contain the fan")
    return ((1, completion), (-1, ToricLocus(completion, completion.cones - fan.cones)))


@functools.lru_cache(maxsize=None)
def _torus_terms(dim: int) -> Tuple[Tuple[int, object], ...]:
    """The terms of the torus of dimension ``dim``, computed once per
    process: they depend on ``dim`` alone, and there are at most
    ``toric.MAX_TORUS_COMPLETION_RANK`` + 1 tori to complete.  Kept on no
    fan, they make no reference cycle with a locus's fan."""
    return compact_terms(ToricObject("torus", Fan(dim, [Cone(dim, ())])))


def extend_measure(phi: MeasureOnCompacts, obj: SiteObject,
                   completion: Optional[Fan] = None) -> MeasureValue:
    """Phi_c of any object: the sum of c * Phi(K) over its ``compact_terms``
    (``MeasureOnCompacts.sum_over``).  The terms are a function of the
    object's geometry and the completion, and the sum of the measure and
    the terms, so each is kept under exactly what it is a function of.
    """
    return phi.sum_over(compact_terms(obj, completion))


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
    lhs = extend_measure(phi, u_obj) \
        + extend_measure(phi, ToricLocusObject("complement", complement))
    rhs = extend_measure(phi, x_obj)
    return verdict(lhs == rhs, lhs, rhs)


def independence_check(phi: MeasureOnCompacts, obj: ToricObject,
                       comp_a: Fan, comp_b: Fan) -> CheckResult:
    """Phi_c through two completion fans; inequality is evidence of a
    descent violation (well-definedness fails exactly then)."""
    va = extend_measure(phi, obj, comp_a)
    vb = extend_measure(phi, obj, comp_b)
    return verdict(va == vb, va, vb, "" if va == vb else
                   "descent violation: the measure does not satisfy abstract-blowup descent")


def consistency_check(kind: str, phi: MeasureOnCompacts, args) -> CheckResult:
    """Descent identities at measure level.

    blowup_descent:  Phi_c(X) + Phi_c(E) = Phi_c(C) + Phi_c(Y) on a square;
    mayer_vietoris:  Phi_c(U n V) + Phi_c(X) = Phi_c(U) + Phi_c(V), X = U u V;
    kunneth:         Phi_c(X x Y) = Phi_c(X) Phi_c(Y), phi multiplicative; a
                     product that is not complete is extended with the
                     product of the factors' completions as its completion.
    """
    if kind == "blowup_descent":
        sq: DistinguishedSquare = args
        lhs = extend_measure(phi, sq.base) + extend_measure(phi, sq.E)
        rhs = extend_measure(phi, sq.C) + extend_measure(phi, sq.Y)
        return verdict(lhs == rhs, lhs, rhs, "" if lhs == rhs else "descent violation")
    if kind == "mayer_vietoris":
        x_obj, win_u, win_v = args
        win_u, win_v = frozenset(win_u), frozenset(win_v)
        if win_u | win_v != frozenset(x_obj.fan.cones):
            raise CSupportError("U and V do not cover X")
        vu, vv, vunv = (extend_measure(phi, ToricObject(tag, x_obj.fan.subfan(win)))
                        for tag, win in (("U", win_u), ("V", win_v), ("UnV", win_u & win_v)))
        lhs = vunv + extend_measure(phi, x_obj)
        return verdict(lhs == vu + vv, lhs, vu + vv)
    if kind == "kunneth":
        if not phi.multiplicative:
            raise MeasureDomainError("kunneth needs a multiplicative measure")
        a_obj, b_obj = args
        product_fan = a_obj.fan.product(b_obj.fan)
        prod_obj = ToricObject(f"{a_obj.name}x{b_obj.name}", product_fan)
        completion = None if product_fan.is_complete() else \
            toric.complete_surface(a_obj.fan).product(toric.complete_surface(b_obj.fan))
        lhs = extend_measure(phi, prod_obj, completion)
        rhs = extend_measure(phi, a_obj) * extend_measure(phi, b_obj)
        return verdict(lhs == rhs, lhs, rhs)
    raise CSupportError(f"unknown consistency check {kind!r}")
