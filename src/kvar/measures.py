"""Builtin motivic measures and weight-graded reporting.

A measure is a ring substitution applied to a canonical KClass: the
Lefschetz class goes to 1 (Euler characteristic with compact support),
uv (E-polynomial of balanced Tate type), t^2 (virtual Poincare), or an
integer q (point count over F_q).  Values are exact integers or exact
integer polynomials in a single variable.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, NamedTuple, Optional, Tuple

from kvar.kring import Frozen, KClass, KringError, signed_sum_text


class MeasureError(KringError):
    pass


class UnresolvedGeneratorError(MeasureError):
    pass


class MeasureValue:
    """Exact integer, or exact integer polynomial in one variable.

    Stored densely (ascending coefficients, no trailing zeros); ``var`` is
    None for plain integers and one of 'uv', 't', 'q' otherwise.  Mixing two
    distinct variables is an error; integers combine with anything.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, coeffs, var: Optional[str] = None):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) <= 1:
            var = None  # constants carry no variable
        self.coeffs: Tuple[int, ...] = tuple(coeffs)
        self.var = var

    @staticmethod
    def integer(n: int) -> "MeasureValue":
        return MeasureValue([n])

    @staticmethod
    def variable(var: str) -> "MeasureValue":
        return MeasureValue([0, 1], var)

    def is_integer(self) -> bool:
        return self.var is None

    def as_int(self) -> int:
        if not self.is_integer():
            raise MeasureError(f"{self} is not an integer")
        return self.coeffs[0] if self.coeffs else 0

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "MeasureValue") -> "MeasureValue":
        var = _join(self.var, other.var)
        return MeasureValue(
            [a + b for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)],
            var)

    def __neg__(self) -> "MeasureValue":
        return MeasureValue([-c for c in self.coeffs], self.var)

    def __sub__(self, other: "MeasureValue") -> "MeasureValue":
        return self + (-other)

    def __mul__(self, other: "MeasureValue") -> "MeasureValue":
        var = _join(self.var, other.var)
        if not self.coeffs or not other.coeffs:
            return MeasureValue([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return MeasureValue(out, var)

    def __pow__(self, n: int) -> "MeasureValue":
        if n < 0:
            raise MeasureError("negative power")
        result = MeasureValue.integer(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # square only while bits remain
                base = base * base
        return result

    def substitute_int(self, value: int) -> int:
        """Evaluate the polynomial at an integer."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __eq__(self, other) -> bool:
        return (isinstance(other, MeasureValue)
                and self.coeffs == other.coeffs and self.var == other.var)

    def __hash__(self) -> int:
        return hash((self.var, self.coeffs))

    def __repr__(self) -> str:
        return f"MeasureValue({self})"

    def __str__(self) -> str:
        name = "(uv)" if self.var == "uv" else self.var
        coeffs = self.coeffs if self.var else self.coeffs[:1]  # a constant
        return signed_sum_text((c, "" if k == 0 else name if k == 1 else f"{name}^{k}")
                               for k, c in enumerate(coeffs) if c)

    def to_json(self):
        if self.var is None:
            return self.as_int()
        return {"var": self.var, "coeffs": list(self.coeffs)}


def _join(var: Optional[str], other: Optional[str]) -> Optional[str]:
    if var is None:
        return other
    if other is None or other == var:
        return var
    raise MeasureError(f"mixed variables {var!r} and {other!r}")


SELECTORS = ("euler", "e_poly", "virtual_poincare", "point_count")


class MeasureSpec(Frozen):
    """Choice of measure: a substitution rule for the Lefschetz class."""
    __slots__ = ("selector", "q")

    def __init__(self, selector: str, q: Optional[int] = None):
        if selector not in SELECTORS:
            raise MeasureError(f"unknown measure selector {selector!r}")
        if selector == "point_count":
            if not isinstance(q, int) or q < 2:
                raise MeasureError("point_count needs an integer q >= 2")
        elif q is not None:
            raise MeasureError(f"{selector} takes no q")
        object.__setattr__(self, "selector", selector)
        object.__setattr__(self, "q", q)

    def lefschetz_image(self) -> MeasureValue:
        if self.selector == "euler":
            return MeasureValue.integer(1)
        if self.selector == "e_poly":
            return MeasureValue.variable("uv")
        if self.selector == "virtual_poincare":
            return MeasureValue([0, 0, 1], "t")
        return MeasureValue.integer(self.q)

    @property
    def name(self) -> str:
        if self.selector == "point_count":
            return f"point_count({self.q})"
        return self.selector

    @staticmethod
    def parse(text: str) -> "MeasureSpec":
        """Parse CLI-style selectors: euler | chi | e | e_poly | poincare |
        virtual_poincare | count:<q>."""
        if text in ("euler", "chi"):
            return MeasureSpec("euler")
        if text in ("e", "e_poly"):
            return MeasureSpec("e_poly")
        if text in ("poincare", "virtual_poincare"):
            return MeasureSpec("virtual_poincare")
        if text.startswith("count:"):
            try:
                q = int(text.split(":", 1)[1])
            except ValueError:
                raise MeasureError(f"{text!r} needs an integer q") from None
            return MeasureSpec("point_count", q=q)
        raise MeasureError(f"unknown measure {text!r}")


def apply_measure(spec: MeasureSpec, cls: KClass) -> MeasureValue:
    """Substitute the measure into a canonical class.

    A residual generator has no value under a builtin measure, so a class
    with one raises ``UnresolvedGeneratorError`` naming its first.  Every
    builtin image of L is a monomial c x^k, so coeff L^e goes to coeff c^e
    at degree k e, with no power of the image.
    """
    residual = cls.residual()
    if residual:
        _, names, _ = residual[0]
        raise UnresolvedGeneratorError(
            f"no {spec.name} value registered for generator {names[0]!r}")
    lval = spec.lefschetz_image()
    k = lval.degree()
    c = lval.coefficient(k)
    sums: dict = {}
    # the view is sorted by exponent: one running power of c
    power, at = 1, 0
    for exp, coeff in cls.lpolynomial():
        power, at = power * c ** (exp - at), exp
        sums[k * exp] = sums.get(k * exp, 0) + coeff * power
    var = lval.var if max(sums, default=0) else None  # past degree 0 only
    return MeasureValue([sums.get(d, 0) for d in range(max(sums, default=-1) + 1)], var)


# ---------------------------------------------------------------------------
# weight tables

def h_vector(face_counts: Mapping[int, int], rank: int) -> Tuple[int, ...]:
    """h-vector of a complete simplicial fan from its face counts.

    ``face_counts[j]`` is the number of cones of dimension j.  Defined by
    sum_j f_j (t-1)^(rank-j) = sum_k h_k t^k, expanded with binomials.
    """
    h = [0] * (rank + 1)
    for j, fj in face_counts.items():
        m = rank - j
        for k in range(m + 1):
            h[k] += fj * math.comb(m, k) * (-1) ** (m - k)
    return tuple(h)


class WeightReport(NamedTuple):
    weights: Tuple[Tuple[int, int], ...]  # (weight 2k, coefficient of (uv)^k)
    purity: Optional[bool]                # None when no verdict applies
    mixed: bool
    note: str = ""


def weight_report(value: MeasureValue, smooth: bool, compact: bool,
                  face_counts: Optional[Mapping[int, int]] = None,
                  rank: Optional[int] = None) -> WeightReport:
    """Weight table of an E-polynomial, with a purity verdict for smooth
    compact objects (coefficients must match the h-vector from face counts)."""
    if value.var not in (None, "uv"):
        raise MeasureError("weight tables need an e_poly value")
    weights = tuple(
        (2 * k, c) for k, c in enumerate(value.coeffs) if c
    )
    mixed = any(c < 0 for c in value.coeffs)
    if not (smooth and compact):
        return WeightReport(weights, None, mixed, "no purity verdict: not smooth and compact")
    if face_counts is None or rank is None:
        return WeightReport(weights, None, mixed, "no face counts supplied")
    hv = h_vector(face_counts, rank)
    coeffs = tuple(value.coefficient(k) for k in range(rank + 1))
    pure = coeffs == hv and value.degree() <= rank and all(c >= 0 for c in coeffs)
    note = "" if pure else f"coefficients {coeffs} differ from h-vector {hv}"
    return WeightReport(weights, pure, mixed, note)
