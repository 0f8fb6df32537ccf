"""Independent checks of kvar's outputs, computed without kvar's algebra.

* ``orbit_sum``: the class of a union of torus orbits from its cone list,
  sum over cones of (L - 1)^(n - dim), with the cone dimension taken as the
  rank of its ray matrix by exact elimination.
* ``LPolyEvaluator``: evaluates the expression grammar over the builtins and
  the closed forms of the generated relation files.
* ``parse_kclass``: reads kvar's printed form of a pure L-polynomial.

Polynomials in L are tuples of integer coefficients, lowest degree first,
with no trailing zeros.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import Dict, Iterable, List, Sequence, Tuple

LPoly = Tuple[int, ...]


class OracleError(Exception):
    pass


# ---------------------------------------------------------------------------
# polynomial arithmetic

def trim(coeffs: Iterable[int]) -> LPoly:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def add(a: LPoly, b: LPoly, sign: int = 1) -> LPoly:
    n = max(len(a), len(b))
    return trim((a[i] if i < len(a) else 0) + sign * (b[i] if i < len(b) else 0)
                for i in range(n))


def mul(a: LPoly, b: LPoly) -> LPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def scale(a: LPoly, k: int) -> LPoly:
    return trim(k * x for x in a)


def at(a: LPoly, value: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * value + c
    return acc


def const(n: int) -> LPoly:
    return trim([n])


def lpow(n: int) -> LPoly:
    return trim([0] * n + [1])


def projective(n: int) -> LPoly:
    return trim([1] * (n + 1))


# ---------------------------------------------------------------------------
# orbit sums over cone lists

_cone_dims: Dict[tuple, int] = {}


def ray_rank(rays: Sequence[Sequence[int]]) -> int:
    key = tuple(tuple(r) for r in rays)
    cached = _cone_dims.get(key)
    if cached is not None:
        return cached
    rows = [[Fraction(x) for x in r] for r in rays]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    _cone_dims[key] = rank
    return rank


def _gm_power(k: int) -> LPoly:
    # (L - 1)^k by the binomial theorem
    return trim(comb(k, i) * (-1) ** (k - i) for i in range(k + 1))


def orbit_sum(rank: int, cones: Iterable) -> LPoly:
    """Class of the union of the orbits of ``cones`` in a rank-``rank`` fan."""
    counts: Dict[int, int] = {}
    for c in cones:
        d = ray_rank(c.rays)
        counts[d] = counts.get(d, 0) + 1
    total: LPoly = ()
    for d, k in counts.items():
        total = add(total, scale(_gm_power(rank - d), k))
    return total


def measure_json(p: LPoly, selector: str):
    """The JSON form kvar prints for a measure value of the class ``p``."""
    if selector == "euler":
        return at(p, 1)
    if selector == "e_poly":
        coeffs, var = list(p), "uv"
    elif selector == "virtual_poincare":
        coeffs = [0] * (2 * len(p))
        for i, c in enumerate(p):
            coeffs[2 * i] = c
        coeffs, var = list(trim(coeffs)), "t"
    elif selector.startswith("point_count:"):
        return at(p, int(selector.split(":")[1]))
    else:
        raise OracleError(f"unknown selector {selector!r}")
    if len(coeffs) <= 1:
        return coeffs[0] if coeffs else 0
    return {"var": var, "coeffs": coeffs}


def weights_json(p: LPoly) -> List[List[int]]:
    """The weight table kvar prints for the E-polynomial of class ``p``."""
    return [[2 * k, c] for k, c in enumerate(p) if c]


# ---------------------------------------------------------------------------
# kvar's printed KClass, for pure L-polynomials

_TERM = re.compile(r"^(?:(\d+)\*)?(?:L(?:\^(\d+))?)?$")


def parse_kclass(text: str) -> LPoly:
    if text == "0":
        return ()
    coeffs: Dict[int, int] = {}
    sign = 1
    for tok in text.split(" "):
        if tok == "+":
            sign = 1
            continue
        if tok == "-":
            sign = -1
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        if tok.isdigit():
            exp, c = 0, int(tok)
        else:
            m = _TERM.match(tok)
            if m is None or not tok:
                raise OracleError(f"not a pure L-polynomial: {text!r}")
            c = int(m.group(1)) if m.group(1) else 1
            exp = int(m.group(2)) if m.group(2) else 1
        coeffs[exp] = coeffs.get(exp, 0) + sign * c
        sign = 1
    top = max(coeffs) if coeffs else -1
    return trim(coeffs.get(i, 0) for i in range(top + 1))


# ---------------------------------------------------------------------------
# the expression grammar over builtins and closed forms

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([+\-*();]))")
_SERIES = re.compile(r"^([AP])(\d+)$")


def builtin_value(name: str):
    if name == "pt":
        return (1,)
    if name == "empty":
        return ()
    if name == "Gm":
        return (-1, 1)
    if name == "L":
        return (0, 1)
    m = _SERIES.match(name)
    if m:
        n = int(m.group(2))
        return lpow(n) if m.group(1) == "A" else projective(n)
    return None


def _dim(name: str, dims: Dict[str, int]) -> int:
    if name in dims:
        return dims[name]
    m = _SERIES.match(name)
    if m:
        return int(m.group(2))
    raise OracleError(f"no dimension known for {name!r}")


class LPolyEvaluator:
    """Values of the generated generators from their closed forms.

    ``gens`` maps a generator to (recipe, dim) as ``inputs.relation_file``
    writes them: ``tower:<base>:<k>`` is k point blowups of a builtin base,
    and ``open:<U>:<complement>`` is [U] + [complement].
    """

    def __init__(self, gens: Dict[str, Tuple[str, int]] = None):
        self.gens = dict(gens or {})
        self.dims = {g: d for g, (_, d) in self.gens.items()}
        self.values: Dict[str, LPoly] = {}

    def value(self, name: str) -> LPoly:
        b = builtin_value(name)
        if b is not None:
            return b
        if name in self.values:
            return self.values[name]
        if name not in self.gens:
            raise OracleError(f"unknown generator {name!r}")
        recipe, n = self.gens[name]
        kind, a, b_ = recipe.split(":")
        if kind == "tower":
            # k point blowups of an n-fold: each adds [P^(n-1)] - [pt]
            v = add(builtin_value(a), scale(add(projective(n - 1), (1,), -1), int(b_)))
        else:
            v = add(self.value(a), self.value(b_))
        self.values[name] = v
        return v

    def blowup(self, x: str) -> LPoly:
        n = _dim(x, self.dims)
        return add(add(self.value(x), projective(n - 1)), (1,), -1)

    def exceptional(self, x: str) -> LPoly:
        return projective(_dim(x, self.dims) - 1)

    def evaluate(self, text: str) -> LPoly:
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise OracleError(f"bad character at {pos} in expression")
                break
            tokens.append(m.group(1) or m.group(2) or m.group(3))
            pos = m.end()
        self._tokens, self._i = tokens, 0
        value = self._expr()
        if self._i != len(tokens):
            raise OracleError("trailing input")
        return value

    def _peek(self):
        return self._tokens[self._i] if self._i < len(self._tokens) else None

    def _take(self, expected=None):
        tok = self._peek()
        if tok is None or (expected is not None and tok != expected):
            raise OracleError(f"expected {expected!r}, got {tok!r}")
        self._i += 1
        return tok

    def _expr(self) -> LPoly:
        total = self._term()
        while self._peek() in ("+", "-"):
            sign = 1 if self._take() == "+" else -1
            total = add(total, self._term(), sign)
        return total

    def _term(self) -> LPoly:
        value = self._factor()
        while self._peek() == "*":
            self._take()
            value = mul(value, self._factor())
        return value

    def _factor(self) -> LPoly:
        tok = self._take()
        if tok.isdigit():
            return const(int(tok))
        if tok == "(":
            value = self._expr()
            self._take(")")
            return value
        if tok in ("Bl", "E") and self._peek() == "(":
            self._take("(")
            x = self._take()
            self._take(";")
            c = self._take()
            self._take(")")
            if c != "pt":
                raise OracleError(f"only point blowups are known, got {c!r}")
            return self.blowup(x) if tok == "Bl" else self.exceptional(x)
        return self.value(tok)
