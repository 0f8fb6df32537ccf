"""Symbolic classes of varieties and their canonical forms.

The ring is presented by named generators (varieties) subject to
cut-and-paste relations.  Three relation kinds are supported:

* ``open``            -- [X] = [U] + [X \\ U] for U open in X,
* ``abstract_blowup`` -- [E] + [X] = [C] + [Y] for an abstract blowup square,
* ``smooth_blowup``   -- the same shape with Y the blowup of X along C.

Every expression normalizes to a canonical :class:`KClass`: an integer
polynomial in the Lefschetz class L (the class of the affine line) plus a
sorted list of residual terms for generators that no relation eliminates.
Relations are oriented so that the eliminated generator is strictly largest
in a fixed well-founded order (dimension, role priority, name), which
makes the rewrite system terminating; a step budget and a confluence check
turn malformed relation sets into clean errors.
"""

from __future__ import annotations

import functools
import json
import operator
import re
import sys
from typing import Mapping, NamedTuple, Optional, Union


class KringError(Exception):
    """Base class for errors raised by this module."""


class ParseError(KringError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownGeneratorError(KringError):
    pass


class RelationLookupError(KringError):
    pass


class InvalidRelationError(KringError):
    pass


class InconsistentRelationsError(KringError):
    pass


class CyclicRelationError(KringError):
    pass


class RewriteBudgetError(KringError):
    pass


class MissingCompactificationError(KringError):
    pass


class BoundaryDimensionError(KringError):
    pass


# ---------------------------------------------------------------------------
# canonical ring elements

Monomial = tuple  # (l_exponent, sorted tuple of non-L generator names)


class KClass:
    """Canonical element of the ring: L-polynomial plus residual terms.

    Internally a map from monomials ``(l_exp, names)`` to nonzero integer
    coefficients, where ``names`` is a sorted tuple of irreducible generator
    names.  Pure powers of L have ``names == ()``.  The public canonical
    form is a pair of sorted tuples, so equal classes are bit-identical.
    """

    __slots__ = ("_terms", "_canon")

    def __init__(self, terms: Optional[Mapping[Monomial, int]] = None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    clean[mono] = coeff
        self._terms = clean
        self._canon = tuple(sorted(clean.items(), key=lambda kv: (kv[0][1], kv[0][0])))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "KClass":
        return KClass()

    @staticmethod
    def from_int(n: int) -> "KClass":
        return KClass({(0, ()): n})

    @staticmethod
    def lefschetz(exp: int = 1) -> "KClass":
        return KClass({(exp, ()): 1})

    @staticmethod
    def generator(name: str) -> "KClass":
        return KClass({(0, (name,)): 1})

    # -- views ---------------------------------------------------------------

    def lpolynomial(self) -> tuple:
        """The pure-L part as a sorted tuple of (exponent, coefficient)."""
        return tuple(
            sorted((m[0], c) for m, c in self._terms.items() if not m[1])
        )

    def residual(self) -> tuple:
        """Residual terms as a sorted tuple of (l_exp, names, coefficient)."""
        return tuple(
            sorted((m[0], m[1], c) for m, c in self._terms.items() if m[1])
        )

    def is_zero(self) -> bool:
        return not self._terms

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "KClass") -> "KClass":
        terms = dict(self._terms)
        _add_terms(terms, other._terms, 1)
        return KClass(terms)

    def __neg__(self) -> "KClass":
        return KClass({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "KClass") -> "KClass":
        return self + (-other)

    def __mul__(self, other: "KClass") -> "KClass":
        terms: dict = {}
        _add_product(terms, self._terms, other._terms, 1)
        return KClass(terms)

    def __pow__(self, n: int) -> "KClass":
        if n < 0:
            raise ValueError("negative power of a KClass")
        result = KClass.from_int(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, n: int) -> "KClass":
        return KClass({m: n * c for m, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, KClass) and self._canon == other._canon

    def __hash__(self) -> int:
        return hash(self._canon)

    def __repr__(self) -> str:
        return f"KClass({self})"

    def __str__(self) -> str:
        terms = []
        for (exp, names), coeff in self._canon:
            power = ["L"] if exp == 1 else [f"L^{exp}"] if exp > 1 else []
            terms.append((coeff, "*".join(power + list(names))))
        return signed_sum_text(terms)


def signed_sum_text(terms) -> str:
    """Render (coefficient, monomial) pairs as "2*x - y + 3", in order: a
    unit coefficient is left out before a monomial, "" is the monomial 1,
    and no terms read "0"."""
    out = []
    for coeff, mono in terms:
        size = abs(coeff)
        body = str(size) if not mono else mono if size == 1 else f"{size}*{mono}"
        if out:
            out.append(f"- {body}" if coeff < 0 else f"+ {body}")
        else:
            out.append(f"-{body}" if coeff < 0 else body)
    return " ".join(out) or "0"


def _add_terms(acc: dict, terms: Mapping[Monomial, int], coeff: int) -> None:
    """acc += coeff * terms, on monomial -> coefficient dicts."""
    for mono, c in terms.items():
        acc[mono] = acc.get(mono, 0) + coeff * c


def _add_product(acc: dict, left: Mapping[Monomial, int],
                 right: Mapping[Monomial, int], coeff: int) -> None:
    """acc += coeff * left * right, on monomial -> coefficient dicts; the
    names of two monomials are sorted only when both have some."""
    for (e1, n1), c1 in left.items():
        for (e2, n2), c2 in right.items():
            mono = (e1 + e2, tuple(sorted(n1 + n2)) if n1 and n2 else n1 or n2)
            acc[mono] = acc.get(mono, 0) + coeff * c1 * c2


L = KClass.lefschetz()
ONE = KClass.from_int(1)


# ---------------------------------------------------------------------------
# plain classes

class Fields:
    """A class whose ``__slots__`` are its fields, set by its ``__init__``.
    An instance equals one of its own class with equal fields and prints as
    ``Name(field=value, ...)``; being mutable, it is unhashable."""
    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, name) for name in self.__slots__]
                == [getattr(other, name) for name in self.__slots__])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Frozen(Fields):
    """Fields that ``__init__`` sets with ``object.__setattr__``, in the
    order of its parameters, and that cannot be assigned after; hashed by
    their values, and copied and pickled through ``__init__``."""
    __slots__ = ()

    def __hash__(self):
        return hash(self.__reduce__()[1])

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# expression trees

class Expr(Frozen):
    __slots__ = ()


class Lit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int):
        object.__setattr__(self, "value", value)


class Gen(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Sum(Expr):
    """A sum of two or more operands with ``signs`` +1 or -1 for each of
    ``args``, the first +1: the grammar has no unary minus."""
    __slots__ = ("args", "signs")

    def __init__(self, args: tuple, signs: tuple):
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "signs", signs)


class Prod(Expr):
    """A product of the two or more operands in ``args``."""
    __slots__ = ("args",)

    def __init__(self, args: tuple):
        object.__setattr__(self, "args", args)


class SquareTerm(Expr):
    """``head(x;c)`` of a declared blowup relation: its total space for the
    head ``Bl``, its exceptional divisor for ``E``."""
    __slots__ = ("head", "x", "c", "relation_index")

    def __init__(self, head: str, x: str, c: str, relation_index: int):
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "relation_index", relation_index)


# each square head -> the slot of its relation it stands for
_SQUARE_HEADS = {"Bl": "Y", "E": "E"}


def _fold(expr: Expr, leaf, branch):
    """Post-order fold without recursion, operands left to right.

    ``leaf(node)`` values every node that is not a Sum or Prod;
    ``branch(node, values)`` values those two from the list of the values
    of their ``args``.
    """
    stack, values = [expr], []
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # (branch node,) once all its operands are valued
            start = len(values) - len(node[0].args)
            values[start:] = [branch(node[0], values[start:])]
        elif isinstance(node, (Sum, Prod)):
            stack.append((node,))
            stack += node.args[::-1]
        else:
            values.append(leaf(node))
    return values[0]


def expr_size(expr: Expr) -> int:
    """The number of nodes of a tree."""
    return _fold(expr, lambda node: 1, lambda node, values: sum(values) + 1)


_LEAF_TEXT = {
    Lit: lambda node: str(node.value),
    Gen: lambda node: node.name,
    SquareTerm: lambda node: f"{node.head}({node.x};{node.c})",
}


def expr_to_text(expr: Expr) -> str:
    """Render a tree back into the surface grammar.

    A sum is parenthesized when it is a factor of a product or follows a
    minus sign.  The stack holds, in reverse output order, text and the
    nodes still to render.  Each operand goes on it below the separator
    before it, and the first operand's separator is dropped.
    """
    out, stack = [], [expr]
    while stack:
        node = stack.pop()
        if type(node) is str:
            out.append(node)
        elif type(node) in _LEAF_TEXT:
            out.append(_LEAF_TEXT[type(node)](node))
        elif isinstance(node, Prod):
            for arg in reversed(node.args):
                stack += (")", arg, "(", "*") if isinstance(arg, Sum) else (arg, "*")
            stack.pop()
        elif isinstance(node, Sum):
            for arg, sign in zip(reversed(node.args), reversed(node.signs)):
                sep = " + " if sign > 0 else " - "
                stack += (")", arg, "(", sep) if sign < 0 and isinstance(arg, Sum) else (arg, sep)
            stack.pop()
        else:
            raise TypeError(f"not an expression node: {node!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# generators and relations

_BUILTIN_SERIES = re.compile(r"^([AP])(\d+)$")

# each builtin outside the A<n> and P<n> series -> (dimension, compact, class)
_BUILTINS = {
    "pt": (0, True, ONE),
    "empty": (-1, True, KClass.zero()),
    "Gm": (1, False, L - ONE),
    "L": (1, False, L),
}

# each relation kind -> its roles in canonical order, each with its sign in
# the relation read as (sum) = 0 and its priority for elimination on a
# dimension tie: the total space of the decomposition ([X] -> [U] + [X \ U])
# and the blowup total space ([Y] -> [X] + [E] - [C]) go first, matching the
# canonical orientations
_ROLES = {
    "open": {"X": (1, 2), "U": (-1, 0), "complement": (-1, 1)},
    **dict.fromkeys(("abstract_blowup", "smooth_blowup"),
                    {"E": (1, 1), "Y": (-1, 3), "C": (-1, 0), "X": (1, 2)}),
}


class GenInfo(NamedTuple):
    name: str
    dim: int
    compact: bool


@functools.lru_cache(maxsize=1024)
def builtin_info(name: str) -> Optional[GenInfo]:
    """The dimension and compactness of a builtin generator, or None; the
    answers are kept in a bounded table, so a relation file looks each
    builtin slot name up once."""
    known = _BUILTINS.get(name)
    if known is not None:
        return GenInfo(name, known[0], known[1])
    series = _builtin_series(name)
    if series:
        letter, n = series
        return GenInfo(name, n, letter == "P" or n == 0)
    return None


def builtin_class(name: str) -> Optional[KClass]:
    """Cellular reduction of a builtin generator, or None."""
    known = _BUILTINS.get(name)
    if known is not None:
        return known[2]
    series = _builtin_series(name)
    if series:
        letter, n = series
        if letter == "A":
            return KClass.lefschetz(n) if n else ONE
        if n + 1 > REWRITE_BUDGET:
            raise RewriteBudgetError(
                f"{name} has {n + 1} terms, past the budget of {REWRITE_BUDGET}")
        return KClass({(k, ()): 1 for k in range(n + 1)})
    return None


def _builtin_series(name: str) -> Optional[tuple]:
    """The letter and index of a builtin ``A<n>`` or ``P<n>`` name, or None."""
    m = _BUILTIN_SERIES.match(name)
    if m is None:
        return None
    try:
        return m.group(1), int(m.group(2))
    except ValueError:  # past the interpreter's int-string digit limit
        raise UnknownGeneratorError(
            f"{m.group(1)}<n> index longer than the interpreter's "
            f"{sys.get_int_max_str_digits()}-digit int-string limit") from None


class Relation(NamedTuple):
    kind: str
    slots: tuple  # ((role, generator name), ...) in canonical role order
    index: int

    def slot(self, role: str) -> str:
        for r, name in self.slots:
            if r == role:
                return name
        raise KeyError(role)

    def signed_support(self) -> dict:
        """Coefficients of the relation read as (sum) = 0."""
        roles = _ROLES[self.kind]
        support: dict = {}
        for role, name in self.slots:
            support[name] = support.get(name, 0) + roles[role][0]
        return {n: c for n, c in support.items() if c}

    def role_priority(self, name: str) -> int:
        roles = _ROLES[self.kind]
        return max(roles[r][1] for r, n in self.slots if n == name)


class RelationSet:
    """Declared generators plus the relations that rewrite them.

    Generators are declared either explicitly or implicitly through the
    ``dims``/``compact`` maps of a relation.  Builtins (pt, empty, Gm, L,
    A<n>, P<n>) are always available and cannot be redeclared.
    """

    def __init__(self):
        self._gens: dict = {}
        self.relations: list = []
        self._resolved: dict = {}
        self._index: Optional[dict] = None  # target -> [(relation, replacement)]
        self._blowups: Optional[dict] = None  # (X, C) -> its first blowup relation

    # -- declarations --------------------------------------------------------

    def declare_generator(self, name: str, dim: int, compact: bool = False) -> None:
        if dim < -1:
            raise InvalidRelationError(f"generator {name!r} has dimension {dim} < -1")
        binfo = builtin_info(name)
        if binfo is not None:
            if binfo.dim != dim:
                raise InvalidRelationError(
                    f"cannot redeclare builtin {name!r} with dimension {dim}"
                )
            return
        known = self._gens.get(name)
        if known is not None:
            if known.dim != dim or known.compact != compact:
                raise InvalidRelationError(f"conflicting declarations for {name!r}")
            return
        self._gens[name] = GenInfo(name, dim, compact)
        self._changed()

    def info(self, name: str) -> GenInfo:
        known = self._gens.get(name)  # builtins are never declared
        if known is not None:
            return known
        binfo = builtin_info(name)
        if binfo is None:
            raise UnknownGeneratorError(f"unknown generator {name!r}")
        return binfo

    def knows(self, name: str) -> bool:
        return name in self._gens or builtin_info(name) is not None

    # -- relations -----------------------------------------------------------

    def add_relation(self, kind: str, slots: Mapping[str, str],
                     dims: Optional[Mapping[str, int]] = None,
                     compact: Optional[Mapping[str, bool]] = None) -> Relation:
        if kind not in _ROLES:
            raise InvalidRelationError(f"unknown relation kind {kind!r}")
        roles = tuple(_ROLES[kind])
        if set(slots) != set(roles):
            raise InvalidRelationError(
                f"{kind} relation needs slots {roles}, got {tuple(slots)}"
            )
        dims = dict(dims or {})
        compact = dict(compact or {})
        for name in slots.values():
            if not self.knows(name):
                if name not in dims:
                    raise UnknownGeneratorError(
                        f"generator {name!r} used in a relation but never declared"
                    )
                self.declare_generator(name, dims[name], compact.get(name, False))
            elif name in dims and self.info(name).dim != dims[name]:
                raise InvalidRelationError(f"conflicting dimension for {name!r}")
        rel = Relation(kind, tuple((r, slots[r]) for r in roles), len(self.relations))
        self._check_dims(rel)
        if all(self._reducible(n) for n in rel.signed_support()):
            # nothing to rewrite: the relation is an axiom over builtins,
            # so check it outright instead of orienting it
            total = KClass.zero()
            for name, coeff in rel.signed_support().items():
                cls = builtin_class(name) or KClass.zero()
                total = total + cls.scale(coeff)
            if not total.is_zero():
                raise InconsistentRelationsError(
                    f"relation over builtin generators fails by {total}"
                )
        self.relations.append(rel)
        self._changed()
        return rel

    def _changed(self) -> None:
        """Drop what was computed from the declarations so far."""
        self._resolved.clear()
        self._index = self._blowups = None

    def add_open(self, x: str, u: str, complement: str, **kw) -> Relation:
        return self.add_relation("open", {"X": x, "U": u, "complement": complement}, **kw)

    def add_blowup(self, e: str, y: str, c: str, x: str, kind: str = "smooth_blowup", **kw) -> Relation:
        return self.add_relation(kind, {"E": e, "Y": y, "C": c, "X": x}, **kw)

    def _check_dims(self, rel: Relation) -> None:
        if rel.kind == "open":
            dx = self.info(rel.slot("X")).dim
            for role in ("U", "complement"):
                if self.info(rel.slot(role)).dim > dx:
                    raise InvalidRelationError(
                        f"relation {rel.index}: dim({rel.slot(role)}) > dim({rel.slot('X')})"
                    )
        else:
            if self.info(rel.slot("C")).dim > self.info(rel.slot("X")).dim:
                raise InvalidRelationError(
                    f"relation {rel.index}: dim(C) > dim(X)"
                )
            if self.info(rel.slot("E")).dim > self.info(rel.slot("Y")).dim:
                raise InvalidRelationError(
                    f"relation {rel.index}: dim(E) > dim(Y)"
                )

    def find_blowup(self, x: str, c: str) -> Relation:
        """The first blowup relation with slots X = ``x`` and C = ``c``,
        from a table built once per state of the set."""
        if self._blowups is None:
            self._blowups = {}
            for rel in self.relations:
                if rel.kind in ("smooth_blowup", "abstract_blowup"):
                    self._blowups.setdefault((rel.slot("X"), rel.slot("C")), rel)
        rel = self._blowups.get((x, c))
        if rel is None:
            raise RelationLookupError(f"no blowup relation declared for ({x}; {c})")
        return rel

    # -- rewriting -----------------------------------------------------------

    def _reducible(self, name: str) -> bool:
        """Already rewritable without relations: builtin or declared empty."""
        return builtin_info(name) is not None or self.info(name).dim == -1

    def _orientation(self, rel: Relation):
        """The generator this relation eliminates and its replacement.

        The target is the largest slot by (dimension, role priority, name)
        among those not already reducible; orientation toward the total
        space makes the rewrite descend on relation sets of geometric
        origin, and genuine cycles are caught by the path check of
        ``_resolve``.
        Returns None for a vacuous relation (everything cancels, e.g. the
        degenerate square E=C, Y=X) or one whose slots are all reducible
        (then it is an axiom, verified at declaration time).
        """
        support = rel.signed_support()
        candidates = [n for n in support if not self._reducible(n)]
        if not candidates:
            return None
        target = max(candidates,
                     key=lambda n: (self.info(n).dim, rel.role_priority(n), n))
        c = support.pop(target)
        if c not in (1, -1):
            raise InvalidRelationError(
                f"relation {rel.index} cannot be oriented: "
                f"coefficient {c} on its slot {target!r}"
            )
        return target, [(name, -coeff * c) for name, coeff in sorted(support.items())]

    def _rewrite_index(self) -> dict:
        """Each eliminated generator -> [(relation, replacement)] in
        relation order, so every relation is oriented once per state of
        the set (declarations drop the index)."""
        if self._index is None:
            index: dict = {}
            for rel in self.relations:
                oriented = self._orientation(rel)
                if oriented:
                    index.setdefault(oriented[0], []).append((rel, oriented[1]))
            self._index = index
        return self._index

    def _resolve(self, name: str, counter: "_Budget") -> KClass:
        """The canonical class of a generator, post-order over its
        candidate relations, on an explicit stack instead of recursion.

        Entering a generator with candidates costs one budget step and
        pushes, above a ``(generator,)`` marker that finishes it, the
        replacement generators of each candidate left to right, each
        candidate after the first behind a ``[generator]`` marker that
        costs one more step.  Every candidate must give the same class as
        the first; a generator met again on the path from ``name`` is a
        cycle.  Finished classes are cached.
        """
        resolved = self._resolved
        path: set = set()  # generators entered and not yet finished
        stack: list = [name]
        while stack:
            item = stack.pop()
            if type(item) is list:  # a later candidate of item[0] starts
                counter.step(item[0])
            elif type(item) is tuple:  # every candidate of item[0] is resolved
                gen = item[0]
                classes = []
                for rel, replacement in self._rewrite_index()[gen]:
                    terms: dict = {}
                    for part, coeff in replacement:
                        _add_terms(terms, resolved[part]._terms, coeff)
                    classes.append((rel, KClass(terms)))
                (first_rel, first), *others = classes
                for rel, other in others:
                    if other != first:
                        raise InconsistentRelationsError(
                            f"relations {first_rel.index} and {rel.index} force "
                            f"different canonical forms for {gen!r}: "
                            f"{first} vs {other}"
                        )
                path.discard(gen)
                resolved[gen] = first
            elif item not in resolved:
                if item in path:
                    raise CyclicRelationError(
                        f"cyclic rewriting through {item!r}: "
                        "the relation set is not well founded"
                    )
                value = builtin_class(item)
                if value is None and self.info(item).dim == -1:
                    value = KClass.zero()  # dimension -1 means isomorphic to empty
                candidates = self._rewrite_index().get(item) if value is None else None
                if not candidates:
                    resolved[item] = KClass.generator(item) if value is None else value
                    continue
                counter.step(item)
                path.add(item)
                stack.append((item,))
                for k in reversed(range(len(candidates))):
                    stack += [part for part, _ in reversed(candidates[k][1])]
                    if k:
                        stack.append([item])
        return resolved[name]

    # -- I/O -----------------------------------------------------------------

    @staticmethod
    def from_json(records: Union[str, list],
                  into: Optional["RelationSet"] = None) -> "RelationSet":
        """Load from the JSON relation-file format, into a new set or on
        top of ``into`` (e.g. ``standard_relations()``).

        Records are ``{kind, slots, dims, compact}``; the extra record kind
        ``{"kind": "generator", "name", "dim", "compact"}`` declares a bare
        generator.  A record of the wrong shape raises InvalidRelationError.
        """
        if isinstance(records, str):
            try:
                records = json.loads(records)
            except (ValueError, RecursionError) as exc:  # nesting too deep to decode
                raise InvalidRelationError(f"a relation file is not JSON: {exc}") from None
        if not isinstance(records, list):
            raise InvalidRelationError("a relation file is a JSON array of records")
        rels = into if into is not None else RelationSet()
        for i, rec in enumerate(records):
            if not isinstance(rec, dict):
                raise InvalidRelationError(f"relation record {i} is not an object")
            if rec.get("kind") == "generator":
                rels.declare_generator(_field(rec, i, "name", str),
                                       _field(rec, i, "dim", int),
                                       _field(rec, i, "compact", bool, False))
            else:
                rels.add_relation(_field(rec, i, "kind", str),
                                  _field(rec, i, "slots", dict, values=str),
                                  _field(rec, i, "dims", dict, None, values=int),
                                  _field(rec, i, "compact", dict, None, values=bool))
        return rels


_REQUIRED = object()
_JSON_NAMES = {str: ("a string", "strings"), int: ("an integer", "integers"),
               bool: ("a boolean", "booleans"), dict: ("an object", "objects")}


def _field(rec: dict, i: int, key: str, kind: type, default=_REQUIRED,
           values: Optional[type] = None):
    """Field ``key`` of relation record ``i``, checked to have the JSON type
    ``kind`` (an object with ``values`` values); absent or null gives
    ``default``."""
    value = rec.get(key)
    if value is None:
        if default is _REQUIRED:
            raise InvalidRelationError(f"relation record {i} has no field {key!r}")
        return default
    if type(value) is kind and (values is None
                                or all(type(v) is values for v in value.values())):
        return value
    what = f"an object of {_JSON_NAMES[values][1]}" if values else _JSON_NAMES[kind][0]
    raise InvalidRelationError(f"relation record {i}: field {key!r} must be {what}")


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def step(self, name: str) -> None:
        self.used += 1
        if self.used > self.limit:
            raise RewriteBudgetError(
                f"rewrite budget of {self.limit} exceeded while eliminating {name!r}; "
                "the relation set is likely cyclic"
            )

    def multiply(self, left: int, right: int) -> None:
        """Spend a step on each pair of terms of a product of ``left`` by
        ``right`` terms."""
        self.used += left * right
        if self.used > self.limit:
            raise RewriteBudgetError(
                f"rewrite budget of {self.limit} exceeded while multiplying out a "
                f"product of {left} by {right} terms")


def _hold_p_leaves(exprs: list, rels: RelationSet) -> None:
    """Count the n + 1 terms of each ``P<n>`` leaf of the trees ``exprs``,
    left to right in one walk before any leaf is built, a square term as
    the generator it stands for: the leaves of one normalization hold at
    most ``REWRITE_BUDGET`` terms in all, whatever its step limit."""
    held = 0
    terms_of: dict = {}  # generator name -> its terms if a P<n>, else 0
    stack = exprs[::-1]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Sum or kind is Prod:
            stack += node.args[::-1]
        elif kind is Gen or kind is SquareTerm:
            name = node.name if kind is Gen else _square_slot(node, rels)
            terms = terms_of.get(name)
            if terms is None:
                series = _builtin_series(name)
                terms = terms_of[name] = (
                    series[1] + 1 if series and series[0] == "P" else 0)
            if terms:
                held += terms
                if held > REWRITE_BUDGET:
                    raise RewriteBudgetError(
                        f"{name} has {terms} terms, past the budget of "
                        f"{REWRITE_BUDGET}" if terms == held else
                        f"the P<n> leaves up to {name} have {held} "
                        f"terms, past the budget of {REWRITE_BUDGET}")


EMPTY_RELATIONS = RelationSet()

REWRITE_BUDGET = 10 ** 6

# deepest parenthesis nesting the parser accepts; deeper input is a
# ParseError at the first parenthesis past it.  The parser keeps open
# parentheses on a list, so the limit bounds the grammar, not Python frames
PARSE_NESTING_LIMIT = 200


def standard_relations() -> RelationSet:
    """Relations for the blowups of the builtin series at a point, in
    dimensions 1 to 4.

    The exceptional divisor of blowing up a smooth n-fold at a point is
    P^(n-1), so Bl(P<n>;pt) and Bl(A<n>;pt) resolve out of the box.
    """
    rels = RelationSet()
    for n in range(1, 5):
        e = "pt" if n == 1 else f"P{n - 1}"
        for series, compact in (("P", True), ("A", False)):
            x = f"{series}{n}"
            y = f"Bl{x}pt"
            rels.add_blowup(e, y, "pt", x, kind="smooth_blowup",
                            dims={y: n}, compact={y: compact})
    return rels


# ---------------------------------------------------------------------------
# parsing
#
# One re.findall call cuts the text into tokens: an integer, a name, one
# of the symbols, or any other non-blank character, which is malformed.
# A text of ASCII letters, digits, symbols and blanks alone is cut faster,
# by spacing out its symbols and splitting it at blanks.  The two cuts
# differ only where a digit runs into a letter ("2P" is two regex tokens),
# and such a chunk is neither an integer nor a name, so a parse that reads
# it fails.  A failed parse of a split text is made again from the regex's
# tokens, and that one raises the error.
#
# The parser reads its token list in one loop and compares tokens as
# plain strings.  It checks each distinct name once per parse, and shares
# the node of a name or integer between its occurrences (nodes are frozen
# and compare by value).
#
# Errors come in the order a parser that reads one token ahead meets
# them.  A malformed token (a stray character, an integer past the
# interpreter's int-string digit limit) is reported as soon as the parser
# reaches it, ahead of an unknown name or an undeclared blowup just before
# it.  Positions are found only on an error, by cutting the text again.

_TOKENS = re.compile(r"\d+|[A-Za-z][A-Za-z0-9]*|[+\-*();]|\S")
_PLAIN = re.compile(r"[A-Za-z0-9+\-*(); \t\n\r\f\v]*")


def _is_name(token: str) -> bool:
    return token[:1].isascii() and token[:1].isalpha()


class _Parser:
    def __init__(self, text: str, rels: RelationSet, tokens: list):
        self.text = text
        self.rels = rels
        self.tokens = tokens
        self.tokens.append("")  # the end of the input
        # token -> its Lit or Gen node; square heads stay out, since "Bl("
        # and "E(" start a square term even where Bl or E is a generator
        self.leaves: dict = {}

    def parse(self) -> Expr:
        """One loop over the tokens.  ``args`` and ``signs`` hold the terms
        before the current one in the innermost open sum, with a sign for
        each and for the current one, and ``factors`` the factors before
        the current one in its term; an open parenthesis pushes the three,
        and its ``)`` pops them, the finished sum the current factor."""
        tokens, leaves, open_sums = self.tokens, self.leaves, []
        args, signs, factors = [], [1], []
        i = 0
        while True:
            token = tokens[i]
            i += 1
            if token == "(":
                if len(open_sums) == PARSE_NESTING_LIMIT:
                    raise self._error(
                        f"parentheses nested deeper than {PARSE_NESTING_LIMIT}", i - 1)
                open_sums.append((args, signs, factors))
                args, signs, factors = [], [1], []
                continue
            node = leaves.get(token)
            if node is None:
                node, i = self._leaf(token, i - 1)
            # the operator after a factor ends its term, its sum, or both
            while True:
                token = tokens[i]
                i += 1
                if token == "*":
                    factors.append(node)
                    break
                if factors:
                    factors.append(node)
                    node, factors = Prod(tuple(factors)), []
                if token == "+" or token == "-":
                    args.append(node)
                    signs.append(1 if token == "+" else -1)
                    break
                if args:
                    args.append(node)
                    node = Sum(tuple(args), tuple(signs))
                if not open_sums:
                    if token:
                        raise self._error("trailing input", i - 1)
                    return node
                if token != ")":
                    raise self._error("expected ')'", i - 1)
                args, signs, factors = open_sums.pop()

    def _leaf(self, token: str, i: int) -> tuple:
        """The node of the factor that starts with token ``i``, not a
        parenthesis or a cached leaf, and the token after it."""
        if _is_name(token):
            if token in _SQUARE_HEADS and self.tokens[i + 1] == "(":
                return self._square_term(token, i), i + 6
            return self._gen(token, i), i + 1
        if token[:1].isdecimal():
            try:
                leaf = self.leaves[token] = Lit(int(token))
            except ValueError:  # past the interpreter's int-string digit limit
                raise self._error("integer literal too long", i) from None
            return leaf, i + 1
        if not token:
            raise self._error("unexpected end of input", i)
        raise self._error(f"unexpected token {token!r}", i)

    def _square_term(self, head: str, i: int) -> Expr:
        """``head(x;c)``, its head at token ``i``; tokens past the end of
        the input are never read, since the last one, "", fails each test."""
        x = self._name(i + 2)
        self._expect(";", i + 3)
        c = self._name(i + 4)
        self._expect(")", i + 5)
        try:
            rel = self.rels.find_blowup(x, c)
        except RelationLookupError as exc:
            raise self._error(str(exc), i, i + 6) from None
        return SquareTerm(head, x, c, rel.index)

    def _expect(self, symbol: str, i: int) -> None:
        if self.tokens[i] != symbol:
            raise self._error(f"expected {symbol!r}", i)

    def _name(self, i: int) -> str:
        """The generator named by token ``i``."""
        token = self.tokens[i]
        if not _is_name(token):
            raise self._error("expected a generator name", i)
        return self._gen(token, i).name

    def _gen(self, name: str, i: int) -> Gen:
        """The node of generator ``name``, the name at token ``i``, if the
        relation set knows it; the lookup is made once per parse."""
        gen = self.leaves.get(name)
        if gen is None:
            try:
                known = self.rels.knows(name)
            except UnknownGeneratorError as exc:
                raise self._error(str(exc), i, i + 1) from None
            if not known:
                raise self._error(f"unknown generator {name!r}", i, i + 1)
            gen = Gen(name)
            if name not in _SQUARE_HEADS:
                self.leaves[name] = gen
        return gen

    def _error(self, message: str, at: int, ahead: Optional[int] = None) -> ParseError:
        """``message`` at the start of token ``at``, unless token ``ahead``
        (by default ``at``), the furthest one the grammar has read, is
        malformed: then the error of that token, which comes first."""
        ahead = at if ahead is None else ahead
        spans = [m.span() for m in _TOKENS.finditer(self.text)]
        spans.append((len(self.text), len(self.text)))  # the end of the input
        token = self.tokens[ahead]
        if token[:1].isdecimal():
            try:
                int(token)
            except ValueError:
                return ParseError("integer literal too long", spans[ahead][0])
        elif token and token not in "+-*();" and not _is_name(token):
            # reported where the token before it ends, as a scan from there finds it
            return ParseError(f"unexpected character {token!r}",
                              spans[ahead - 1][1] if ahead else 0)
        return ParseError(message, spans[at][0])


def parse_expr(text: str, rels: Optional[RelationSet] = None) -> Expr:
    """Parse an expression against the grammar; names resolve against
    builtins or the relation set."""
    rels = rels if rels is not None else EMPTY_RELATIONS
    if _PLAIN.fullmatch(text):
        spaced = text
        for symbol in "+-*();":
            spaced = spaced.replace(symbol, f" {symbol} ")
        try:
            return _Parser(text, rels, spaced.split()).parse()
        except ParseError:
            pass  # the regex's tokens give the error
    return _Parser(text, rels, _TOKENS.findall(text)).parse()


# ---------------------------------------------------------------------------
# normalization

def _square_slot(node: SquareTerm, rels: RelationSet) -> str:
    """The generator a square term stands for: the slot of its relation
    that its head names."""
    return rels.relations[node.relation_index].slot(_SQUARE_HEADS[node.head])


def _as_expr(expr: Union[Expr, str, KClass], rels: RelationSet) -> Union[Expr, KClass]:
    return parse_expr(expr, rels) if isinstance(expr, str) else expr


def normalize(expr: Union[Expr, str, KClass],
              rels: Optional[RelationSet] = None,
              budget: int = REWRITE_BUDGET) -> KClass:
    """Rewrite an expression to its canonical KClass.

    Every ``P<n>`` leaf of the tree, a square term as its generator, is
    counted first, so that too many of their terms fail before a class is
    built; then ``_sum_classes``, the loop ``g_map`` runs too, sums the
    resolved classes of its leaves over the tree within ``budget`` steps.
    """
    rels = rels if rels is not None else EMPTY_RELATIONS
    expr = _as_expr(expr, rels)
    if isinstance(expr, KClass):
        return expr
    _hold_p_leaves([expr], rels)
    return _sum_classes(expr, rels, _Budget(budget), rels._resolved)


def _sum_classes(expr: Expr, rels: RelationSet, counter: _Budget, leaves: dict) -> KClass:
    """The class of a tree whose generator leaves have the classes in
    ``leaves``; a name that ``leaves`` lacks is resolved against ``rels``
    and added to it.

    One loop folds the tree left to right over an explicit stack of
    ``(node, sign, terms)``: each operand of a sum adds, with its sign,
    into the sum's monomial -> coefficient dict, and each factor of a
    product folds into a dict of its own; the dicts multiply out at the end,
    each pair of terms multiplied at the cost of one budget step.
    """
    total: dict = {}
    stack: list = [(expr, 1, total)]
    while stack:
        item = stack.pop()
        if len(item) == 4:  # every factor of a product is folded
            factors, sign, acc, _ = item
            product = factors[0]
            for factor in factors[1:-1]:
                counter.multiply(len(product), len(factor))
                product, partial = {}, product
                _add_product(product, partial, factor, 1)
            counter.multiply(len(product), len(factors[-1]))
            _add_product(acc, product, factors[-1], sign)
            continue
        node, sign, acc = item
        kind = type(node)
        if kind is Gen or kind is SquareTerm:
            name = node.name if kind is Gen else _square_slot(node, rels)
            cls = leaves.get(name)  # a name with a class is known
            if cls is None:
                if not rels.knows(name):
                    raise UnknownGeneratorError(f"unknown generator {name!r}")
                cls = leaves[name] = rels._resolve(name, counter)
            _add_terms(acc, cls._terms, sign)
        elif kind is Sum:
            args, signs, i = node.args, node.signs, len(node.args)
            while i:  # right to left, so that the operands pop left to right
                i -= 1
                stack.append((args[i], sign * signs[i], acc))
        elif kind is Prod:
            factors = []  # in reverse order, which the commutative product ignores
            stack.append((factors, sign, acc, None))
            for arg in reversed(node.args):
                factors.append({})
                stack.append((arg, 1, factors[-1]))
        elif kind is Lit:
            acc[(0, ())] = acc.get((0, ()), 0) + sign * node.value
        else:
            raise TypeError(f"not an expression node: {node!r}")
    return KClass(total)


# ---------------------------------------------------------------------------
# the compact presentation map g

class CompEntry(NamedTuple):
    """One compactification choice: U sits densely inside the compact
    space ``compact`` (an expression over compact generators, e.g. P1*P1)
    with boundary class ``boundary``."""
    compact: Expr
    boundary: Expr


class CompactificationTable:
    """Maps each non-compact generator to a compactification.

    Builtin entries (A^n in P^n, Gm in P1, L = [A1]) are always installed;
    user entries override them.
    """

    def __init__(self, entries: Optional[Mapping[str, CompEntry]] = None):
        self._entries = dict(entries or {})

    def set(self, name: str, compact: Union[Expr, str], boundary: Union[Expr, str],
            rels: Optional[RelationSet] = None) -> None:
        self._entries[name] = CompEntry(_as_expr(compact, rels), _as_expr(boundary, rels))

    def lookup(self, name: str) -> CompEntry:
        entry = self._entries.get(name)
        if entry is not None:
            return entry
        if name == "L":
            return CompEntry(Gen("P1"), Gen("pt"))
        if name == "Gm":
            return CompEntry(Gen("P1"), Sum((Gen("pt"), Gen("pt")), (1, 1)))
        series = _builtin_series(name)
        if series and series[0] == "A" and series[1] >= 1:
            n = series[1]
            return CompEntry(Gen(f"P{n}"), Gen("pt") if n == 1 else Gen(f"P{n - 1}"))
        raise MissingCompactificationError(f"no compactification registered for {name!r}")


class GMapResult(NamedTuple):
    compact_expr: Expr   # the presentation-(ii) witness, over compact generators
    kclass: KClass


def expr_dim(expr: Expr, rels: RelationSet) -> int:
    """Dimension upper bound of an expression: max over sums, additive over
    products, declared dimension on generators."""
    def leaf(node: Expr) -> int:
        if isinstance(node, SquareTerm):
            node = Gen(_square_slot(node, rels))
        if isinstance(node, Gen):
            return rels.info(node.name).dim
        if isinstance(node, Lit):
            return -1 if node.value == 0 else 0
        raise TypeError(f"not an expression node: {node!r}")

    def branch(node: Expr, dims: list) -> int:
        if isinstance(node, Prod):
            return -1 if -1 in dims else sum(dims)
        return max(dims)

    return _fold(expr, leaf, branch)


def _all_compact(expr: Expr, rels: RelationSet) -> bool:
    def leaf(node: Expr) -> bool:
        if isinstance(node, SquareTerm):
            node = Gen(_square_slot(node, rels))
        return rels.info(node.name).compact if isinstance(node, Gen) else isinstance(node, Lit)

    return _fold(expr, leaf, lambda node, values: all(values))


def g_map(expr: Union[Expr, str], comp: CompactificationTable,
          rels: Optional[RelationSet] = None) -> GMapResult:
    """Express a class purely in compact generators: g([U]) = [Xbar] - [Xbar \\ U].

    Each distinct non-compact generator is presented once, as its
    compactification minus its boundary, itself presented; boundaries must
    consist of generators of strictly smaller dimension, so the nesting
    drops dimension and ends.  The class is summed over the given tree,
    each presented generator's leaf class the class of its presentation,
    within one step budget and one count of ``P<n>`` terms: the given
    tree's leaves, then each compactification and boundary once.  The
    result records both the rewritten expression, which keeps every
    unchanged subtree of the given one, and its class.
    """
    rels = rels if rels is not None else EMPTY_RELATIONS
    node = _as_expr(expr, rels)

    presented: dict = {}  # generator name -> its compact presentation, per call
    presenting: set = set()  # generators whose boundary is being presented
    entries: list = []  # (name, entry) of each presented non-compact generator, innermost first

    def present(leaf: Expr) -> Expr:
        """The presentation of a leaf.  A generator's boundary is presented
        before it, left to right on an explicit stack, so calls do not nest
        once per level of a chain of compactifications."""
        if type(leaf) is Gen and leaf.name in presented:
            return presented[leaf.name]
        if isinstance(leaf, SquareTerm):
            leaf = Gen(_square_slot(leaf, rels))
        if isinstance(leaf, Lit):
            return leaf
        stack = [leaf]
        while stack:
            e = stack.pop()
            if type(e) is tuple:  # (name, entry): its boundary's generators are presented
                name, entry = e
                boundary = _fold(entry.boundary, present, rebuild)
                presented[name] = Sum((entry.compact, boundary), (1, -1))
                presenting.discard(name)
                entries.append(e)
                continue
            if isinstance(e, (Sum, Prod)):
                stack += e.args[::-1]
                continue
            if isinstance(e, SquareTerm):
                e = Gen(_square_slot(e, rels))
            if isinstance(e, Lit):
                continue
            if not isinstance(e, Gen):
                raise TypeError(f"not an expression node: {e!r}")
            if e.name in presented:
                continue
            if e.name in presenting:
                # a zero factor hides it from the dimension check: 0*U
                raise BoundaryDimensionError(
                    f"{e.name!r} occurs in the boundary of its own compactification")
            info = rels.info(e.name)
            if info.compact:
                presented[e.name] = e
                continue
            entry = comp.lookup(e.name)
            if not _all_compact(entry.compact, rels):
                raise MissingCompactificationError(
                    f"compactification of {e.name!r} uses non-compact generators"
                )
            cdim = expr_dim(entry.compact, rels)
            if cdim != info.dim:
                raise BoundaryDimensionError(
                    f"{e.name!r} is not dense in its compactification: "
                    f"dimensions {info.dim} vs {cdim}"
                )
            if expr_dim(entry.boundary, rels) >= cdim:
                raise BoundaryDimensionError(
                    f"boundary of {e.name!r} does not have strictly smaller dimension"
                )
            presenting.add(e.name)
            stack += [(e.name, entry), entry.boundary]
        return presented[leaf.name]

    def rebuild(e: Expr, args: list) -> Expr:  # an unchanged subtree stays as it is
        if all(map(operator.is_, args, e.args)):
            return e
        return Sum(tuple(args), e.signs) if isinstance(e, Sum) else Prod(tuple(args))

    compact_expr = _fold(node, present, rebuild)
    _hold_p_leaves([node] + [part for _, entry in entries
                             for part in (entry.compact, entry.boundary)], rels)
    counter = _Budget(REWRITE_BUDGET)
    classes: dict = {}  # generator name -> its class in g, per call
    for name, entry in entries:  # a boundary's generators come before it
        classes[name] = _sum_classes(Sum((entry.compact, entry.boundary), (1, -1)),
                                     rels, counter, classes)
    return GMapResult(compact_expr, _sum_classes(node, rels, counter, classes))


# ---------------------------------------------------------------------------
# square relations

class SquareRelationReport(NamedTuple):
    ok: bool
    lhs: KClass  # [E] + [X]
    rhs: KClass  # [C] + [Y]

    def __bool__(self) -> bool:
        return self.ok


CornerInput = Union[Expr, str, KClass]


def verify_square_relation(e: CornerInput, y: CornerInput, c: CornerInput,
                           x: CornerInput,
                           rels: Optional[RelationSet] = None) -> SquareRelationReport:
    """Check [E] + [X] = [C] + [Y] on canonical forms."""
    rels = rels if rels is not None else EMPTY_RELATIONS
    lhs = normalize(e, rels) + normalize(x, rels)
    rhs = normalize(c, rels) + normalize(y, rels)
    return SquareRelationReport(lhs == rhs, lhs, rhs)
