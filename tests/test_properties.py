"""Property tests for the algebraic invariants (hypothesis-driven)."""

import contextlib
import io
import json
import math
import sys

from hypothesis import given, settings, strategies as st

from kvar import cli, kring
from kvar.kring import (CompactificationTable, Expr, KClass, Lit, ParseError, RelationSet, Sum,
                        expr_to_text, g_map, normalize, parse_expr, standard_relations)
from kvar.measures import MeasureSpec, apply_measure
from kvar.toric import MAX_FAN_FILE_RANK, sort_rays_ccw

GENS = ["pt", "empty", "P1", "P2", "A1", "A2", "Gm", "L"]

atoms = st.one_of(
    st.sampled_from(GENS),
    st.integers(min_value=0, max_value=9).map(str),
)


def combine(children):
    return st.tuples(st.sampled_from("+-*"), children, children).map(
        lambda t: f"({t[1]} {t[0]} {t[2]})"
    )


expressions = st.recursive(atoms, combine, max_leaves=12)


@given(expressions, expressions)
@settings(max_examples=120, deadline=None)
def test_normalize_is_a_ring_homomorphism(a, b):
    na, nb = normalize(a), normalize(b)
    assert normalize(f"({a}) + ({b})") == na + nb
    assert normalize(f"({a}) - ({b})") == na - nb
    assert normalize(f"({a}) * ({b})") == na * nb


@given(expressions)
@settings(max_examples=120, deadline=None)
def test_canonical_forms_are_stable(text):
    first = normalize(text)
    assert normalize(text) == first
    assert first + KClass.zero() == first
    assert first - first == KClass.zero()


@given(expressions)
@settings(max_examples=80, deadline=None)
def test_g_map_agrees_with_direct_normalization(text):
    assert g_map(text, CompactificationTable()).kclass == normalize(text)


@given(expressions, st.sampled_from([2, 3, 4, 5]))
@settings(max_examples=80, deadline=None)
def test_e_polynomial_specializes_to_point_counts(text, q):
    cls = normalize(text)
    e_val = apply_measure(MeasureSpec("e_poly"), cls)
    count = apply_measure(MeasureSpec("point_count", q=q), cls)
    assert e_val.substitute_int(q) == count.as_int()


@given(expressions, expressions)
@settings(max_examples=80, deadline=None)
def test_measures_respect_the_ring_structure(a, b):
    spec = MeasureSpec("virtual_poincare")
    na, nb = normalize(a), normalize(b)
    assert apply_measure(spec, na * nb) == apply_measure(spec, na) * apply_measure(spec, nb)
    assert apply_measure(spec, na + nb) == apply_measure(spec, na) + apply_measure(spec, nb)


@given(st.lists(st.tuples(st.booleans(), st.recursive(atoms, combine, max_leaves=3)),
                min_size=1, max_size=4))
@settings(max_examples=8, deadline=None)
def test_a_long_sum_normalizes_to_its_scaled_closed_form(pattern):
    # a signed pattern of terms, repeated to a sum of 10^5 terms
    repeats = 10 ** 5 // len(pattern)
    trees = [(plus, parse_expr(text)) for plus, text in pattern]
    tree = Lit(0)
    for _ in range(repeats):
        for plus, term in trees:
            tree = Sum((tree, term), (1, 1 if plus else -1))
    closed = KClass.zero()
    for plus, text in pattern:
        closed = closed + normalize(text).scale(1 if plus else -1)
    assert normalize(tree) == closed.scale(repeats)


def _towers_and_opens():
    """The records of point-blowup towers over P2 and P3, each level
    X<k> = Bl(X<k-1>; pt) with exceptional divisor P^(n-1), and of opens
    V = X<k> + A^(n-1) and W = V + pt over them, with each generator's
    class in closed form: [X<k>] = [P^n] + k ([P^(n-1)] - 1)."""
    records, classes = [], {}
    for n in (2, 3):
        below = f"P{n}"
        for k in range(1, 7):
            name, v, w = f"T{n}x{k}", f"T{n}v{k}", f"T{n}w{k}"
            records.append({"kind": "smooth_blowup",
                            "slots": {"E": f"P{n - 1}", "Y": name, "C": "pt", "X": below},
                            "dims": {name: n, below: n}, "compact": {name: True, below: True}})
            classes[name] = normalize(f"P{n} + {k}*(P{n - 1} - 1)")
            records.append({"kind": "open",
                            "slots": {"X": v, "U": name, "complement": f"A{n - 1}"},
                            "dims": {v: n, name: n}, "compact": {name: True}})
            classes[v] = classes[name] + normalize(f"A{n - 1}")
            records.append({"kind": "open", "slots": {"X": w, "U": v, "complement": "pt"},
                            "dims": {w: n, v: n}})
            classes[w] = classes[v] + normalize("pt")
            below = name
    return records, classes


TOWER_RECORDS, TOWER_CLASSES = _towers_and_opens()


@given(st.permutations(TOWER_RECORDS), st.permutations(sorted(TOWER_CLASSES)))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_a_relation_file_gives_each_generator_one_class_in_any_order(records, names):
    rels = RelationSet.from_json(records)
    assert {name: normalize(name, rels) for name in names} == TOWER_CLASSES


# standard_relations() with the towers and opens above; the non-compact
# generators that get table entries, with their dimensions, and the pieces
# of boundaries and expressions: products, Bl/E terms and non-compact ones
TOWER_SET = RelationSet.from_json(TOWER_RECORDS, into=standard_relations())
ENTRIES = {"BlA2pt": 2, "BlA3pt": 3, "T2v1": 2, "T2w3": 2, "T3v2": 3, "T3w6": 3,
           "A2": 2, "Gm": 1}
COMPACTIFICATIONS = {1: ["P1", "Bl(P1;pt)"], 2: ["P2", "Bl(P2;pt)", "P1*P1", "T2x4"],
                     3: ["P3", "Bl(P3;pt)", "P1*P2", "T3x2"]}
PIECES = [("2", 0), ("pt", 0), ("P1", 1), ("A1", 1), ("Gm", 1), ("L", 1), ("E(P2;pt)", 1),
          ("E(P3;pt)", 2), ("E(A3;pt)", 2), ("Bl(A2;pt)", 2), ("Bl(P2;pt)", 2), ("A2", 2),
          ("T2v1", 2), ("T2w3", 2), ("T2x3", 2), ("Bl(A3;pt)", 3), ("T3v2", 3), ("T3w6", 3)]


@st.composite
def compactified(draw):
    """A table with an entry for each of ENTRIES (A2 and Gm keep their
    builtin one half the time), each boundary a sum of products of pieces
    of lower dimension; and a sum of products of any pieces."""
    table = CompactificationTable()

    def product(max_dim: int) -> str:
        first, dim = draw(st.sampled_from([p for p in PIECES if p[1] <= max_dim]))
        rest = [p for p, d in PIECES if d <= max_dim - dim]
        return first + (f"*{draw(st.sampled_from(rest))}" if rest and draw(st.booleans()) else "")

    def signed_sum(max_dim: int, size: int) -> str:
        terms = [product(max_dim) for _ in range(draw(st.integers(1, size)))]
        return "".join([terms[0]] + [f" {draw(st.sampled_from('+-'))} {t}" for t in terms[1:]])

    for name, dim in ENTRIES.items():
        if name in ("A2", "Gm") and draw(st.booleans()):
            continue
        table.set(name, draw(st.sampled_from(COMPACTIFICATIONS[dim])),
                  signed_sum(dim - 1, 3), TOWER_SET)
    return table, signed_sum(6, 6)


@given(compactified())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_g_map_class_is_the_class_of_its_compact_expression(case):
    table, text = case
    result = g_map(text, table, TOWER_SET)
    assert result.kclass == normalize(result.compact_expr, TOWER_SET)


@given(expressions)
@settings(max_examples=120, deadline=None)
def test_printed_expressions_parse_back_to_themselves(text):
    printed = expr_to_text(parse_expr(text))
    tree = parse_expr(printed)
    assert expr_to_text(tree) == printed
    assert normalize(tree) == normalize(text)


@given(st.text(alphabet=st.sampled_from(list("PAGLmtpe0129+-*();Bl E ") + ["$", "é", "\t"]),
               max_size=24))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_eval_of_any_text_ends_in_a_report(text):
    # a leading "-" would read as an option, and "--" ends the options
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["eval", "--format", "json", "--", text]) in (0, 1)


# the grammar's tokens and characters, some names the standard relations do
# not know, characters outside the grammar and an integer past the digit limit
GRAMMAR_PIECES = (list("+-*();PAEBl0129 \t") + ["Bl(", "E(", "P2", "pt", "Gm", "noSuch",
                  "Bl(P2;pt)", "E(P3;pt)", "Bl(P2;P1)", "$", "\u00e9", "\u00b2", "\u0663",
                  "9" * (sys.get_int_max_str_digits() + 1)])
STANDARD = standard_relations()


@given(st.lists(st.sampled_from(GRAMMAR_PIECES), max_size=16).map("".join))
@settings(max_examples=300, deadline=None)
def test_any_text_over_the_grammar_alphabet_parses_or_is_a_parse_error(text):
    try:
        tree = parse_expr(text, STANDARD)
    except ParseError as err:
        assert 0 <= err.position <= len(text)
        return
    assert isinstance(tree, Expr)


def _parse_outcome(parse):
    try:
        return parse()
    except ParseError as err:
        return str(err), err.position


@given(st.lists(st.sampled_from(GRAMMAR_PIECES + ["2P", "3x", "P2x3", "007"]),
                max_size=16).map("".join))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_plain_text_parses_as_from_the_regex_tokens(text):
    # parse_expr splits a text of ASCII grammar characters at blanks after
    # spacing out its symbols; "2P" is one chunk there, two regex tokens
    from_regex = _parse_outcome(
        lambda: kring._Parser(text, STANDARD, kring._TOKENS.findall(text)).parse())
    assert _parse_outcome(lambda: parse_expr(text, STANDARD)) == from_regex


# -- fan files ------------------------------------------------------------------

RAYS_2 = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda v: math.gcd(*v) == 1)


def _rank2_fan(draw, max_rays):
    """Rays in counterclockwise order, a subset of the 2-cones between
    neighbours less than a half-turn apart, and the other rays as 1-cones."""
    rays = sort_rays_ccw(draw(st.lists(RAYS_2, max_size=max_rays, unique=True)))
    pairs = [[i, (i + 1) % len(rays)] for i, (v, w) in enumerate(zip(rays, rays[1:] + rays[:1]))
             if v[0] * w[1] > v[1] * w[0]]
    maximal = [p for p in pairs if draw(st.booleans())]
    covered = {i for cone in maximal for i in cone}
    maximal += [[i] for i in range(len(rays)) if i not in covered]
    return rays, maximal


@st.composite
def fan_files(draw):
    """A well-formed ``kvar fan`` file at rank 1, 2 or 3: cones of the fan
    of P1, a rank-2 fan, a set of octants, the product of a rank-2 fan with
    a rank-1 one, or a dense torus."""
    shape = draw(st.sampled_from(["P1", "surface", "octants", "product", "torus"]))
    if shape == "P1":
        rank, rays = 1, draw(st.lists(st.sampled_from([(1,), (-1,)]), unique=True))
        maximal = [[i] for i in range(len(rays))]
    elif shape == "surface":
        rank, (rays, maximal) = 2, _rank2_fan(draw, 6)
    elif shape == "octants":
        rank, rays = 3, [(s * (i == 0), s * (i == 1), s * (i == 2))
                         for i in range(3) for s in (1, -1)]
        signs = draw(st.lists(st.tuples(*[st.sampled_from([0, 1])] * 3), unique=True,
                              max_size=8))
        maximal = [[2 * i + sign[i] for i in range(3)] for sign in signs]
    elif shape == "product":
        surface, cones = _rank2_fan(draw, 4)
        line = [(1,), (-1,)][:draw(st.integers(0, 2))]
        rank, rays = 3, [r + (0,) for r in surface] + [(0, 0) + r for r in line]
        maximal = [c + [len(surface) + i] for c in cones for i in range(len(line))] or cones
    else:
        rank = draw(st.integers(1, 3))
        return {"rank": rank, "rays": [], "maximal_cones": [], "dense_torus": True}
    return {"rank": rank, "rays": [list(r) for r in rays], "maximal_cones": maximal}


WRONG_TYPES = {"rank": ["2", 2.0, True, None, [2], {}],
               "rays": [{}, "rays", 3, [[1.5, 0]], [["1", "0"]], [[True, False]], [None]],
               "maximal_cones": [{}, "0", [0], [[0.0]], [[True]], [["0"]], [[-1]], [[99]]],
               "dense_torus": ["yes", [], {}, 1]}


@st.composite
def mutated_fan_files(draw):
    """A fan file, maybe broken: a cone dropped, a non-primitive or zero ray
    added, a wrong rank, or a field of the wrong JSON type."""
    data = draw(fan_files())
    mutation = draw(st.sampled_from(["none", "drop", "ray", "rank", "type"]))
    if mutation == "drop" and data["maximal_cones"]:
        del data["maximal_cones"][draw(st.integers(0, len(data["maximal_cones"]) - 1))]
    elif mutation == "ray":
        scale = draw(st.sampled_from([0, 2, -3]))
        ray = draw(st.sampled_from(data["rays"] or [[1] * data["rank"]]))
        data["rays"].append([scale * x for x in ray])
        if draw(st.booleans()):
            data["maximal_cones"].append([len(data["rays"]) - 1])
    elif mutation == "rank":
        data["rank"] = draw(st.sampled_from([data["rank"] - 1, data["rank"] + 1, -1, 0,
                                             MAX_FAN_FILE_RANK + 1]))
    elif mutation == "type":
        field = draw(st.sampled_from(sorted(WRONG_TYPES)))
        data[field] = draw(st.sampled_from(WRONG_TYPES[field]))
    return mutation, data


@given(mutated_fan_files())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_fan_file_ends_in_a_report_or_one_error_line(tmp_path_factory, case):
    mutation, data = case
    path = tmp_path_factory.mktemp("fan") / "fan.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(["fan", str(path)])
    if status == 2:
        assert not out.getvalue()
        assert err.getvalue().startswith("kvar: error: ") and err.getvalue().count("\n") == 1
    else:
        assert status in (0, 1) and out.getvalue() and not err.getvalue()
        assert mutation != "type"
    if mutation == "none":
        assert status == 0
