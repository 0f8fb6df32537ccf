"""Expression parsing, normalization, and the compact-presentation map."""

import importlib.util
import json
import pathlib
import re
import sys
import time

import pytest

from kvar import cli, kring
from kvar.kring import (
    BoundaryDimensionError,
    CompactificationTable,
    CyclicRelationError,
    Gen,
    InconsistentRelationsError,
    InvalidRelationError,
    KClass,
    Lit,
    MissingCompactificationError,
    ParseError,
    Prod,
    RelationSet,
    RewriteBudgetError,
    Sum,
    expr_dim,
    expr_to_text,
    g_map,
    normalize,
    parse_expr,
    standard_relations,
    verify_square_relation,
)

L = KClass.lefschetz
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def lpoly(*coeffs):
    """KClass from ascending L coefficients: lpoly(1, 1, 1) = 1 + L + L^2."""
    out = KClass.zero()
    for exp, c in enumerate(coeffs):
        out = out + L(exp).scale(c)
    return out


def blowup_rels():
    rels = RelationSet()
    rels.add_blowup("P1", "BlP2pt", "pt", "P2",
                    dims={"BlP2pt": 2}, compact={"BlP2pt": True})
    return rels


# -- parsing ------------------------------------------------------------------

def test_parse_sum_of_product():
    tree = parse_expr("P2 + L*Gm")
    assert tree == Sum((Gen("P2"), Prod((Gen("L"), Gen("Gm")))), (1, 1))
    assert parse_expr("P1*P2*P3 - pt") == Sum(
        (Prod((Gen("P1"), Gen("P2"), Gen("P3"))), Gen("pt")), (1, -1))
    # a parenthesized sum stays one operand
    assert parse_expr("pt - (P1 + A1)") == Sum(
        (Gen("pt"), Sum((Gen("P1"), Gen("A1")), (1, 1))), (1, -1))


def test_parse_builtin_empty():
    assert parse_expr("empty") == Gen("empty")


def test_parse_square_terms_bind_to_relation():
    rels = blowup_rels()
    tree = parse_expr("Bl(P2;pt) + pt - E(P2;pt)", rels)
    assert isinstance(tree, Sum) and tree.signs == (1, 1, -1)
    assert tree.args[0].relation_index == 0     # the Bl(...) node
    assert tree.args[2].relation_index == 0     # the E(...) node


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_expr("P2 + *")
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_expr("P2 + noSuchThing")
    with pytest.raises(ParseError):
        parse_expr("Bl(P2;pt)")  # no relation declared
    with pytest.raises(ParseError):
        parse_expr("(P1")


@pytest.mark.parametrize("text, message", [
    ("P2 + $", "unexpected character '$' (at position 4)"),  # the end of "+", not the "$"
    ("P2 +   $ ", "unexpected character '$' (at position 4)"),
    ("P2 + * $", "unexpected token '*' (at position 5)"),
    ("  ", "unexpected end of input (at position 2)"),
    ("", "unexpected end of input (at position 0)"),
    ("(P1", "expected ')' (at position 3)"),
    ("P1 )", "trailing input (at position 3)"),
    ("P2 + noSuch", "unknown generator 'noSuch' (at position 5)"),
    ("P1 * * 2", "unexpected token '*' (at position 5)"),
    ("noSuch $", "unexpected character '$' (at position 6)"),  # before the unknown name
    ("(pt $", "unexpected character '$' (at position 3)"),  # not "expected ')'"
    ("Bl(P2;P1) $", "unexpected character '$' (at position 9)"),  # before the lookup
    ("Bl(noSuch $", "unexpected character '$' (at position 9)"),
    ("2 \u00b2", "unexpected character '\u00b2' (at position 1)"),  # a digit, not a decimal
    ("Bl(", "expected a generator name (at position 3)"),
    ("E(", "expected a generator name (at position 2)"),
    ("Bl(P2", "expected ';' (at position 5)"),
    ("Bl(P2;", "expected a generator name (at position 6)"),
    ("Bl(P2;pt", "expected ')' (at position 8)"),
    ("Bl(P2;P1)", "no blowup relation declared for (P2; P1) (at position 0)"),
    ("Bl", "unknown generator 'Bl' (at position 0)"),
])
def test_parse_error_texts(text, message):
    with pytest.raises(ParseError) as err:
        parse_expr(text, standard_relations())
    assert str(err.value) == message


def test_an_integer_literal_past_the_digit_limit_is_a_parse_error():
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ParseError) as err:
        parse_expr(f"P1 + {digits}")
    assert str(err.value) == "integer literal too long (at position 5)"
    with pytest.raises(ParseError, match="unexpected character '\\$'"):
        parse_expr(f"P2 + $ {digits}")  # reached in order: the "$" comes first


def test_parse_errors_match_the_pinned_fixture():
    # tests/fixtures/parse_errors.json holds 500 malformed inputs and the
    # error each raised in the parser before the token-list rewrite, written by
    # tests/fixtures/make_parse_errors.py --seed 23 --count 500
    entries = json.loads((FIXTURES / "parse_errors.json").read_text(encoding="utf-8"))
    assert len(entries) == 500
    rels = standard_relations()
    for text, message, position in entries:
        with pytest.raises(ParseError) as err:
            parse_expr(text, rels)
        assert (str(err.value), err.value.position) == (message, position), text


def test_the_eval_path_matches_the_pinned_digest():
    # tests/fixtures/eval_pin.json holds one sha256 over the printed trees,
    # classes, g_map results and measure values of seeded relation files and
    # 200-clause expressions, written by tests/fixtures/make_eval_pin.py
    pin = json.loads((FIXTURES / "eval_pin.json").read_text(encoding="utf-8"))
    spec = importlib.util.spec_from_file_location("make_eval_pin", FIXTURES / "make_eval_pin.py")
    make_eval_pin = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_eval_pin)
    started = time.perf_counter()
    assert make_eval_pin.digest(pin["seed"], pin["files"]) == pin["sha256"]
    assert time.perf_counter() - started < 1.0


def _counted(monkeypatch, owner, name):
    """Count the calls of function or method ``name`` of ``owner``."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_parsing_looks_each_name_and_the_blowups_up_once(monkeypatch):
    rels = point_blowup_tower(70)
    for k in range(20):
        rels.add_open(f"V{k}", f"X{k + 1}", "pt", dims={f"V{k}": 2}, compact={f"V{k}": False})
    assert len(rels.relations) == 90
    clauses = [f"X{k % 70 + 1}" if k % 4 == 0 else f"Bl(X{k % 69 + 1};pt)" if k % 4 == 1
               else f"E(X{k % 69 + 1};pt)*V{k % 20}" if k % 4 == 2 else "3*P2*Gm"
               for k in range(200)]
    text = " + ".join(clauses)
    knows = _counted(monkeypatch, RelationSet, "knows")
    slot = _counted(monkeypatch, kring.Relation, "slot")
    tree = parse_expr(text, rels)
    names = set(re.findall(r"[A-Za-z][A-Za-z0-9]*", text)) - {"Bl", "E"}
    assert sorted(name for _, name in knows) == sorted(names)  # each name once
    assert len(slot) <= 2 * len(rels.relations)  # one pass builds the blowup table
    before = len(slot)
    assert parse_expr(text, rels) == tree
    assert len(slot) == before  # the table outlives the parse
    with pytest.raises(ParseError, match="no blowup relation declared for"):
        parse_expr("Bl(V0;pt)", rels)
    rels.add_blowup("P1", "W", "pt", "V0", dims={"W": 2})
    assert parse_expr("Bl(V0;pt)", rels).relation_index == 90


def test_parse_nesting_limit_is_a_parse_error():
    limit = kring.PARSE_NESTING_LIMIT
    assert normalize("(" * limit + "pt" + ")" * limit) == lpoly(1)
    with pytest.raises(ParseError) as err:
        parse_expr("(" * 1200 + "pt" + ")" * 1200)
    assert err.value.position == limit  # the first parenthesis past the limit
    assert "nested deeper than" in str(err.value)


def test_expr_to_text_round_trips_the_grammar():
    rels = standard_relations()
    for text in ("P2 + L*Gm", "P1 - (A1 + pt) - (Gm - 2)", "(P1 + 1)*(A2 - Gm)*3",
                 "Bl(P2;pt) - E(P3;pt)*(L + 1)", "2*(P1 - (P1 - pt))"):
        assert expr_to_text(parse_expr(text, rels)) == text


def test_parse_precedence_and_parens():
    assert normalize("2*P1 + 1") == lpoly(3, 2)
    assert normalize("2*(P1 + 1)") == lpoly(4, 2)


# -- normalization ------------------------------------------------------------

def test_normalize_p2_matches_orbit_count_oracle():
    # oracle: the standard complete fan of P2 has one cone of dim 0, three of
    # dim 1, three of dim 2, so the point count is (q-1)^2 + 3(q-1) + 3
    cls = normalize("P2")
    assert cls == lpoly(1, 1, 1)
    for q in (2, 3, 4, 5):
        direct = (q - 1) ** 2 + 3 * (q - 1) + 3
        assert sum(c * q ** e for e, c in cls.lpolynomial()) == direct


def test_normalize_trivial_and_cellular():
    assert normalize("empty + pt*pt") == lpoly(1)
    assert normalize("A3") == L(3)
    assert normalize("P1") == lpoly(1, 1)
    assert normalize("Gm") == lpoly(-1, 1)
    assert normalize("Gm*Gm") == lpoly(1, -2, 1)


def test_normalize_blowup_combination_recovers_p2():
    rels = blowup_rels()
    assert normalize("Bl(P2;pt) + pt - E(P2;pt)", rels) == lpoly(1, 1, 1)


def test_normalize_product_difference():
    # (1+L)^2 - L^2 expanded by hand, and over F_q: (q+1)^2 - q^2 = 2q + 1
    cls = normalize("P1*P1 - A2")
    assert cls == lpoly(1, 2)
    for q in (2, 3, 5):
        assert sum(c * q ** e for e, c in cls.lpolynomial()) == 2 * q + 1


def test_normalize_open_relation_orientation():
    # [X] -> [U] + [complement]: the total space is eliminated
    rels = RelationSet()
    rels.add_open("X", "U", "Z", dims={"X": 2, "U": 2, "Z": 1})
    cls = normalize("X", rels)
    assert cls == KClass.generator("U") + KClass.generator("Z")


def test_normalize_residuals_are_sorted_and_stable():
    rels = RelationSet()
    for name in ("S1", "S2"):
        rels.declare_generator(name, 2)
    a = normalize("S2 + S1 + S2*S1", rels)
    b = normalize("S1 + S2*S1 + S2", rels)
    assert a == b
    assert a.residual() == tuple(sorted(a.residual()))


def test_normalize_mixed_lefschetz_residual_term():
    rels = RelationSet()
    rels.declare_generator("S", 2)
    cls = normalize("L*S", rels)
    assert cls.residual() == ((1, ("S",), 1),)


def test_cyclic_relation_detected():
    # two dense-open declarations chasing each other
    rels = RelationSet()
    rels.add_open("X", "U", "Z", dims={"X": 1, "U": 1, "Z": 0})
    rels.add_open("U", "X", "W", dims={"W": 0})
    with pytest.raises(CyclicRelationError):
        normalize("X", rels)


def test_self_referential_relation_is_vacuous():
    # [X] = [X] + [empty] cancels to nothing and rewrites nothing
    rels = RelationSet()
    rels.add_open("X", "X", "empty", dims={"X": 1})
    assert normalize("X", rels) == KClass.generator("X")


def test_inconsistent_relations_detected():
    rels = RelationSet()
    rels.add_open("X", "U", "pt", dims={"X": 1, "U": 1})
    rels.add_open("X", "U", "Z", dims={"Z": 1})  # forces [Z] = [pt], differs
    with pytest.raises(InconsistentRelationsError):
        normalize("X", rels)


def test_relation_dimension_constraints():
    rels = RelationSet()
    with pytest.raises(InvalidRelationError):
        rels.add_blowup("E", "Y", "C", "X",
                        dims={"E": 3, "Y": 2, "C": 1, "X": 2})  # dim E > dim Y
    with pytest.raises(InvalidRelationError):
        rels.add_open("X", "U", "Z", dims={"X": 1, "U": 2, "Z": 0})


def test_degenerate_square_is_vacuous():
    # E = C, Y = X cancels; the relation rewrites nothing
    rels = RelationSet()
    rels.add_blowup("C", "X", "C", "X", dims={"C": 0, "X": 1})
    assert normalize("X", rels) == KClass.generator("X")


def test_dimension_minus_one_is_empty():
    rels = RelationSet()
    rels.declare_generator("Nothing", -1)
    assert normalize("Nothing + pt", rels) == lpoly(1)


def test_standard_relations_cover_builtin_blowups():
    rels = standard_relations()
    assert normalize("Bl(P2;pt)", rels) == lpoly(1, 2, 1)
    assert normalize("Bl(A2;pt)", rels) == lpoly(0, 1, 1)


# -- the comparison map g ------------------------------------------------------

def test_g_map_on_affine_line():
    assert g_map("A1", CompactificationTable()).kclass == L(1)


def test_g_map_identity_on_compact_expressions():
    comp = CompactificationTable()
    for text in ("P1", "P2*P1 - pt", "P3 + 2*P1*P1"):
        assert g_map(text, comp).kclass == normalize(text)


def test_g_map_two_compactifications_of_a2_agree():
    via_p2 = g_map("A2", CompactificationTable())
    alt = CompactificationTable()
    alt.set("A2", "P1*P1", "1 + 2*L")
    via_quadric = g_map("A2", alt)
    assert via_p2.kclass == via_quadric.kclass == L(2)


def test_g_map_result_is_purely_compact():
    result = g_map("A2 + Gm*L", CompactificationTable())

    def only_compact(expr):
        if isinstance(expr, Gen):
            return kring.builtin_info(expr.name).compact
        if isinstance(expr, (Sum, Prod)):
            return all(only_compact(arg) for arg in expr.args)
        return isinstance(expr, Lit)

    assert only_compact(result.compact_expr)
    assert result.kclass == normalize("A2 + Gm*L")


def test_g_map_missing_entry_and_bad_boundary():
    rels = RelationSet()
    rels.declare_generator("U", 2)
    with pytest.raises(MissingCompactificationError):
        g_map("U", CompactificationTable(), rels)
    rels.declare_generator("Xbar", 2, compact=True)
    rels.declare_generator("B", 2, compact=True)  # boundary as big as Xbar
    table = CompactificationTable()
    table.set("U", "Xbar", "B", rels)
    with pytest.raises(BoundaryDimensionError):
        g_map("U", table, rels)


def test_compactification_lookup_reads_a_builtin_index_as_the_parser_does():
    assert CompactificationTable().lookup("A3") == kring.CompEntry(Gen("P3"), Gen("P2"))
    with pytest.raises(kring.UnknownGeneratorError):
        CompactificationTable().lookup("A" + "9" * (sys.get_int_max_str_digits() + 1))
    with pytest.raises(MissingCompactificationError):
        CompactificationTable().lookup("A0")


def test_a_square_term_is_its_generator_in_every_walker():
    # Bl(P2;pt) is BlP2pt and E(P2;pt) is P1 in the compactness and
    # dimension checks of g_map, as in normalize
    rels = standard_relations()
    rels.declare_generator("U", 2)
    assert expr_dim(parse_expr("E(P2;pt)", rels), rels) == 1
    for compact, boundary in (("BlP2pt", "P1"), ("Bl(P2;pt)", "P1"), ("BlP2pt", "E(P2;pt)")):
        table = CompactificationTable()
        table.set("U", compact, boundary, rels)
        assert g_map("U", table, rels).kclass == lpoly(0, 1, 1)


def test_g_map_rejects_a_boundary_that_names_its_generator():
    # 0*U has dimension -1, so only the generator check stops the expansion
    rels = RelationSet()
    rels.declare_generator("U", 1)
    rels.declare_generator("V", 1)
    table = CompactificationTable()
    table.set("U", "P1", "0*U", rels)
    with pytest.raises(BoundaryDimensionError, match="'U' occurs in the boundary"):
        g_map("U", table, rels)
    table.set("U", "P1", "0*V", rels)
    table.set("V", "P1", "0*U", rels)
    with pytest.raises(BoundaryDimensionError):
        g_map("V", table, rels)
    table.set("V", "P1", "pt", rels)  # a generator may repeat outside its own boundary
    assert g_map("U + V + U*V", table, rels).kclass == normalize("2*P1 - pt + (P1 - pt)*P1")


def test_g_map_presents_a_chain_of_compactifications_without_recursion():
    # U<k> sits in the compact C<k> with boundary U<k-1>, so each
    # presentation nests the one before: 500 levels, more than the
    # interpreter's recursion limit allows at a few frames a level
    rels, table = RelationSet(), CompactificationTable()
    expected = KClass.from_int(1)  # pt, the boundary of U1
    for k in range(1, 501):
        rels.declare_generator(f"C{k}", k, compact=True)
        rels.declare_generator(f"U{k}", k)
        table.set(f"U{k}", f"C{k}", f"U{k - 1}" if k > 1 else "pt", rels)
        expected = KClass.generator(f"C{k}") - expected
    result = g_map("U500", table, rels)
    assert result.kclass == expected
    assert expr_to_text(result.compact_expr).startswith("C500 - (C499 - (C498 - ")


def test_g_map_roundtrip_random_expressions():
    import random

    from kvar.corpus import _random_expression

    rng = random.Random(7)
    comp = CompactificationTable()
    for _ in range(120):
        text = _random_expression(rng)
        assert g_map(text, comp).kclass == normalize(text)


# -- square relations ----------------------------------------------------------

def test_square_relation_blowup_of_p2():
    rels = blowup_rels()
    report = verify_square_relation("P1", "Bl(P2;pt)", "pt", "P2", rels)
    assert report.ok
    assert report.lhs == lpoly(2, 2, 1)


def test_square_relation_degenerate_and_clopen():
    degenerate = verify_square_relation("pt", "P2", "pt", "P2")
    assert degenerate.ok
    # clopen decomposition: (E=empty, Y=X\U, C=U, X) with X = P1 u pt
    rels = RelationSet()
    rels.declare_generator("X", 1, compact=True)
    rels.add_open("X", "U", "Z", dims={"U": 1, "Z": 0})
    clopen = verify_square_relation("empty", "Z", "U", "X", rels)
    assert clopen.ok


def test_square_relation_detects_failure():
    report = verify_square_relation("P1", "P2", "pt", "P2")
    assert not report.ok
    assert report.lhs != report.rhs


# -- ring laws and determinism ---------------------------------------------------

def test_kclass_ring_laws_random():
    import random

    from kvar.corpus import _random_expression

    rng = random.Random(3)
    for _ in range(60):
        a, b = _random_expression(rng), _random_expression(rng)
        na, nb = normalize(a), normalize(b)
        assert normalize(f"({a}) + ({b})") == na + nb
        assert normalize(f"({a}) - ({b})") == na - nb
        assert normalize(f"({a}) * ({b})") == na * nb


def test_normalize_is_deterministic():
    rels = blowup_rels()
    text = "Bl(P2;pt)*Gm - 3*(P1 + A2)"
    first = normalize(text, rels)
    again = normalize(text, blowup_rels())
    assert first == again
    assert hash(first) == hash(again)


# -- linear, recursion-free rewriting -------------------------------------------

def point_blowup_tower(levels):
    """P2 <- X1 <- ... <- X<levels>, each blowing up a point (E = P1)."""
    rels, below = RelationSet(), "P2"
    for k in range(1, levels + 1):
        rels.add_blowup("P1", f"X{k}", "pt", below,
                        dims={f"X{k}": 2}, compact={f"X{k}": True})
        below = f"X{k}"
    return rels


def test_deep_blowup_tower_resolves_in_linear_time():
    rels = point_blowup_tower(1200)
    started = time.perf_counter()
    assert normalize("X1200", rels) == lpoly(1, 1201, 1)
    assert time.perf_counter() - started < 1.0


def test_a_later_candidate_pays_its_step_once_the_one_before_is_resolved():
    # entering X<k> costs a step, and its second candidate one more once
    # the first is resolved: the 1,000 entries are paid from X1000 down, then
    # the second candidates from X1 up, so the last step is X1000's
    def tower():
        rels = point_blowup_tower(1000)
        for rel in list(rels.relations):
            rels.add_relation(rel.kind, dict(rel.slots))
        return rels

    started = time.perf_counter()
    assert normalize("X1000", tower(), budget=2000) == lpoly(1, 1001, 1)
    assert time.perf_counter() - started < 1.0
    with pytest.raises(RewriteBudgetError, match=r"^rewrite budget of 1999 exceeded while "
                       "eliminating 'X1000'; "):
        normalize("X1000", tower(), budget=1999)


def test_long_sums_walk_without_recursion():
    text = " + ".join(["pt"] * 2000) + " - A1"
    tree = parse_expr(text)
    assert normalize(tree) == lpoly(2000, -1)
    assert expr_to_text(tree) == text
    assert expr_dim(tree, kring.EMPTY_RELATIONS) == 1
    mapped = g_map(tree, CompactificationTable())
    assert mapped.kclass == lpoly(2000, -1)
    assert expr_to_text(mapped.compact_expr) == " + ".join(["pt"] * 2000) + " - (P1 - pt)"
    right_deep = Lit(0)
    for _ in range(3000):
        right_deep = Sum((Gen("P1"), right_deep), (1, -1))
    assert normalize(right_deep) == KClass.zero()
    assert g_map(right_deep, CompactificationTable()).kclass == KClass.zero()
    assert expr_to_text(right_deep).count("(") == 2999


def test_rewrite_index_follows_later_declarations():
    rels = RelationSet()
    rels.declare_generator("X", 1, compact=True)
    assert normalize("X", rels) == KClass.generator("X")
    rels.add_open("X", "A1", "pt")                  # a relation after a resolve
    assert normalize("X", rels) == lpoly(1, 1)
    rels.declare_generator("W", 2)                  # a generator after a resolve
    assert normalize("W + X", rels) == KClass.generator("W") + lpoly(1, 1)
    rels.add_open("W", "A2", "X")
    assert normalize("W", rels) == lpoly(1, 1, 1)


def test_relation_errors_keep_their_messages():
    cyclic = RelationSet()
    cyclic.add_open("X", "U", "Z", dims={"X": 1, "U": 1, "Z": 0})
    cyclic.add_open("U", "X", "W", dims={"W": 0})
    with pytest.raises(CyclicRelationError, match=r"^cyclic rewriting through 'X': "
                       "the relation set is not well founded$"):
        normalize("X", cyclic)

    with pytest.raises(RewriteBudgetError, match=r"^rewrite budget of 5 exceeded while "
                       "eliminating 'X5'; the relation set is likely cyclic$"):
        normalize("X10", point_blowup_tower(10), budget=5)

    clash = RelationSet()
    clash.add_open("X", "U", "pt", dims={"X": 1, "U": 1})
    clash.add_open("X", "U", "Z", dims={"Z": 1})
    with pytest.raises(InconsistentRelationsError, match=r"^relations 0 and 1 force different "
                       r"canonical forms for 'X': 1 \+ U vs U \+ Z$"):
        normalize("X", clash)

    doubled = RelationSet()
    doubled.add_blowup("W", "P1", "pt", "W", dims={"W": 1})  # [W] twice: accepted here
    assert normalize("P1 + 1", doubled) == lpoly(2, 1)        # builtins need no orientation
    for _ in range(2):  # the error stays lazy and repeats
        with pytest.raises(InvalidRelationError, match=r"^relation 0 cannot be oriented: "
                           "coefficient 2 on its slot 'W'$"):
            normalize("W", doubled)


def test_relation_file_loader_extends_a_set_and_rejects_bad_records():
    records = [{"kind": "generator", "name": "S", "dim": 2, "compact": True},
               {"kind": "open", "slots": {"X": "S", "U": "A2", "complement": "P1"}}]
    rels = RelationSet.from_json(records, into=standard_relations())
    assert normalize("S - Bl(P2;pt)", rels) == lpoly(0, -1)
    (rel,) = RelationSet.from_json(records).relations
    assert (rel.index, rel.kind, rel.slot("X"), rel.slot("U")) == (0, "open", "S", "A2")
    for bad, message in (
            ({"kind": "open"}, "a relation file is a JSON array of records"),
            (["S"], "relation record 0 is not an object"),
            ([{"kind": "open", "dims": {}}], "relation record 0 has no field 'slots'"),
            ([{"kind": "generator", "name": "S", "dim": "2"}],
             "relation record 0: field 'dim' must be an integer"),
            ([{"kind": "open", "slots": {"X": "P2", "U": "A2", "complement": 1}}],
             "relation record 0: field 'slots' must be an object of strings"),
            ([{"kind": "open", "slots": {"X": "Q", "U": "A2", "complement": "P1"},
               "dims": {"Q": True}}],
             "relation record 0: field 'dims' must be an object of integers")):
        with pytest.raises(InvalidRelationError) as err:
            RelationSet.from_json(bad)
        assert str(err.value) == message


def test_the_builtin_table_answers_each_name_once():
    assert kring.builtin_info("P7") == kring.GenInfo("P7", 7, True)
    assert kring.builtin_info("P7") is kring.builtin_info("P7")


def test_each_pair_of_terms_of_a_product_costs_one_budget_step():
    # (1 + L)(1 + L) is 2 * 2 pairs, and the result's 3 terms times the
    # third factor's 2 are 6 more
    assert normalize("P1*P1*P1", budget=10) == normalize("P1*P1*P1")
    with pytest.raises(RewriteBudgetError, match="product of 3 by 2 terms"):
        normalize("P1*P1*P1", budget=9)
    with pytest.raises(RewriteBudgetError, match="product of 2 by 2 terms"):
        normalize("P1*P1*P1", budget=3)


def test_p_leaves_are_counted_before_any_class_is_built(monkeypatch):
    monkeypatch.setattr(kring, "REWRITE_BUDGET", 1000)
    built = _counted(monkeypatch, kring, "builtin_class")
    for text in ("P999*P999", "P999 + P999 + P999 + P999 + P999", "P999*(P999 + 1)"):
        with pytest.raises(RewriteBudgetError, match=r"^the P<n> leaves up to P999 have 2000 "
                           "terms, past the budget of 1000$"):
            normalize(text, RelationSet())
    # every leaf of the tree is counted before any is built, the P999
    # nested in the last text's sum too
    assert built == []
    with pytest.raises(RewriteBudgetError, match=r"^P1000 has 1001 terms, past the budget"):
        normalize("P1000", RelationSet())
    assert normalize("P999", RelationSet()) == lpoly(*[1] * 1000)  # P<n> alone up to the budget
    assert normalize("P1*P1*P1", RelationSet(), budget=10) == lpoly(1, 3, 3, 1)


def test_a_square_term_counts_toward_the_p_leaves_as_its_generator(tmp_path, capsys):
    # E(X;pt) is P999999; both texts fail before a class is built
    records = [{"kind": "smooth_blowup", "slots": {"E": "P999999", "Y": "Y", "C": "pt", "X": "X"},
                "dims": {"X": 10 ** 6, "Y": 10 ** 6}}]
    path = tmp_path / "rels.json"
    path.write_text(json.dumps(records))
    message = ("the P<n> leaves up to P999999 have 2000000 terms, "
               "past the budget of 1000000")
    for text in ("E(X;pt)*E(X;pt)", "P999999*P999999"):
        started = time.perf_counter()
        with pytest.raises(RewriteBudgetError) as err:
            normalize(text, RelationSet.from_json(records))
        assert str(err.value) == message
        assert cli.main(["eval", text, "--relations", str(path), "--format", "json"]) == 1
        records_out = json.loads(capsys.readouterr().out)["records"]
        assert [(r["id"], r["status"], r["note"]) for r in records_out] == [
            ("expression", "fail", message)]
        assert time.perf_counter() - started < 0.5


def test_g_map_presents_each_generator_once_under_one_budget(monkeypatch):
    monkeypatch.setattr(kring, "REWRITE_BUDGET", 1000)
    # the presentation P3 - P2 of A3 is built and counted once, 7 terms, not
    # once per leaf (1,400 terms)
    result = g_map(" + ".join(["A3"] * 200), CompactificationTable())
    assert result.kclass == L(3).scale(200)
    assert expr_to_text(result.compact_expr) == " + ".join(["P3 - P2"] * 200)
    # the given tree's own P<n> leaves are counted before any class is built
    built = _counted(monkeypatch, kring, "builtin_class")
    with pytest.raises(RewriteBudgetError, match=r"^the P<n> leaves up to P999 have 2000 "
                       "terms, past the budget of 1000$"):
        g_map("A3 + P999*P999", CompactificationTable())
    assert built == []
