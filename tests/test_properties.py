"""Property tests for the algebraic invariants (hypothesis-driven)."""

import contextlib
import io
import sys

from hypothesis import given, settings, strategies as st

from kvar import cli
from kvar.kring import (CompactificationTable, Expr, KClass, Lit, ParseError, Sum, expr_to_text,
                        g_map, normalize, parse_expr, standard_relations)
from kvar.measures import MeasureSpec, apply_measure

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
