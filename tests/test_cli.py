"""The batch front door: eval, fan, check; determinism and exit codes."""

import copy
import dataclasses
import hashlib
import json
import pathlib
import subprocess
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from kvar import cli, corpus, toric
from kvar.cli import (
    MAX_DEPTH,
    InputError,
    Record,
    Report,
    RunConfig,
    _corpus_measures,
    build_parser,
    config_from_args,
    main,
    run,
    run_corpus_checks,
    _cover_monotone,
)
from kvar.csupport import MeasureOnCompacts
from kvar.measures import MeasureSpec, MeasureValue
from kvar.spansite import (
    DistinguishedSquare,
    SiteObject,
    SitePresentation,
    SpanMorphism,
    ToricObject,
    cover_height,
    enumerate_simple_covers,
    identity_cover,
    identity_span,
    localization_square,
    star_subdivision_square,
    zero_span,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run_cli(*argv):
    args = build_parser().parse_args(list(argv))
    config = config_from_args(args)
    return run(config)


def test_eval_p2_minus_pt():
    report = run_cli("eval", "P2 - pt", "--measure", "euler")
    assert report.ok()
    by_id = {r.id: r for r in report.records}
    assert by_id["class"].lhs == "L + L^2"
    assert by_id["euler"].lhs.as_int() == 2


def test_eval_empty_all_measures_zero():
    report = run_cli("eval", "empty", "--measure", "euler", "--measure", "e",
                     "--measure", "poincare", "--measure", "count:3")
    assert report.ok()
    for r in report.records:
        if r.kind == "measure":
            assert r.lhs.as_int() == 0


def test_eval_blowup_with_e_poly():
    report = run_cli("eval", "Bl(P2;pt)", "--measure", "e")
    by_id = {r.id: r for r in report.records}
    assert str(by_id["e_poly"].lhs) == "1 + 2*(uv) + (uv)^2"
    assert by_id["weights"].kind == "weight_table"


def test_eval_parse_error_is_reported_not_raised():
    report = run_cli("eval", "P2 + noSuch")
    assert not report.ok()
    assert "unknown generator" in report.records[0].note


def test_eval_of_an_over_long_literal_is_a_failing_record(capsys):
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    assert main(["eval", f"P1 + {digits}", "--format", "json"]) == 1
    record = json.loads(capsys.readouterr().out)["records"][0]
    assert record["status"] == "fail"
    assert record["note"] == "integer literal too long (at position 5)"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_eval_of_a_class_too_long_to_print_is_a_failing_record(capsys, fmt):
    # the literal fits under the digit limit; its square does not
    digits = "9" * (sys.get_int_max_str_digits() * 2 // 3)
    assert main(["eval", f"{digits}*{digits}", "--format", fmt]) == 1
    out = capsys.readouterr().out
    note = (f"the class has a coefficient longer than the interpreter's "
            f"{sys.get_int_max_str_digits()}-digit int-string limit")
    if fmt == "json":
        assert [(r["id"], r["status"], r["note"]) for r in json.loads(out)["records"]] == [
            ("class", "fail", note)]
    else:
        assert f"FAIL    eval               class  [{note}]" in out
    # a class that prints whose measure value does not
    assert main(["eval", f"{digits}*A{len(digits)}", "--measure", "count:10",
                 "--measure", "euler", "--format", "json"]) == 1
    records = json.loads(capsys.readouterr().out)["records"]
    assert [(r["id"], r["status"]) for r in records] == [
        ("class", "pass"), ("point_count(10)", "fail"), ("euler", "pass")]
    assert "the value has a coefficient longer than" in records[1]["note"]


def test_eval_of_a_high_lefschetz_power_ends(capsys):
    # the e-polynomial of A50000 holds one running power of (uv), not all 50,001
    assert main(["eval", "A50000", "--measure", "e"]) == 0
    assert "(uv)^50000" in capsys.readouterr().out


def test_eval_of_a_projective_space_past_the_term_budget_is_a_failing_record(capsys):
    # P<n> has n + 1 terms; P99999999 would ask for 10^8 of them
    assert main(["eval", "P99999999", "--measure", "e", "--format", "json"]) == 1
    records = json.loads(capsys.readouterr().out)["records"]
    assert [(r["id"], r["status"], r["note"]) for r in records] == [
        ("expression", "fail", "P99999999 has 100000000 terms, past the budget of 1000000")]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_eval_of_a_builtin_index_past_the_digit_limit_is_a_parse_error(capsys, fmt):
    name = "A" + "9" * (sys.get_int_max_str_digits() + 1)
    assert main(["eval", f"P1 + {name}", "--format", fmt]) == 1
    out = capsys.readouterr().out
    note = (f"A<n> index longer than the interpreter's {sys.get_int_max_str_digits()}"
            f"-digit int-string limit (at position 5)")
    if fmt == "json":
        assert [(r["id"], r["status"], r["note"]) for r in json.loads(out)["records"]] == [
            ("expression", "fail", note)]
    else:
        assert f"[{note}]" in out


def test_eval_of_a_product_past_the_rewrite_budget_ends_soon(capsys):
    # multiplying out 2001 by 2001 terms would take seconds
    started = time.process_time()
    assert main(["eval", "P2000*P2000", "--format", "json"]) == 1
    assert time.process_time() - started < 1.0
    records = json.loads(capsys.readouterr().out)["records"]
    assert [(r["id"], r["status"], r["note"]) for r in records] == [
        ("expression", "fail", "rewrite budget of 1000000 exceeded while multiplying "
         "out a product of 2001 by 2001 terms")]


@pytest.mark.parametrize("text", ["P999999*P999999",
                                  "P999999 + P999999 + P999999 + P999999 + P999999",
                                  "P999999*(P999999 + 1)"])
def test_eval_of_p_leaves_past_the_term_budget_fails_before_building_them(capsys, text):
    # each leaf is 10^6 terms, the whole budget, and took about 1 s to build
    started = time.process_time()
    assert main(["eval", text, "--format", "json"]) == 1
    assert time.process_time() - started < 1.0
    records = json.loads(capsys.readouterr().out)["records"]
    assert [(r["id"], r["status"], r["note"]) for r in records] == [
        ("expression", "fail", "the P<n> leaves up to P999999 have 2000000 terms, "
         "past the budget of 1000000")]


def test_eval_relation_file_extends_the_standard_relations(tmp_path):
    path = tmp_path / "rels.json"
    path.write_text(json.dumps([
        {"kind": "generator", "name": "S", "dim": 2, "compact": True},
        {"kind": "open", "slots": {"X": "S", "U": "A2", "complement": "P1"}}]))
    report = run_cli("eval", "S - Bl(P2;pt)", "--relations", str(path), "--measure", "euler")
    assert report.ok()
    assert {r.id: r for r in report.records}["class"].lhs == "-L"


def test_fan_command(tmp_path):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"rank": 2, "rays": [[1, 0], [0, 1]],
                                "maximal_cones": [[0, 1]]}))
    report = run_cli("fan", str(path), "--props", "--class", "--complete")
    assert report.ok()
    by_id = {r.id: r for r in report.records}
    assert by_id["props"].lhs == {"complete": False, "smooth": True, "dimension": 2}
    assert by_id["class"].lhs == "L^2"
    completed = by_id["complete"].lhs
    assert sorted(completed["rays"]) == [[-1, -1], [0, 1], [1, 0]]


def test_the_fan_condition_of_an_orthant_is_checked_on_its_maximal_cones(tmp_path, capsys):
    # A^6 is one smooth cone: its 64 faces make 2,016 pairs, its maximal cones none
    path = tmp_path / "orthant.json"
    path.write_text(json.dumps({"rank": 6, "rays": [[int(i == j) for j in range(6)]
                                                    for i in range(6)],
                                "maximal_cones": [list(range(6))]}))
    started = time.perf_counter()
    assert main(["fan", str(path), "--props", "--format", "json"]) == 0
    assert time.perf_counter() - started < 1.0
    (record,) = json.loads(capsys.readouterr().out)["records"]
    assert record["lhs"] == {"complete": False, "smooth": True, "dimension": 6}


def test_fan_complete_past_rank_two_is_the_automatic_completion(tmp_path, capsys):
    # a rank-3 torus completes to (P1)^3 and a complete fan to itself; any
    # other rank-3 fan has no automatic completion and fails its record
    p1 = toric.builtin_fan("P1")
    p1_cubed = p1.product(p1).product(p1)
    fans = {"torus": {"rank": 3, "rays": [], "maximal_cones": [], "dense_torus": True},
            "one_ray": {"rank": 3, "rays": [[1, 0, 0]], "maximal_cones": [[0]]},
            "p1_cubed": p1_cubed.to_json()}
    outcomes = {}
    for name, data in fans.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        code = main(["fan", str(path), "--complete", "--format", "json"])
        (record,) = json.loads(capsys.readouterr().out)["records"]
        outcomes[name] = code, record["status"], record["lhs"], record["note"]
    assert outcomes["torus"] == (0, "pass", p1_cubed.to_json(), "")
    assert outcomes["p1_cubed"] == (0, "pass", p1_cubed.to_json(), "")
    assert outcomes["one_ray"] == (1, "fail", None, "no automatic completion of a "
                                   "rank-3 fan; pass an explicit choice")


def test_text_report_prints_rhs_only_when_there_is_one(tmp_path):
    text = run_cli("eval", "P2 - pt", "--measure", "euler").to_text()
    assert "lhs=L + L^2  (" in text and "rhs=" not in text
    suite = run_cli("check", "--suite", str(FIXTURES / "perturbed_suite.json")).to_text()
    assert "rhs=None" not in suite and " rhs=" in suite
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"rank": 1, "rays": [[1]], "maximal_cones": [[0]]}))
    with pytest.raises(InputError, match="unknown fan operation"):
        run(RunConfig(command="fan", fan_path=str(path), fan_ops=["class", "volume"]))


def test_check_suite_perturbed_fixture():
    report = run_cli("check", "--suite", str(FIXTURES / "perturbed_suite.json"))
    assert not report.ok()
    failing = {r.kind for r in report.records if r.status == "fail"}
    passing = {r.kind for r in report.records if r.status == "pass"}
    assert failing == {"independence", "blowup_descent"}
    assert {"additivity", "mayer_vietoris", "kunneth"} <= passing


def test_an_empty_perturbation_takes_the_documented_defaults():
    # {} perturbs P2 by 1, as the fixture spells out; null perturbs nothing
    fixture = json.loads((FIXTURES / "perturbed_suite.json").read_text())
    check = next(c for c in fixture["checks"] if c["kind"] == "blowup_descent")
    assert check["measure"]["perturb"] == {"target": "P2", "delta": 1}
    results = {}
    for name, perturb in (("spelled", check["measure"]["perturb"]), ("empty", {}),
                          ("null", None)):
        report = Report({})
        measure = dict(check["measure"], perturb=perturb)
        cli.run_suite(report, {"checks": [dict(check, measure=measure)]})
        [rec] = report.records
        results[name] = (rec.status, rec.lhs, rec.rhs, rec.note)
    assert results["empty"] == results["spelled"]
    assert results["empty"][0] == "fail" and results["null"][0] == "pass"


def test_check_empty_suite(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text('{"checks": []}')
    report = run_cli("check", "--suite", str(path))
    assert report.ok()
    assert report.records == []
    assert report.counts == {"pass": 0, "fail": 0, "skipped": 0}


def test_check_suite_unknown_kind_is_skipped(tmp_path, cli_child_env):
    path = tmp_path / "suite.json"
    path.write_text('{"checks": [{"kind": "no_such_check"}]}')
    out = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-m", "kvar.cli", "check", "--suite", str(path),
                           "--format", "json", "--out", str(out)], env=cli_child_env("0"))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert [(r["status"], r["note"]) for r in payload["records"]] == [("skipped", "unknown kind")]
    assert payload["summary"] == {"pass": 0, "fail": 0, "skipped": 1}


def test_check_suite_independence_on_rank_one_objects(tmp_path, cli_child_env):
    # a rank-1 completion has no 2-cone to subdivide, so the open has one
    # completion only: a check of it against itself could not fail
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"checks": [
        {"kind": "independence", "object": "A1"},
        {"kind": "independence", "object": "P1", "window": [[0]]},
        {"kind": "independence", "object": "Gm"}]}))
    out = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-m", "kvar.cli", "check", "--suite", str(path),
                           "--format", "json", "--out", str(out)], env=cli_child_env("0"))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert [(r["id"], r["status"]) for r in payload["records"]] == [
        ("independence[0]", "skipped"), ("independence[1]", "skipped"),
        ("independence[2]", "skipped")]


def test_an_independence_check_with_one_completion_is_skipped_whatever_the_measure():
    # comparing a completion with itself passed even under a perturbed
    # measure
    perturbed = {"selector": "euler", "perturb": {"target": "P1", "delta": 5}}
    report = Report({})
    cli.run_suite(report, {"checks": [
        {"kind": "independence", "object": "P1", "window": "torus", "measure": perturbed},
        {"kind": "independence", "object": "P2", "window": [[0, 1], [1, 2], [2, 0]],
         "measure": dict(perturbed, perturb={"target": "P2", "delta": 5})}]})
    assert [(r.status, r.note) for r in report.records] == [
        ("skipped", "the open has no second completion, so the check cannot fail")] * 2


def test_suite_fixture_report_is_pinned(tmp_path, cli_child_env):
    # the fixture's fail records are the evidence that descent violations
    # are detected; the header is left out, as it holds the suite path
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "kvar.cli", "check", "--suite",
         str(FIXTURES / "perturbed_suite.json"), "--format", "json", "--out", str(out)],
        env=cli_child_env("0"))
    assert proc.returncode == 1
    payload = json.loads(out.read_text())
    body = json.dumps({"records": payload["records"], "summary": payload["summary"]},
                      sort_keys=True)
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "310d4b75f3acae559784134d97a3132a8b6339dce67b44813f0579c703d3a673")


def test_every_kind_suite_passes_and_its_report_is_pinned(tmp_path, cli_child_env):
    # one check of each kind: the ten a suite can name pass, and c_complete
    # and cover_monotone are skipped with a note that says why
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "kvar.cli", "check", "--suite",
         str(FIXTURES / "every_kind_suite.json"), "--format", "json", "--out", str(out)],
        env=cli_child_env("0"))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert [r["kind"] for r in payload["records"]] == list(cli.CHECKS)
    assert [(r["kind"], r["note"]) for r in payload["records"] if r["status"] != "pass"] == [
        ("c_complete", "needs a span, which a suite cannot name yet"),
        ("cover_monotone", "needs a site, which a suite cannot name yet")]
    body = json.dumps({"records": payload["records"], "summary": payload["summary"]},
                      sort_keys=True)
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "8405e88d54056ecbabdb4a33aa5e0fa1960c6fa77f00762da14be5acb0e0f5e0")


def _table_cases():
    """The every-kind fixture's checks as (kind, arguments) for ``cli.CHECKS``,
    built here rather than read from the suite."""
    def obj(name):
        return ToricObject(name, toric.builtin_fan(name))

    def measure(name):
        return MeasureOnCompacts(MeasureSpec.parse(name))

    def window(x, *cones):
        rays = x.fan.rays
        return frozenset(f for ix in cones
                         for f in toric.Cone(x.fan.rank, [rays[j] for j in ix]).faces())
    p1xp1, p2 = obj("P1xP1"), obj("P2")
    u_obj = ToricObject("U", p2.fan.subfan(window(p2, [0, 1])))
    square = star_subdivision_square(p2, (1, 1))
    return [
        ("additivity", (measure("euler"), p1xp1, window(p1xp1, [0, 1]))),
        ("independence", (measure("e"), u_obj, toric.complete_surface(u_obj.fan),
                          toric.alternative_completion(u_obj.fan))),
        ("square_relation", (square,)),
        ("blowup_descent", (measure("e"), square)),
        ("mayer_vietoris", (measure("e_poly"), p2, window(p2, [0, 1], [1, 2]),
                            window(p2, [1, 2], [2, 0]))),
        ("kunneth", (measure("e"), obj("P1"), obj("A1"))),
        ("dim_compatible", (star_subdivision_square(p1xp1, (1, 1)),)),
        ("square_valid", (square,)),
        ("purity", (measure("e_poly"), p1xp1)),
        ("point_count_oracle", (toric.builtin_fan("Hirzebruch(2)"),)),
    ]


def test_a_suite_check_is_its_table_check_on_the_same_arguments():
    report = Report({})
    cli.run_suite(report, json.loads((FIXTURES / "every_kind_suite.json").read_text()))
    suite = {r.kind: (r.status, r.lhs, r.rhs, r.note) for r in report.records}
    cases = _table_cases()
    assert suite.keys() - {kind for kind, _ in cases} == {"c_complete", "cover_monotone"}
    for kind, args in cases:
        assert tuple(cli.CHECKS[kind](*args)) == suite[kind], kind


def test_a_check_that_raises_fails_its_own_record(monkeypatch):
    def broken(*args):
        raise ValueError("planted")
    monkeypatch.setitem(cli.CHECKS, "purity", broken)
    fan = toric.builtin_fan("P2")
    cases = [("a", "purity", (fan,)), ("b", "point_count_oracle", (fan,)),
             ("c", "purity", (fan,))]
    report = Report({})
    cli.run_checks(report, cases)
    assert [(r.id, r.status, r.note) for r in report.records] == [
        ("a", "fail", "error: planted"), ("b", "pass", "q in {2,3,4,5}"),
        ("c", "fail", "error: planted")]


def test_check_corpus_small():
    report = run_cli("check", "--corpus-seed", "3", "--corpus-size", "4",
                     "--measure", "euler")
    assert report.ok()
    kinds = {r.kind for r in report.records}
    assert {"additivity", "independence", "square_relation", "blowup_descent",
            "mayer_vietoris", "kunneth", "c_complete", "dim_compatible",
            "square_valid", "purity", "point_count_oracle",
            "cover_monotone"} <= kinds


def _one_error_line(argv, out, err):
    assert out == "", argv
    assert err.startswith("kvar: error: "), argv
    assert err.count("\n") == 1 and "Traceback" not in err, argv


def test_exit_code_contract(tmp_path, capsys):
    env_cmd = [sys.executable, "-m", "kvar.cli", "check",
               "--suite", str(FIXTURES / "perturbed_suite.json")]
    proc = subprocess.run(env_cmd, capture_output=True, text=True)
    # exit 1 from a failed check, not from a child that crashed or could
    # not import kvar
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "ModuleNotFoundError" not in proc.stderr
    assert proc.stdout.endswith("summary: 4 pass, 2 fail, 0 skipped\n")
    ok_cmd = [sys.executable, "-m", "kvar.cli", "eval", "P1"]
    assert subprocess.run(ok_cmd, capture_output=True).returncode == 0
    # input errors: return 2 with one line on stderr, never a traceback
    no_rank = tmp_path / "no_rank.json"
    no_rank.write_text('{"rays": [[1, 0]], "maximal_cones": [[0]]}')
    redundant = tmp_path / "redundant.json"  # A2 with the generator (1, 1), not a ray
    redundant.write_text('{"rank": 2, "rays": [[1, 0], [1, 1], [0, 1]], '
                         '"maximal_cones": [[0, 1, 2]]}')
    too_high = tmp_path / "too_high.json"  # a dense torus past the rank bound
    too_high.write_text('{"rank": %d, "rays": [], "maximal_cones": [], "dense_torus": true}'
                        % (toric.MAX_FAN_FILE_RANK + 1))
    no_slots = tmp_path / "no_slots.json"
    no_slots.write_text('[{"kind": "open", "dims": {"X": 1}}]')
    no_kind = tmp_path / "no_kind.json"
    no_kind.write_text('{"checks": [{"object": "P2"}]}')
    list_suite = tmp_path / "list_suite.json"
    list_suite.write_text('[]')
    deep_suite = tmp_path / "deep_suite.json"  # too deeply nested for json to decode
    deep_suite.write_text('{"checks": %s}' % ("[" * 100_000 + "]" * 100_000))
    bad_measure = tmp_path / "bad_measure.json"
    bad_measure.write_text('{"checks": [{"kind": "kunneth", "x": "P1", "y": "P1", "measure": 5}]}')
    # a Hirzebruch name without an integer, as an object and as a perturbation
    # target, and a Kunneth check of a perturbed (not multiplicative) measure
    bad_names = []
    for j, check in enumerate((
            '"kind": "additivity", "object": "Hirzebruch(x)", "window": "torus"',
            '"kind": "blowup_descent", "object": "P2", "ray": [1, 1], "measure": '
            '{"selector": "euler", "perturb": {"target": "Hirzebruch()", "delta": 1}}',
            '"kind": "kunneth", "x": "P1", "y": "P1", "measure": '
            '{"selector": "euler", "perturb": {"target": "P2", "delta": 1}}')):
        bad_names.append(tmp_path / f"bad_name{j}.json")
        bad_names[-1].write_text('{"checks": [{%s}]}' % check)
    bad_deltas = []
    for j, delta in enumerate(('"x"', "[1]", "2.5", "true")):
        bad_deltas.append(tmp_path / f"bad_delta{j}.json")
        bad_deltas[-1].write_text(
            '{"checks": [{"kind": "blowup_descent", "object": "P2", "ray": [1, 1], '
            '"measure": {"selector": "euler", "perturb": {"target": "P2", "delta": %s}}}]}'
            % delta)
    # a perturbation that is neither null nor an object
    bad_perturbs = []
    for j, perturb in enumerate(("[]", "false", "0", '""')):
        bad_perturbs.append(tmp_path / f"bad_perturb{j}.json")
        bad_perturbs[-1].write_text(
            '{"checks": [{"kind": "blowup_descent", "object": "P2", "ray": [1, 1], '
            '"measure": {"selector": "euler", "perturb": %s}}]}' % perturb)
    # a malformed field of a known kind: an object that is not a builtin
    # fan, a ray that is not a list of integers of the object's rank (or
    # not a primitive ray inside a cone), a window that is not "torus" or
    # lists of ray indices spanning cones, Mayer-Vietoris windows that do
    # not cover
    bad_fields = []
    for j, check in enumerate((
            '"kind": "blowup_descent", "object": "P2", "ray": "xy"',
            '"kind": "blowup_descent", "object": "P2", "ray": [1.7, 1.2]',
            '"kind": "blowup_descent", "object": "P2", "ray": ["1", "1"]',
            '"kind": "blowup_descent", "object": "P2", "ray": [2, 2]',
            '"kind": "additivity", "object": "NoSuch", "window": "torus"',
            '"kind": "additivity", "object": "P1", "window": 5',
            '"kind": "additivity", "object": "P1", "window": [[0.9, 1]]',
            '"kind": "additivity", "object": "Hirzebruch(1)", "window": [[0, 3]]',
            '"kind": "kunneth", "x": "P1"',
            '"kind": "mayer_vietoris", "object": "P2", "u": [[0]], "v": [[9]]',
            '"kind": "mayer_vietoris", "object": "P1", "u": [[0]], "v": [[0]]',
            # the square kinds read "object" and "ray" as blowup_descent does;
            # purity reads a smooth complete object, point_count_oracle any
            '"kind": "square_valid", "object": "P2"',
            '"kind": "square_valid", "object": "P2", "ray": [1.5, 1]',
            '"kind": "square_relation", "ray": [1, 1]',
            '"kind": "dim_compatible", "object": "P1xP1", "ray": [1, 1, 1]',
            '"kind": "purity", "object": "Hirzebruch(x)"',
            '"kind": "purity", "object": "A2"',
            '"kind": "point_count_oracle", "object": 5',
            '"kind": "point_count_oracle", "object": "NoSuch"')):
        bad_fields.append(tmp_path / f"bad_field{j}.json")
        bad_fields[-1].write_text('{"checks": [{%s}]}' % check)
    for argv in (["check", "--suite", str(tmp_path / "nonexistent.json")],
                 *(["check", "--suite", str(path)]
                   for path in bad_deltas + bad_perturbs + bad_fields + bad_names),
                 ["check", "--suite", str(no_kind)],
                 ["check", "--suite", str(list_suite)],
                 ["check", "--suite", str(deep_suite)],
                 ["check", "--suite", str(bad_measure)],
                 ["check", "--corpus-seed", "1", "--corpus-size", "2", "--measure", "chi2"],
                 ["check", "--corpus-seed", "1", "--corpus-size", "2", "--measure", "count:x"],
                 ["check", "--corpus-seed", "1", "--corpus-size", "-3"],
                 ["check", "--corpus-seed", "1", "--corpus-size", "2", "--depth", "-1"],
                 ["check", "--corpus-seed", "1", "--corpus-size", "2",
                  "--depth", str(MAX_DEPTH + 1)],
                 ["check"],
                 ["fan", str(no_rank)],
                 ["fan", str(redundant), "--props"],
                 ["fan", str(too_high), "--props", "--class"],
                 ["eval", "P1", "--relations", str(no_slots)]):
        assert main(argv) == 2, argv
        _one_error_line(argv, *capsys.readouterr())
    # and the exit status of a fresh process
    for argv in (["check", "--suite", str(deep_suite)],
                 ["check", "--suite", str(tmp_path / "nonexistent.json")],
                 ["check"]):
        proc = subprocess.run([sys.executable, "-m", "kvar.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2, argv
        _one_error_line(argv, proc.stdout, proc.stderr)


def test_json_reports_byte_identical(tmp_path, cli_child_env):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for out, seed_env in ((out_a, "0"), (out_b, "123")):
        subprocess.run(
            [sys.executable, "-m", "kvar.cli", "check", "--corpus-seed", "2",
             "--corpus-size", "4", "--format", "json", "--out", str(out)],
            check=True, env=cli_child_env(seed_env))
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    assert payload["summary"]["fail"] == 0
    assert all(r["timing"] is None for r in payload["records"])


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-10**60, max_value=10**60)
    | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
measure_values = st.builds(
    MeasureValue, st.lists(st.integers(min_value=-10**30, max_value=10**30), max_size=4),
    st.sampled_from([None, "uv", "t", "q"]))


@st.composite
def record_lists(draw):
    """Records whose lhs and rhs come from one small pool of objects, so
    that records share them while their notes or statuses differ, as
    records answered from a battery's table do.  The pool holds equal
    values in distinct objects too."""
    pool = draw(st.lists(json_values | measure_values, min_size=1, max_size=3))
    pool += [copy.deepcopy(value) for value in pool]
    side = st.sampled_from(pool)
    return draw(st.lists(st.builds(
        Record, st.text(), st.text(), st.sampled_from(["pass", "fail", "skipped"]),
        side, side, st.sampled_from(["", "note"]) | st.text()), max_size=6))


def _dumped(report: Report) -> str:
    def side(value):
        return value.to_json() if isinstance(value, MeasureValue) else value
    payload = {
        "header": report.header,
        "records": [{"id": r.id, "kind": r.kind, "status": r.status, "lhs": side(r.lhs),
                     "rhs": side(r.rhs), "note": r.note, "trace": [], "timing": None}
                    for r in report.records],
        "summary": report.counts,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@given(st.dictionaries(st.text(), json_values, max_size=4), record_lists())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_the_json_writer_writes_what_json_dumps_writes(header, recs):
    # text draws non-ASCII, quotes and control characters; an empty record
    # list too.  Records sharing an lhs or rhs object may differ in the rest.
    report = Report(header, recs)
    assert report.to_json_text() == _dumped(report)


def test_json_to_stdout_is_the_json_out_file(tmp_path, capsys):
    argv = ["check", "--corpus-seed", "1", "--corpus-size", "10", "--format", "json"]
    assert main(argv) == 0
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_check_reads_measure_names_like_eval():
    phis = _corpus_measures(["chi", "e", "poincare", "count:3"])
    assert [phi.name for phi in phis] == ["euler", "e_poly", "virtual_poincare",
                                          "point_count(3)"]


@pytest.mark.parametrize("spelling, name", [
    ("euler", "euler"), ("chi", "euler"), ("e", "e_poly"), ("e_poly", "e_poly"),
    ("poincare", "virtual_poincare"), ("virtual_poincare", "virtual_poincare"),
    ("count:<q>", "point_count(5)")])
def test_help_and_readme_list_each_measure_spelling(spelling, name):
    subcommands = build_parser()._subparsers._group_actions[0].choices
    helps = {sub._option_string_actions["--measure"].help for sub in subcommands.values()}
    assert len(helps) == 1 and spelling in helps.pop().replace(" (repeatable)", "").split(" | ")
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    common_flags = readme.split("Common flags:", 1)[1].split("`--depth", 1)[0]
    assert f"`{spelling}`" in common_flags
    assert MeasureSpec.parse(spelling.replace("<q>", "5")).name == name


def test_corpus_report_bytes_are_pinned(tmp_path, cli_child_env):
    out = tmp_path / "report.json"
    subprocess.run(
        [sys.executable, "-m", "kvar.cli", "check", "--corpus-seed", "1",
         "--corpus-size", "10", "--format", "json", "--out", str(out)],
        check=True, env=cli_child_env("0"))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "aa7e8ae851a0cfa7c9aa127117f17be975f532226a7948de7a4261f8ac656da9")
    # size 50 runs every check kind and repeats Kunneth pairs
    subprocess.run(
        [sys.executable, "-m", "kvar.cli", "check", "--corpus-seed", "1",
         "--corpus-size", "50", "--format", "json", "--out", str(out)],
        check=True, env=cli_child_env("0"))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "0b8ca5554e3d632aae24b379cc21ce30cdac61701a3b0c857d475af8508c8745")
    # size 200 shares each fan among its callers, whichever built it first
    subprocess.run(
        [sys.executable, "-m", "kvar.cli", "check", "--corpus-seed", "1",
         "--corpus-size", "200", "--format", "json", "--out", str(out)],
        check=True, env=cli_child_env("0"))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "60ca0092b3c672d0a21db229af5a5616344c6d4662432f823581c967674b6ead")


def test_size_800_report_bytes_are_pinned(tmp_path, cli_child_env):
    # under PYTHONHASHSEED 1, the smaller sizes above under 0: either gives these bytes
    out = tmp_path / "report.json"
    subprocess.run(
        [sys.executable, "-m", "kvar.cli", "check", "--corpus-seed", "1",
         "--corpus-size", "800", "--format", "json", "--out", str(out)],
        check=True, env=cli_child_env("1"))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c5fcc87a5777a5e96365e71b02b105ecc5b4f4be391201d132471bf49dafbd93")


# the kinds whose results the battery keeps in its answer table
ANSWERED_KINDS = {"additivity", "independence", "square_relation", "blowup_descent",
                  "mayer_vietoris", "kunneth", "c_complete", "dim_compatible", "square_valid",
                  "purity", "point_count_oracle", "cover_monotone"}


def _fresh(arg):
    """A battery argument with no state of the run: a new measure of the
    same spec; any other argument as it is."""
    if type(arg) is MeasureOnCompacts:
        return MeasureOnCompacts(arg.spec)
    return arg


def test_each_answer_from_the_table_is_its_fresh_computation(monkeypatch):
    report, hits = Report({}), []
    answer = cli._answer

    def spying(answers, key, check, *args):
        if key in answers:  # the record about to be added is answered from the table
            hits.append((len(report.records), check, args))
        return answer(answers, key, check, *args)
    monkeypatch.setattr(cli, "_answer", spying)
    run_corpus_checks(report, 1, 200, ["euler", "e"])
    assert {report.records[i].kind for i, _, _ in hits} == ANSWERED_KINDS
    for i, check, args in hits:
        rec = report.records[i]
        fresh = check(*(_fresh(arg) for arg in args))
        assert tuple(fresh) == (rec.status, rec.lhs, rec.rhs, rec.note), rec.id


def test_each_distinct_check_of_a_battery_is_computed_once():
    # a key that stops matching its repeats (one not built from interned
    # fans and cone sets, say) shows here as more computations
    answers = run_corpus_checks(Report({}), 1, 200, ["euler", "e"])
    assert Counter(kind for kind, _ in answers) == {
        "additivity": 768, "independence": 226, "square_relation": 78,
        "blowup_descent": 156, "mayer_vietoris": 598, "kunneth": 366,
        "c_complete": 674, "dim_compatible": 159, "square_valid": 159, "purity": 78,
        "point_count_oracle": 80, "cover_monotone": 78}


# Runs the seed-1, size-200 battery under sys.setprofile and prints how
# often the body of toric._gap_filled ran, and for how many distinct fans.
COMPLETIONS_CHILD = """
import sys
from collections import Counter
from kvar import cli, toric
body = toric._gap_filled.__wrapped__.__code__
computed = Counter()
def note(frame, event, arg):
    if event == "call" and frame.f_code is body:
        fan = frame.f_locals["fan"]
        computed[fan.rank, fan.cones] += 1
sys.setprofile(note)
cli.run_corpus_checks(cli.Report({}), 1, 200, ["euler", "e"])
sys.setprofile(None)
print(sum(computed.values()), len(computed))
"""


def test_each_completion_of_a_battery_is_computed_once(cli_child_env):
    # an open's automatic completion is kept on its fan: a fan dropped
    # between two measures of the battery and built again shows here as a
    # second computation.  A child process starts with no fan kept.
    proc = subprocess.run([sys.executable, "-c", COMPLETIONS_CHILD], capture_output=True,
                          text=True, env=cli_child_env("0"), timeout=300)
    assert proc.returncode == 0, proc.stderr
    computations, fans = map(int, proc.stdout.split())
    assert computations == fans > 0


# Runs the seed-1, size-200 battery under sys.setprofile and prints how
# often completeness was tested and gaps were filled, how often an open's
# combination of compact objects was computed and for how many distinct
# (fan, completion) pairs, and how often a measure summed a combination and
# for how many distinct (measure, combination) pairs.  Fans are counted by
# their cones, so the counts hold none of them alive.
COMBINATIONS_CHILD = """
import sys
from collections import Counter
from kvar import cli, csupport, toric
complete = toric.Fan.is_complete.__wrapped__.__code__
gap = toric._gap_filled.__wrapped__.__code__
terms = csupport._open_terms.__wrapped__.__code__
summed = csupport.MeasureOnCompacts._sum.__code__
def shape(k):
    if isinstance(k, toric.Fan):
        return k.rank, k.cones
    return shape(k.fan), k.cones
computed, opens, sums = Counter(), Counter(), Counter()
def note(frame, event, arg):
    if event != "call":
        return
    code, f = frame.f_code, frame.f_locals
    if code is complete or code is gap:
        computed[code] += 1
    elif code is terms:
        opens[shape(f["fan"]), f["completion"] and shape(f["completion"])] += 1
    elif code is summed:
        sums[id(f["self"]), tuple((c, shape(k)) for c, k in f["terms"])] += 1
sys.setprofile(note)
cli.run_corpus_checks(cli.Report({}), 1, 200, ["euler", "e"])
sys.setprofile(None)
print(computed[complete], computed[gap], sum(opens.values()), len(opens),
      sum(sums.values()), len(sums))
"""


def test_a_battery_inherits_what_its_opens_know_and_sums_each_combination_once(
        cli_child_env):
    # a subfan of a complete surface is not complete, and at rank 2 with every
    # ray its completion is the surface: kept as proven, 1,048 completeness
    # tests and 651 gap fills here fall to 399 and 108.  Each open's
    # combination is computed once per (fan, completion), and each measure
    # sums each combination once.  A child process starts with no fan kept.
    proc = subprocess.run([sys.executable, "-c", COMBINATIONS_CHILD], capture_output=True,
                          text=True, env=cli_child_env("0"), timeout=300)
    assert proc.returncode == 0, proc.stderr
    complete, gaps, terms, opens, sums, combinations = map(int, proc.stdout.split())
    assert complete <= 399 and gaps <= 108
    assert terms == opens > 0
    assert sums == combinations > 0


# Runs the seed-1, size-200 battery with the garbage collector off, drops
# its report, and prints the size of the fan intern table before and after,
# and what the collector then finds.
LEFTOVERS_CHILD = """
import gc
from kvar import cli, toric
gc.disable()
before = len(toric.Fan._interned)
report = cli.Report({})
cli.run_corpus_checks(report, 1, 200, ["euler", "e"])
del report
print(before, len(toric.Fan._interned), gc.collect())
"""


def test_a_battery_leaves_no_fan_and_no_cycle_behind(cli_child_env):
    # while batteries kept their fans' data past their end, 1,082 fans
    # stayed in the table here, and the collector found 22,803 objects in
    # reference cycles
    proc = subprocess.run([sys.executable, "-c", LEFTOVERS_CHILD], capture_output=True,
                          text=True, env=cli_child_env("0"), timeout=300)
    assert proc.returncode == 0, proc.stderr
    before, after, found = map(int, proc.stdout.split())
    assert after == before
    assert found < 22_803 // 100


# Keeps three builtin fans alive, then runs the seed-1, size-200 battery and
# the every-kind suite fixture (its path in argv) with the garbage collector
# off, dropping each report, and prints the size of the fan intern table
# before the runs and after each.
KEPT_FANS_CHILD = """
import gc, json, sys
from kvar import cli, toric
gc.disable()
kept = [toric.builtin_fan(name) for name in ("P1", "P2", "P1xP1")]
sizes = [len(toric.Fan._interned)]
report = cli.Report({})
cli.run_corpus_checks(report, 1, 200, ["euler", "e"])
del report
sizes.append(len(toric.Fan._interned))
report = cli.Report({})
with open(sys.argv[1]) as fh:
    cli.run_suite(report, json.load(fh))
del report
sizes.append(len(toric.Fan._interned))
print(*sizes)
"""


def test_a_run_leaves_no_fan_behind_on_the_fans_from_before_it(cli_child_env):
    # while a run spared what fans from before it kept, the battery left 64
    # of its fans in the table here, and the suite 6 more
    proc = subprocess.run(
        [sys.executable, "-c", KEPT_FANS_CHILD, str(FIXTURES / "every_kind_suite.json")],
        capture_output=True, text=True, env=cli_child_env("0"), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3", "3", "3"]


def test_a_repeated_suite_case_is_checked_once(monkeypatch):
    validated, validate = [], cli.validate_square

    def counting(sq):
        validated.append(sq)
        return validate(sq)
    monkeypatch.setattr(cli, "validate_square", counting)
    case = {"kind": "square_valid", "object": "P2", "ray": [1, 1]}
    report = Report({})
    cli.run_suite(report, {"checks": [case, dict(case)]})
    assert len(validated) == 1
    first, second = ([r.kind, r.status, r.lhs, r.rhs, r.note] for r in report.records)
    assert first == second and first[1] == "pass"


def _site_objects(value, found: dict) -> None:
    """Every site object that ``value`` holds, by identity, into ``found``."""
    if isinstance(value, SiteObject):
        found[id(value)] = value
    elif isinstance(value, (list, tuple)):
        for item in value:
            _site_objects(item, found)
    elif isinstance(value, dict):
        _site_objects(list(value.values()), found)
    elif isinstance(value, SpanMorphism):
        _site_objects([value.source, value.target], found)
    elif isinstance(value, (corpus.Corpus, DistinguishedSquare, SitePresentation)):
        _site_objects(list(vars(value).values()), found)


def test_the_battery_ignores_object_names(monkeypatch):
    def outcomes(report):
        return [(r.kind, r.status, r.lhs, r.rhs, r.note) for r in report.records]

    named = Report({})
    run_corpus_checks(named, 1, 50, ["euler", "e"])
    generate = corpus.generate

    def renamed(seed, size):
        corp = generate(seed, size)
        objects: dict = {}
        _site_objects(corp, objects)
        for obj in objects.values():
            obj.name = "X"
        return corp
    monkeypatch.setattr(cli.corpus_mod, "generate", renamed)
    report = Report({})
    run_corpus_checks(report, 1, 50, ["euler", "e"])
    assert [r.id for r in report.records] != [r.id for r in named.records]
    assert outcomes(report) == outcomes(named)


def test_batteries_in_one_process_report_what_fresh_processes_report(tmp_path, cli_child_env):
    # no answer table outlives the battery that filled it
    for seed, size in ((2, 10), (1, 50), (1, 50)):
        argv = ["check", "--corpus-seed", str(seed), "--corpus-size", str(size),
                "--format", "json"]
        out = tmp_path / f"{seed}-{size}.json"
        if not out.exists():
            subprocess.run([sys.executable, "-m", "kvar.cli", *argv, "--out", str(out)],
                           check=True, env=cli_child_env("0"))
        assert run_cli(*argv).to_json_text() == out.read_text()


def _every_depth_cover_monotone(site, obj, depth: int):
    """``_cover_monotone`` by enumerating every depth from 0 to ``depth``."""
    keys = [{c.key() for c in enumerate_simple_covers(site, obj, d)} for d in range(depth + 1)]
    ok = all(a <= b for a, b in zip(keys, keys[1:]))
    surj = all(c.jointly_surjective()
               for c in enumerate_simple_covers(site, obj, min(depth, 2)))
    return cli.verdict(ok and surj, note=f"cover counts {[len(k) for k in keys]}")


def test_cover_enumeration_stops_at_its_fixed_point():
    corp = corpus.generate(1, 50)
    bases = {sq.base.name: sq.base for sq in corp.squares}.values()
    for obj in bases:
        for depth in range(6):
            assert _cover_monotone(corp.site, obj, depth) == \
                _every_depth_cover_monotone(corp.site, obj, depth), (obj.name, depth)


def _cyclic_site(x_obj):
    """A site with one square over ``x_obj`` that has ``x_obj`` itself as its
    corner Y: X minus nothing, rebased onto X."""
    sq = localization_square(x_obj, x_obj.fan.cones)
    site = SitePresentation()
    site.add_square(dataclasses.replace(sq, base=x_obj, p_leg=identity_span(x_obj),
                                        i_leg=zero_span(sq.C, x_obj)))
    return site


def test_cover_enumeration_over_a_cyclic_site_ends():
    x_obj = ToricObject("X", toric.builtin_fan("P2"))
    site = _cyclic_site(x_obj)
    assert [cover_height(site, x_obj, b) for b in (0, 1, 5, MAX_DEPTH)] == [0, 1, 5, MAX_DEPTH]
    for depth in range(6):
        assert _cover_monotone(site, x_obj, depth) == \
            _every_depth_cover_monotone(site, x_obj, depth)


def _stacked_star_site(x_obj):
    """A site with the star square of ``x_obj`` at (1, 1) and a star square
    at (2, 1) over its corner Y, as in demo 04."""
    site = SitePresentation()
    sq = site.add_square(star_subdivision_square(x_obj, (1, 1)))
    site.add_square(star_subdivision_square(sq.Y, (2, 1)))
    return site


def _squares_above_identity_covers(cover, above=0):
    """For each identity cover the tree reaches through ``upper`` and
    ``lower``, the number of squares on the way to it."""
    if cover.square is None:
        yield above
    else:
        for below in (cover.upper, cover.lower):
            yield from _squares_above_identity_covers(below, above + 1)


@pytest.mark.parametrize("site_of", [_stacked_star_site, _cyclic_site])
def test_a_simple_cover_is_a_tree_of_squares_over_identity_covers(site_of):
    x_obj = ToricObject("X", toric.builtin_fan("P2"))
    site = site_of(x_obj)
    identity = identity_cover(x_obj).key()
    for depth in range(3):
        covers = enumerate_simple_covers(site, x_obj, depth)
        for cover in covers:
            above = list(_squares_above_identity_covers(cover))
            assert (cover.square is None) == (cover.key() == identity)
            assert len(cover.leaves()) == len(above)
            assert cover.depth() == max(above)
        assert max(cover.depth() for cover in covers) == depth


def test_a_cover_monotone_answer_is_keyed_by_the_squares_not_only_the_fan():
    # three objects of one fan: X over a cyclic site, and two bases of one
    # star square each over another site, the second a repeat of the first
    x_obj = ToricObject("X", toric.builtin_fan("P2"))
    star_site = SitePresentation()
    bases = [ToricObject(name, toric.builtin_fan("P2")) for name in ("B", "C")]
    for base in bases:
        star_site.add_square(star_subdivision_square(base, (1, 1)))
    cases = [(_cyclic_site(x_obj), x_obj)] + [(star_site, base) for base in bases]
    report = Report({})
    answers = cli.run_checks(report, [(obj.name, "cover_monotone", (site, obj, 3))
                                      for site, obj in cases])
    records = [(r.status, r.lhs, r.rhs, r.note) for r in report.records]
    assert records == [tuple(_cover_monotone(site, obj, 3)) for site, obj in cases]
    assert records[0] != records[1] and len(answers) == 2


def test_the_largest_depth_ends_soon(tmp_path):
    started = time.process_time()
    assert main(["check", "--corpus-seed", "1", "--corpus-size", "10",
                 "--depth", str(MAX_DEPTH), "--format", "json",
                 "--out", str(tmp_path / "report.json")]) == 0
    assert time.process_time() - started < 1.0


def test_run_config_requires_corpus_or_suite():
    with pytest.raises(InputError):
        run(RunConfig(command="check"))
