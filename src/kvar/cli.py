"""Batch front door: evaluate expressions, run check suites, inspect fans.

Commands:
    kvar eval "P2 - pt" --measure euler --measure e
    kvar check --corpus-seed 1 --corpus-size 50
    kvar check --suite checks.json
    kvar fan fan.json --props --class --complete

JSON reports are byte-identical for identical configurations (checks are
emitted in a fixed order and wall-clock timings are excluded from JSON).
The process exit status is 0 when no check failed, 1 when one did, and 2
for an input error (one line on stderr): an unreadable input file or one
of the wrong shape, an unknown measure name, a `--depth` outside 0 to
`MAX_DEPTH` (64), a negative `--corpus-size`, or `check` with neither
`--suite` nor `--corpus-seed`.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import List, Optional, TextIO

from kvar import corpus as corpus_mod
from kvar import csupport, kring, measures, spansite, toric
from kvar.csupport import (
    CheckResult,
    CompletionProvider,
    MeasureOnCompacts,
    PerturbedMeasure,
    consistency_check,
    extend_measure,
    independence_check,
    additivity_check,
    verdict,
)
from kvar.measures import MeasureSpec, MeasureValue, apply_measure, weight_report
from kvar.spansite import (
    ToricObject,
    check_c_complete,
    check_dim_compatible,
    cover_height,
    enumerate_simple_covers,
    validate_square,
)


# The largest simple-cover search bound: far past the height of the square
# trees a corpus builds (one), while each cover_monotone note lists
# depth + 1 counts.
MAX_DEPTH = 64


class InputError(Exception):
    """An input file that cannot be read or has the wrong shape, an unknown
    measure name, a bound out of range, or a check with nothing to check."""


@dataclass
class RunConfig:
    command: str
    expression: Optional[str] = None
    relations_path: Optional[str] = None
    suite_path: Optional[str] = None
    fan_path: Optional[str] = None
    measure_names: List[str] = field(default_factory=lambda: ["euler", "e"])
    corpus_seed: Optional[int] = None
    corpus_size: Optional[int] = None
    depth: int = 3
    out_format: str = "text"
    out_path: Optional[str] = None
    fan_ops: List[str] = field(default_factory=list)


@dataclass(slots=True)
class Record:
    id: str
    kind: str
    status: str  # pass | fail | skipped
    lhs: object = None
    rhs: object = None
    note: str = ""
    seconds: float = 0.0


# The JSON report is what ``json.dumps(payload, sort_keys=True, indent=2)``
# gives for {"header": ..., "records": [...], "summary": ...}, written piece
# by piece.  Each record fills one template whose keys are in sorted order;
# its timing is left out so reports are byte-identical.
_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)
_RECORD = ('    {{\n      "id": {},\n      "kind": {},\n      "lhs": {},\n'
           '      "note": {},\n      "rhs": {},\n      "status": {},\n'
           '      "timing": null,\n      "trace": []\n    }}')
_FIELD = " " * 6  # the indent of a record's fields


def _json_value(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it
    on a line indented by ``indent``."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, MeasureValue):
        return _json_value(value.to_json(), indent)
    return _ENCODER.encode(value).replace("\n", "\n" + indent)


@dataclass
class Report:
    header: dict
    records: List[Record] = field(default_factory=list)

    def add(self, record: Record) -> None:
        self.records.append(record)

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for r in self.records:
            out[r.status] += 1
        return out

    def ok(self) -> bool:
        return self.counts["fail"] == 0

    def write_json(self, fh: TextIO) -> None:
        """Write the JSON report to ``fh`` one record at a time."""
        measured: dict = {}  # each distinct measure value is encoded once

        def side(value) -> str:
            if not isinstance(value, MeasureValue):
                return _json_value(value, _FIELD)
            if value not in measured:
                measured[value] = _json_value(value, _FIELD)
            return measured[value]

        fh.write('{\n  "header": ' + _json_value(self.header, "  ") + ',\n  "records": [')
        sep = "\n"
        for r in self.records:
            fh.write(sep + _RECORD.format(
                _json_value(r.id, _FIELD), _json_value(r.kind, _FIELD), side(r.lhs),
                _json_value(r.note, _FIELD), side(r.rhs), _json_value(r.status, _FIELD)))
            sep = ",\n"
        fh.write(("\n  ]" if self.records else "]") + ',\n  "summary": '
                 + _json_value(self.counts, "  ") + "\n}\n")

    def to_json_text(self) -> str:
        out = io.StringIO()
        self.write_json(out)
        return out.getvalue()

    def to_text(self) -> str:
        lines = [f"# {self.header.get('command', 'report')}"]
        for key, value in sorted(self.header.items()):
            if key != "command":
                lines.append(f"#   {key} = {value}")
        for r in sorted(self.records, key=lambda r: (r.kind, r.id)):
            body = f"{r.status.upper():7s} {r.kind:18s} {r.id}"
            if r.lhs is not None:
                body += f"  lhs={r.lhs}" + (f" rhs={r.rhs}" if r.rhs is not None else "")
            if r.note:
                body += f"  [{r.note}]"
            body += f"  ({r.seconds * 1000:.1f} ms)"
            lines.append(body)
        c = self.counts
        lines.append(f"summary: {c['pass']} pass, {c['fail']} fail, {c['skipped']} skipped")
        return "\n".join(lines) + "\n"


def _parse_measures(names: List[str]) -> List[MeasureSpec]:
    return [MeasureSpec.parse(n) for n in names]


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # nesting too deep to decode
        raise InputError(f"cannot read {path}: {exc}") from None


def _measure_from_record(rec) -> MeasureOnCompacts:
    """A suite check's measure: a selector, or an object with a "selector"
    and an optional "perturb" of a builtin "target" fan by an integer
    "delta"."""
    if isinstance(rec, str):
        return MeasureOnCompacts(MeasureSpec.parse(rec))
    perturb = rec.get("perturb") if isinstance(rec, dict) else None
    target = perturb.get("target", "P2") if isinstance(perturb, dict) else None
    delta = perturb.get("delta", 1) if isinstance(perturb, dict) else None
    if not (isinstance(rec, dict) and isinstance(rec.get("selector"), str)
            and (not perturb or (isinstance(target, str) and type(delta) is int))):
        raise InputError(f"{json.dumps(rec)} is not a measure")
    base = MeasureOnCompacts(MeasureSpec.parse(rec["selector"]))
    if perturb:
        return PerturbedMeasure(base, toric.builtin_fan(target), delta)
    return base


def _suite_checks(suite) -> list:
    """The (kind, measure, arguments) triples of a suite file, or an
    InputError when the file does not have the shape
    {"checks": [{"kind": ..., ...}, ...]} or a field of a known kind is
    malformed."""
    checks = suite.get("checks", []) if isinstance(suite, dict) else None
    if not isinstance(checks, list):
        raise InputError('suite file: the top level must be an object whose "checks" is a list')
    out = []
    objects: dict = {}
    for i, rec in enumerate(checks):
        if not (isinstance(rec, dict) and isinstance(rec.get("kind"), str)):
            raise InputError(f'suite file: check {i} is not an object with a string "kind"')
        try:
            phi = _measure_from_record(rec.get("measure", "euler"))
            args = _suite_args(rec, i, objects)
            if rec["kind"] == "kunneth" and not phi.multiplicative:
                raise InputError("kunneth needs a multiplicative measure")
        except (kring.KringError, toric.ToricError, InputError) as exc:
            raise InputError(f"suite file: check {i}: {exc}") from None
        out.append((rec["kind"], phi, args))
    return out


def _suite_args(rec: dict, i: int, objects: dict):
    """The arguments of suite check ``i`` as its check function takes them,
    read from its fields: builtin fan names as objects, windows ("torus" or
    lists of ray indices, each list spanning a cone of the object) as
    face-closed cone sets, a ray (a list of integers of the object's rank)
    as its star-subdivision square, and an independence window as its open
    with two completions.  An unknown kind has none."""
    kind = rec["kind"]
    if kind == "kunneth":
        return _suite_object(rec, "x", objects), _suite_object(rec, "y", objects)
    if kind not in ("additivity", "independence", "blowup_descent", "mayer_vietoris"):
        return ()
    obj = _suite_object(rec, "object", objects)
    if kind == "additivity":
        return obj, _suite_window(rec, obj, "window")
    if kind == "independence":
        return _two_completions(obj, _suite_window(rec, obj, "window", "torus"),
                                f"{obj.name}|U{i}")
    if kind == "mayer_vietoris":
        win_u, win_v = _suite_window(rec, obj, "u"), _suite_window(rec, obj, "v")
        if win_u | win_v != obj.fan.cones:
            raise InputError(f'"u" and "v" do not cover {obj.name}')
        return obj, win_u, win_v
    ray = rec.get("ray")
    if not (isinstance(ray, list) and len(ray) == obj.fan.rank
            and all(type(x) is int for x in ray)):
        raise InputError(f'"ray" must be a list of {obj.fan.rank} integers')
    return spansite.star_subdivision_square(obj, tuple(ray))


def _suite_object(rec: dict, field: str, objects: dict) -> ToricObject:
    """The builtin fan named by ``field``, one object per name per suite."""
    name = rec.get(field)
    if not isinstance(name, str):
        raise InputError(f'"{field}" must be the name of a builtin fan')
    if name not in objects:
        objects[name] = ToricObject(name, toric.builtin_fan(name))
    return objects[name]


def _suite_window(rec: dict, obj: ToricObject, field: str, default=None) -> frozenset:
    """The face-closed cone set that ``field`` names in ``obj``."""
    spec = rec.get(field, default)
    if spec == "torus":
        return frozenset(c for c in obj.fan.cones if c.dim == 0)
    rays = obj.fan.rays
    if not (isinstance(spec, list) and all(
            isinstance(ix, list) and all(type(j) is int and 0 <= j < len(rays) for j in ix)
            for ix in spec)):
        raise InputError(f'"{field}" must be "torus" or a list of lists of ray '
                         f"indices of {obj.name} (0 to {len(rays) - 1})")
    cones = {toric.Cone(obj.fan.rank, [])}
    for ix in spec:
        cone = toric.Cone(obj.fan.rank, [rays[j] for j in ix])
        if not obj.fan.contains_cone(cone):
            raise InputError(f'"{field}": {cone} is not a cone of {obj.name}')
        cones.update(cone.faces())
    return frozenset(cones)


def _two_completions(obj: ToricObject, window: frozenset, name: str) -> tuple:
    """The open of ``obj`` on ``window``, named ``name``, with its automatic
    completion and that completion's alternative (itself if it has none)."""
    u_obj = ToricObject(name, obj.fan.subfan(window))
    completion = toric.complete_surface(u_obj.fan)
    alt = toric.alternative_completion(completion, u_obj.fan) or completion
    return (u_obj, csupport.toric_choice(u_obj, completion),
            csupport.toric_choice(u_obj, alt))


# ---------------------------------------------------------------------------
# eval

def cmd_eval(config: RunConfig) -> Report:
    report = Report({"command": "eval", "expression": config.expression,
                     "measures": ",".join(config.measure_names)})
    rels = kring.standard_relations()
    if config.relations_path:
        records = _load_json(config.relations_path)
        try:
            kring.RelationSet.from_json(records, into=rels)
        except kring.KringError as exc:
            raise InputError(f"{config.relations_path}: {exc}") from None
    started = time.perf_counter()
    try:
        cls = kring.normalize(config.expression, rels)
    except kring.KringError as exc:
        report.add(Record("expression", "eval", "fail", note=str(exc)))
        return report
    try:
        text = str(cls)
    except ValueError:  # past the interpreter's int-string digit limit
        report.add(Record("class", "eval", "fail", note=_too_long("the class")))
        return report
    report.add(Record("class", "eval", "pass", lhs=text,
                      seconds=time.perf_counter() - started))
    for spec in _parse_measures(config.measure_names):
        t0 = time.perf_counter()
        try:
            value = apply_measure(spec, cls)
        except measures.MeasureError as exc:
            report.add(Record(spec.name, "measure", "fail", note=str(exc)))
            continue
        try:
            str(value)  # as the report will print it
        except ValueError:
            report.add(Record(spec.name, "measure", "fail", note=_too_long("the value")))
            continue
        report.add(Record(spec.name, "measure", "pass", lhs=value,
                          seconds=time.perf_counter() - t0))
        if spec.selector == "e_poly":
            wr = weight_report(value, smooth=False, compact=False)
            report.add(Record("weights", "weight_table", "pass",
                              lhs=[list(w) for w in wr.weights],
                              note="table only; no purity verdict for a bare class"))
    return report


def _too_long(what: str) -> str:
    """The note of a result with an integer that ``str`` refuses to print."""
    return (f"{what} has a coefficient longer than the interpreter's "
            f"{sys.get_int_max_str_digits()}-digit int-string limit")


# ---------------------------------------------------------------------------
# fan

def cmd_fan(config: RunConfig) -> Report:
    report = Report({"command": "fan", "path": config.fan_path,
                     "ops": ",".join(config.fan_ops)})
    try:
        fan = toric.Fan.from_json(_load_json(config.fan_path))
    except toric.ToricError as exc:
        raise InputError(f"{config.fan_path}: {exc}") from None
    for op in config.fan_ops or ["props"]:
        _timed(report, op, "fan", _fan_op, op, fan)
    return report


def _fan_op(op: str, fan: toric.Fan) -> CheckResult:
    """The record of one fan operation; a fan that cannot be completed
    fails ``complete``."""
    if op == "props":
        props = toric.fan_properties(fan)
        return verdict(True, {"complete": props.complete, "smooth": props.smooth,
                              "dimension": props.dimension})
    if op == "class":
        return verdict(True, str(fan.class_of()))
    if op != "complete":
        raise InputError(f"unknown fan operation {op!r}")
    try:
        return verdict(True, toric.complete_surface(fan).to_json())
    except toric.ToricError as exc:
        return verdict(False, note=str(exc))


# ---------------------------------------------------------------------------
# check

def _corpus_measures(names: List[str]) -> List[MeasureOnCompacts]:
    return [MeasureOnCompacts(spec) for spec in _parse_measures(names)]


def run_corpus_checks(report: Report, seed: int, size: int,
                      measure_names: List[str], depth: int = 3) -> dict:
    """The fixed battery over a seeded corpus; record order is deterministic.

    The corpus repeats its inputs under new names, so the battery keeps one
    answer table for its own run and returns it: each distinct (kind, key)
    is checked once, and a repeat gets a record of its own with the kept
    result, timed over the lookup alone.  A key holds only the measure
    instance, interned fans, frozensets of interned cones and square
    provenance, and each is sound because the result reads nothing else:

    - additivity (measure, fan, window) and Mayer-Vietoris (measure, fan,
      U, V): the open, the complement and X are built from these alone,
      and a record holds values, never a name;
    - independence (measure, fan, then each choice's compact fan and
      boundary cones): the extension through a given choice reads the
      open's fan (is it compact?), the compact fan and the boundary;
    - square_relation, dim_compatible and square_valid (the square's
      provenance), and blowup_descent (measure, provenance): a square is
      built from its provenance, which holds no name (a
      ``StarSubdivision``, a frozen record of interned fans and cones; the
      fans (W, X) of a refinement; or (X's fan, window) of a
      localization), so its corners and legs are functions of it up to
      their names, which no verdict reads;
    - kunneth (measure, fan, fan), purity (fan) and point_count_oracle
      (fan): the product object, the weights and the orbit counts are
      functions of the fans;
    - c_complete (provenance, span key, depth): the verdict reads the
      square, a function of its provenance, and what the span is, its
      ``key``: the fans or loci of its ends and its window.

    The extensions also read the completions the provider picks, and no
    check changes them: Kunneth extends a product that is not complete
    through an explicit choice, the product of its factors' completions.
    cover_monotone keeps no answer: it is per object, because the squares
    over an object are the ones the corpus added over that object.
    """
    corp = corpus_mod.generate(seed, size)
    provider = corp.provider
    phis = _corpus_measures(measure_names)
    answers: dict = {}

    def answered(rec_id: str, kind: str, key, check, *args) -> None:
        _timed(report, rec_id, kind, _answer, answers, (kind, key), check, *args)

    for i, (obj, window) in enumerate(corp.pairs_xu):
        for phi in phis:
            answered(f"additivity[{i}]:{obj.name}:{phi.name}", "additivity",
                     (phi, obj.fan, window), additivity_check, phi, obj, window, provider)

    for i, case in enumerate(corp.independence):
        a, b = case.choice_a, case.choice_b
        shape = (case.obj.fan, a.compact_obj.fan, a.boundary.cones,
                 b.compact_obj.fan, b.boundary.cones)
        for phi in phis:
            answered(f"independence[{i}]:{case.obj.name}:{phi.name}", "independence",
                     (phi, shape), independence_check, phi, case.obj, a, b, provider)

    for i, sq in enumerate(corp.squares):
        answered(f"square_relation[{i}]:{sq.base.name}", "square_relation", sq.provenance,
                 _square_relation, sq)
        for phi in phis:
            answered(f"blowup_descent[{i}]:{sq.base.name}:{phi.name}", "blowup_descent",
                     (phi, sq.provenance), consistency_check, "blowup_descent", phi, sq,
                     provider)

    for i, (obj, win_u, win_v) in enumerate(corp.mv_triples):
        for phi in phis:
            answered(f"mayer_vietoris[{i}]:{obj.name}:{phi.name}", "mayer_vietoris",
                     (phi, obj.fan, win_u, win_v), consistency_check, "mayer_vietoris",
                     phi, (obj, win_u, win_v), provider)

    for i, (a, b) in enumerate(corp.kunneth_pairs):
        for phi in phis:
            if phi.multiplicative:
                answered(f"kunneth[{i}]:{a.name}x{b.name}:{phi.name}", "kunneth",
                         (phi, a.fan, b.fan), consistency_check, "kunneth", phi, (a, b),
                         provider)

    for i, (sq, f) in enumerate(corp.c_complete_cases):
        answered(f"c_complete[{i}]:{sq.base.name}<-{f.source.name}", "c_complete",
                 (sq.provenance, f.key(), depth), _c_complete, sq, f, depth)

    for i, sq in enumerate(corp.squares + corp.loc_squares):
        answered(f"dim_compatible[{i}]:{sq.base.name}", "dim_compatible", sq.provenance,
                 _dim_compatible, sq)
        answered(f"square_valid[{i}]:{sq.base.name}", "square_valid", sq.provenance,
                 _square_valid, sq)

    e_phi = csupport.e_polynomial_measure()
    for i, obj in enumerate(corp.rank3 + corp.surfaces):
        if obj.fan.rank <= 3 and obj.smooth and obj.complete:
            answered(f"purity[{i}]:{obj.name}", "purity", obj.fan,
                     _purity, e_phi, obj, provider)

    for i, fan in enumerate(corp.all_fans()):
        answered(f"point_count_oracle[{i}]", "point_count_oracle", fan,
                 _point_count_oracle, fan)

    for i, obj in enumerate(sorted(dict.fromkeys(sq.base for sq in corp.squares),
                                   key=lambda o: o.name)):
        _timed(report, f"cover_monotone[{i}]:{obj.name}", "cover_monotone",
               _cover_monotone, corp.site, obj, depth)
    return answers


def _timed(report: Report, rec_id: str, kind: str, check, *args) -> None:
    """Run one check and add its record, timed over the check call alone."""
    t0 = time.perf_counter()
    result = check(*args)
    report.add(Record(rec_id, kind, *result, seconds=time.perf_counter() - t0))


def _answer(answers: dict, key, check, *args) -> CheckResult:
    """The result kept in ``answers`` under ``key``; on a miss, ``check(*args)``."""
    result = answers.get(key)
    if result is None:
        result = answers[key] = check(*args)
    return result


def _square_relation(sq) -> CheckResult:
    cls = sq.corner_classes()
    rep = kring.verify_square_relation(cls["upper_left"], cls["upper_right"],
                                       cls["lower_left"], cls["base"])
    return verdict(rep.ok, str(rep.lhs), str(rep.rhs))


def _c_complete(sq, f, depth: int) -> CheckResult:
    result = check_c_complete(sq, f, depth)
    return verdict(result.found, note=result.note)


def _dim_compatible(sq) -> CheckResult:
    kind = check_dim_compatible(sq).kind
    return verdict(kind in ("direct", "refined"), note=kind)


def _square_valid(sq) -> CheckResult:
    v = validate_square(sq)
    return verdict(v.ok and v.jointly_surjective is not False,
                   note="; ".join(f"{e.condition}={e.status}" for e in v.entries))


def _purity(e_phi, obj, provider) -> CheckResult:
    value = extend_measure(e_phi, obj, provider).value
    wr = weight_report(value, obj.smooth, obj.is_compact(),
                       obj.fan.face_counts(), obj.fan.rank)
    return verdict(wr.purity, [list(w) for w in wr.weights], note=wr.note)


def _point_count_oracle(fan) -> CheckResult:
    cls = fan.class_of()
    for q in (2, 3, 4, 5):
        direct = fan.orbit_count(q)
        via_e = apply_measure(MeasureSpec("e_poly"), cls).substitute_int(q)
        if direct != via_e:
            return verdict(False, via_e, direct, f"q={q}")
    return verdict(True, note="q in {2,3,4,5}")


def _cover_monotone(site, obj, depth: int) -> CheckResult:
    """Cover counts at depths 0 to ``depth`` grow monotonically, and the
    covers of depth min(depth, 2) are jointly surjective.  Only depths up to
    the height of the square tree over ``obj`` are enumerated: past it the
    covers stay the same (``cover_height``), so the later counts repeat the
    last one."""
    top = cover_height(site, obj, depth)
    identities: dict = {}
    levels = [enumerate_simple_covers(site, obj, d, identities) for d in range(top + 1)]
    keys = [{c.key() for c in covers} for covers in levels]
    ok = all(a <= b for a, b in zip(keys, keys[1:]))
    surj = all(c.jointly_surjective() for c in levels[min(top, 2)])
    counts = [len(k) for k in keys]
    counts += counts[-1:] * (depth - top)
    return verdict(ok and surj, note=f"cover counts {counts}")


def run_suite(report: Report, suite: dict) -> None:
    checks = _suite_checks(suite)
    provider = CompletionProvider()
    for i, (kind, phi, args) in enumerate(checks):
        rec_id = f"{kind}[{i}]"
        if kind in ("blowup_descent", "mayer_vietoris", "kunneth"):
            check, args = consistency_check, (kind, phi, args)
        elif kind in ("additivity", "independence"):
            check = additivity_check if kind == "additivity" else independence_check
            args = (phi, *args)
        else:
            report.add(Record(rec_id, kind, "skipped", note="unknown kind"))
            continue
        try:
            _timed(report, rec_id, kind, check, *args, provider)
        except Exception as exc:  # suite records stay isolated
            report.add(Record(rec_id, kind, "fail", note=f"error: {exc}"))


def cmd_check(config: RunConfig) -> Report:
    header = {
        "command": "check",
        "recipe": corpus_mod.RECIPE_VERSION,
        "measures": ",".join(config.measure_names),
        "depth": config.depth,
    }
    if config.suite_path:
        header["suite"] = config.suite_path
        report = Report(header)
        run_suite(report, _load_json(config.suite_path))
        return report
    header["corpus_seed"] = config.corpus_seed
    header["corpus_size"] = config.corpus_size
    report = Report(header)
    run_corpus_checks(report, config.corpus_seed, config.corpus_size,
                      config.measure_names, config.depth)
    return report


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvar",
        description="classes of varieties, toric fans, and compactly supported invariants")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--measure", action="append", dest="measures",
                        help="euler | e | poincare | count:<q> (repeatable)")
    common.add_argument("--depth", type=int, default=3,
                        help=f"simple-cover search bound, 0 to {MAX_DEPTH} (default 3)")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", dest="out_path")

    p_eval = sub.add_parser("eval", parents=[common], help="normalize an expression")
    p_eval.add_argument("expression")
    p_eval.add_argument("--relations", dest="relations_path")

    p_check = sub.add_parser("check", parents=[common], help="run a check suite")
    p_check.add_argument("--suite", dest="suite_path")
    p_check.add_argument("--corpus-seed", type=int, dest="corpus_seed")
    p_check.add_argument("--corpus-size", type=int, dest="corpus_size", default=50)

    p_fan = sub.add_parser("fan", parents=[common], help="inspect a fan file")
    p_fan.add_argument("fan_path")
    p_fan.add_argument("--props", action="append_const", const="props", dest="fan_ops")
    p_fan.add_argument("--class", action="append_const", const="class", dest="fan_ops")
    p_fan.add_argument("--complete", action="append_const", const="complete", dest="fan_ops")
    return parser


def config_from_args(args) -> RunConfig:
    return RunConfig(
        command=args.command,
        expression=getattr(args, "expression", None),
        relations_path=getattr(args, "relations_path", None),
        suite_path=getattr(args, "suite_path", None),
        fan_path=getattr(args, "fan_path", None),
        measure_names=args.measures or ["euler", "e"],
        corpus_seed=getattr(args, "corpus_seed", None),
        corpus_size=getattr(args, "corpus_size", None),
        depth=args.depth,
        out_format=args.format,
        out_path=args.out_path,
        fan_ops=getattr(args, "fan_ops", None) or [],
    )


def run(config: RunConfig) -> Report:
    try:
        _parse_measures(config.measure_names)
    except measures.MeasureError as exc:
        raise InputError(str(exc)) from None
    for flag, value in (("--depth", config.depth), ("--corpus-size", config.corpus_size)):
        if value is not None and value < 0:
            raise InputError(f"{flag} must be at least 0, not {value}")
    if config.depth > MAX_DEPTH:
        raise InputError(f"--depth must be at most {MAX_DEPTH}, not {config.depth}")
    if config.command == "eval":
        return cmd_eval(config)
    if config.command == "fan":
        return cmd_fan(config)
    if config.command == "check":
        if not config.suite_path and config.corpus_seed is None:
            raise InputError("check needs --suite or --corpus-seed")
        return cmd_check(config)
    raise SystemExit(f"unknown command {config.command!r}")


def _write(report: Report, out_format: str, fh: TextIO) -> None:
    if out_format == "json":
        report.write_json(fh)
    else:
        fh.write(report.to_text())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    try:
        report = run(config)
    except InputError as exc:
        sys.stderr.write(f"kvar: error: {exc}\n")
        return 2
    if config.out_path:
        with open(config.out_path, "w") as fh:
            _write(report, config.out_format, fh)
    else:
        _write(report, config.out_format, sys.stdout)
    return 0 if report.ok() else 1


if __name__ == "__main__":
    raise SystemExit(main())
