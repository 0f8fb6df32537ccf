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
    MeasureOnCompacts,
    PerturbedMeasure,
    extend_measure,
    verdict,
)
from kvar.measures import MeasureSpec, MeasureValue, apply_measure, weight_report
from kvar.spansite import (
    DistinguishedSquare,
    SiteObject,
    SpanMorphism,
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
# by piece.  Each record is its id, its kind and its answer, from "lhs" to
# the end, with its keys in sorted order; its timing is left out so reports
# are byte-identical.
_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)
_ID = '    {\n      "id": '
_KIND = ',\n      "kind": {},\n      "lhs": '
_ANSWER = ('{},\n      "note": {},\n      "rhs": {},\n      "status": {},\n'
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
        """Write the JSON report to ``fh`` one record at a time.

        Each kind, each distinct measure value and each answer is encoded
        once.  An answer's text depends on its lhs, note, rhs and status
        alone, and records answered from a run's table share their lhs
        and rhs objects, so the text is kept under the ids of those objects
        with the note and status: the records hold the objects while the
        report is written, so no id is reused."""
        measured: dict = {}
        kinds: dict = {}
        answers: dict = {}

        def side(value) -> str:
            if not isinstance(value, MeasureValue):
                return _json_value(value, _FIELD)
            if value not in measured:
                measured[value] = _json_value(value, _FIELD)
            return measured[value]

        fh.write('{\n  "header": ' + _json_value(self.header, "  ") + ',\n  "records": [')
        sep = "\n" + _ID
        for r in self.records:
            kind = kinds.get(r.kind)
            if kind is None:
                kind = kinds[r.kind] = _KIND.format(encode_basestring_ascii(r.kind))
            key = (id(r.lhs), id(r.rhs), r.note, r.status)
            answer = answers.get(key)
            if answer is None:
                answer = answers[key] = _ANSWER.format(
                    side(r.lhs), encode_basestring_ascii(r.note), side(r.rhs),
                    encode_basestring_ascii(r.status))
            fh.write(sep + encode_basestring_ascii(r.id) + kind + answer)
            sep = ",\n" + _ID
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
    and an optional "perturb": absent or null for none, else an object that
    shifts a builtin "target" fan (default P2) by an integer "delta"
    (default 1)."""
    if isinstance(rec, str):
        return MeasureOnCompacts(MeasureSpec.parse(rec))
    perturb = rec.get("perturb") if isinstance(rec, dict) else None
    target = perturb.get("target", "P2") if isinstance(perturb, dict) else None
    delta = perturb.get("delta", 1) if isinstance(perturb, dict) else None
    if not (isinstance(rec, dict) and isinstance(rec.get("selector"), str)
            and (perturb is None or (isinstance(target, str) and type(delta) is int))):
        raise InputError(f"{json.dumps(rec)} is not a measure")
    base = MeasureOnCompacts(MeasureSpec.parse(rec["selector"]))
    if perturb is None:
        return base
    return PerturbedMeasure(base, toric.builtin_fan(target), delta)


def _suite_checks(suite) -> list:
    """The (record id, kind, arguments) cases of a suite file, the
    arguments as ``CHECKS[kind]`` takes them or, for a kind that a suite
    cannot run, the note of its skipped record; or an InputError when the
    file does not have the shape {"checks": [{"kind": ..., ...}, ...]} or a
    field of a known kind is malformed."""
    checks = suite.get("checks", []) if isinstance(suite, dict) else None
    if not isinstance(checks, list):
        raise InputError('suite file: the top level must be an object whose "checks" is a list')
    out = []
    for i, rec in enumerate(checks):
        if not (isinstance(rec, dict) and isinstance(rec.get("kind"), str)):
            raise InputError(f'suite file: check {i} is not an object with a string "kind"')
        try:
            phi = _measure_from_record(rec.get("measure", "euler"))
            out.append((f"{rec['kind']}[{i}]", rec["kind"], _suite_args(rec, i, phi)))
        except (kring.KringError, toric.ToricError, InputError) as exc:
            raise InputError(f"suite file: check {i}: {exc}") from None
    return out


def _suite_args(rec: dict, i: int, phi: MeasureOnCompacts):
    """The arguments of suite check ``i`` as its check function takes them,
    read from its fields: builtin fan names as objects, windows ("torus" or
    lists of ray indices, each list spanning a cone of the object) as
    face-closed cone sets, a ray (a list of integers of the object's rank)
    as its star-subdivision square, and an independence window as its open
    with two completions.  ``phi`` is the measure of the kinds that take
    one; purity takes the E-polynomial.  A kind whose arguments a suite
    cannot name, an open with one completion only, whose independence
    check cannot fail, and an unknown kind get the note of a skipped
    record."""
    kind = rec["kind"]
    if kind not in CHECKS:
        return "unknown kind"
    if kind in ("c_complete", "cover_monotone"):
        needed = "a span" if kind == "c_complete" else "a site"
        return f"needs {needed}, which a suite cannot name yet"
    if kind == "kunneth":
        args = phi, _suite_object(rec, "x"), _suite_object(rec, "y")
        if not phi.multiplicative:
            raise InputError("kunneth needs a multiplicative measure")
        return args
    obj = _suite_object(rec, "object")
    if kind == "additivity":
        return phi, obj, _suite_window(rec, obj, "window")
    if kind == "independence":
        u_obj = ToricObject(f"{obj.name}|U{i}",
                            obj.fan.subfan(_suite_window(rec, obj, "window", "torus")))
        alternative = toric.alternative_completion(u_obj.fan)
        if alternative is None:
            return "the open has no second completion, so the check cannot fail"
        return phi, u_obj, toric.complete_surface(u_obj.fan), alternative
    if kind == "mayer_vietoris":
        win_u, win_v = _suite_window(rec, obj, "u"), _suite_window(rec, obj, "v")
        if win_u | win_v != obj.fan.cones:
            raise InputError(f'"u" and "v" do not cover {obj.name}')
        return phi, obj, win_u, win_v
    if kind == "purity":
        if not (obj.smooth and obj.complete):
            raise InputError(f"purity needs a smooth complete object, not {obj.name}")
        return MeasureOnCompacts(MeasureSpec("e_poly")), obj
    if kind == "point_count_oracle":
        return (obj.fan,)
    ray = rec.get("ray")
    if not (isinstance(ray, list) and len(ray) == obj.fan.rank
            and all(type(x) is int for x in ray)):
        raise InputError(f'"ray" must be a list of {obj.fan.rank} integers')
    sq = spansite.star_subdivision_square(obj, tuple(ray))
    return (phi, sq) if kind == "blowup_descent" else (sq,)


def _suite_object(rec: dict, field: str) -> ToricObject:
    """The builtin fan named by ``field``."""
    name = rec.get(field)
    if not isinstance(name, str):
        raise InputError(f'"{field}" must be the name of a builtin fan')
    return ToricObject(name, toric.builtin_fan(name))


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


def _timed(report: Report, rec_id: str, kind: str, check, *args) -> None:
    """Run one check and add its record, timed over the check call alone."""
    t0 = time.perf_counter()
    result = check(*args)
    report.add(Record(rec_id, kind, *result, seconds=time.perf_counter() - t0))


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
    except (toric.ToricError, kring.MissingCompactificationError) as exc:
        return verdict(False, note=str(exc))


# ---------------------------------------------------------------------------
# check

def _corpus_measures(names: List[str]) -> List[MeasureOnCompacts]:
    return [MeasureOnCompacts(spec) for spec in _parse_measures(names)]


def run_corpus_checks(report: Report, seed: int, size: int,
                      measure_names: List[str], depth: int = 3) -> dict:
    """The fixed battery over a seeded corpus, in a deterministic record
    order; returns the answer table of its run (``run_checks``)."""
    corp = corpus_mod.generate(seed, size)
    return run_checks(report, _battery_cases(corp, _corpus_measures(measure_names), depth))


def _battery_cases(corp, phis: List[MeasureOnCompacts], depth: int):
    """The (record id, kind, arguments) cases of the battery, in report
    order."""
    for i, (obj, window) in enumerate(corp.pairs_xu):
        for phi in phis:
            yield f"additivity[{i}]:{obj.name}:{phi.name}", "additivity", (phi, obj, window)
    for i, (u_obj, comp_a, comp_b) in enumerate(corp.independence):
        for phi in phis:
            yield (f"independence[{i}]:{u_obj.name}:{phi.name}", "independence",
                   (phi, u_obj, comp_a, comp_b))
    for i, sq in enumerate(corp.squares):
        yield f"square_relation[{i}]:{sq.base.name}", "square_relation", (sq,)
        for phi in phis:
            yield f"blowup_descent[{i}]:{sq.base.name}:{phi.name}", "blowup_descent", (phi, sq)
    for i, (obj, win_u, win_v) in enumerate(corp.mv_triples):
        for phi in phis:
            yield (f"mayer_vietoris[{i}]:{obj.name}:{phi.name}", "mayer_vietoris",
                   (phi, obj, win_u, win_v))
    for i, (a, b) in enumerate(corp.kunneth_pairs):
        for phi in phis:
            if phi.multiplicative:
                yield f"kunneth[{i}]:{a.name}x{b.name}:{phi.name}", "kunneth", (phi, a, b)
    for i, (sq, f) in enumerate(corp.c_complete_cases):
        yield f"c_complete[{i}]:{sq.base.name}<-{f.source.name}", "c_complete", (sq, f, depth)
    for i, sq in enumerate(corp.squares + corp.loc_squares):
        yield f"dim_compatible[{i}]:{sq.base.name}", "dim_compatible", (sq,)
        yield f"square_valid[{i}]:{sq.base.name}", "square_valid", (sq,)
    e_phi = MeasureOnCompacts(MeasureSpec("e_poly"))
    for i, obj in enumerate(corp.rank3 + corp.surfaces):
        if obj.fan.rank <= 3 and obj.smooth and obj.complete:
            yield f"purity[{i}]:{obj.name}", "purity", (e_phi, obj)
    for i, fan in enumerate(corp.all_fans()):
        yield f"point_count_oracle[{i}]", "point_count_oracle", (fan,)
    bases = sorted(dict.fromkeys(sq.base for sq in corp.squares), key=lambda o: o.name)
    for i, obj in enumerate(bases):
        yield f"cover_monotone[{i}]:{obj.name}", "cover_monotone", (corp.site, obj, depth)


def run_checks(report: Report, cases) -> dict:
    """Add the record of each (record id, kind, arguments) case, checked by
    ``CHECKS[kind]``, and return the answer table of the run.

    Cases repeat their inputs under new names, so each case is answered
    from the table under its ``_key``: each distinct key is checked once,
    and a repeat gets a record of its own with the kept result.  A record
    is timed over its answer alone (``_answer``): the lookup, and the check
    on a miss, never the key.  A check that raises fails its own record,
    and a case whose arguments are a note is skipped with that note.  The
    fans keep what they compute until the run ends, and drop it then
    (``toric.kept_until_done``), so they die with the last reference to
    them rather than in reference cycles.
    """
    answers: dict = {}
    trees: dict = {}  # the square-tree memo of each site (``_key``)
    with toric.kept_until_done():
        for rec_id, kind, args in cases:
            if isinstance(args, str):
                report.add(Record(rec_id, kind, "skipped", note=args))
                continue
            try:
                key = _key(kind, args, trees)
                t0 = time.perf_counter()
                result = _answer(answers, key, CHECKS[kind], *args)
                report.add(Record(rec_id, kind, *result, seconds=time.perf_counter() - t0))
            except Exception as exc:  # records stay isolated
                report.add(Record(rec_id, kind, "fail", note=f"error: {exc}"))
    return answers


def _key(kind: str, args: tuple, trees: dict) -> tuple:
    """The answer-table key of a case: the kind and the ``_shape`` of each
    argument, what the check reads of it.  No check reads a name, and a
    record holds values, never a name, so each rule is sound:

    - a site object is its geometry (an open's automatic completion is a
      function of its fan, ``toric.complete_surface``);
    - a square is its provenance, which holds no name and builds the square
      (a ``StarSubdivision``, the fans (W, X) of a refinement, or (X's fan,
      window) of a localization);
    - a span is its ``key``: the fans or loci of its ends and its window;
    - a measure instance, an interned fan or cone set, or the depth is
      itself (a completion fan fixes the boundary of the open inside it),
      so the checks of a suite, each with a measure of its own, share a
      key only when they take no measure.

    cover_monotone reads the site over an object, the squares added over
    it, so its key is not per argument: it is the token of the square tree
    that its covers walk (``spansite.square_tree``), from the memo that
    ``trees`` holds for the site, and the depth.
    """
    if kind == "cover_monotone":
        site, obj, depth = args
        return kind, (spansite.square_tree(site, obj, depth, trees.setdefault(site, {})), depth)
    return kind, tuple(_shape(a) for a in args)


def _shape(arg):
    """What a check reads of one argument: see ``_key``."""
    if isinstance(arg, SiteObject):
        return arg.geometry
    if isinstance(arg, DistinguishedSquare):
        return arg.provenance
    if isinstance(arg, SpanMorphism):
        return arg.key()
    return arg


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
    how = check_dim_compatible(sq).kind
    return verdict(how in ("direct", "refined"), note=how)


def _square_valid(sq) -> CheckResult:
    v = validate_square(sq)
    return verdict(v.ok and v.jointly_surjective is not False,
                   note="; ".join(f"{e.condition}={e.status}" for e in v.entries))


def _purity(e_phi, obj) -> CheckResult:
    value = extend_measure(e_phi, obj)
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


# Each check kind and the function that checks one case.  The csupport
# checks are looked up in their module when they run, so a wrapper put on
# the module attribute (a tracer's) sees each call.
CHECKS = {
    "additivity": lambda *args: csupport.additivity_check(*args),
    "independence": lambda *args: csupport.independence_check(*args),
    "square_relation": _square_relation,
    "blowup_descent": lambda phi, sq: csupport.consistency_check("blowup_descent", phi, sq),
    "mayer_vietoris": lambda phi, *args: csupport.consistency_check("mayer_vietoris", phi, args),
    "kunneth": lambda phi, *args: csupport.consistency_check("kunneth", phi, args),
    "c_complete": _c_complete,
    "dim_compatible": _dim_compatible,
    "square_valid": _square_valid,
    "purity": _purity,
    "point_count_oracle": _point_count_oracle,
    "cover_monotone": _cover_monotone,
}


def run_suite(report: Report, suite: dict) -> None:
    """A suite file's checks, in file order."""
    run_checks(report, _suite_checks(suite))


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
    # each option's dest is a RunConfig field; one not given keeps its default
    common.add_argument("--measure", action="append", dest="measure_names",
                        metavar="MEASURES", default=argparse.SUPPRESS,
                        help="euler | chi | e | e_poly | poincare | virtual_poincare | "
                             "count:<q> (repeatable)")
    common.add_argument("--depth", type=int, default=3,
                        help=f"simple-cover search bound, 0 to {MAX_DEPTH} (default 3)")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        dest="out_format")
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
    for op in ("props", "class", "complete"):
        p_fan.add_argument(f"--{op}", action="append_const", const=op, dest="fan_ops",
                           default=argparse.SUPPRESS)
    return parser


def config_from_args(args) -> RunConfig:
    return RunConfig(**vars(args))


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
