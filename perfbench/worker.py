"""One child process of the benchmark: a kvar battery, an eval run, or a set-up.

    python3 worker.py check <corpus seed> <size> <report path> <trace 0|1>
    python3 worker.py check-setup <corpus seed> <size>
    python3 worker.py eval <seed> <seconds> <trace 0|1> <rounds or 0>
    python3 worker.py eval-setup <seed>

The parent puts kvar's source directory on PYTHONPATH.  Every mode prints
one JSON object on its last line of standard output.  A worker samples the
host's speed from its first line on (``hostclock``), before it imports
kvar.  Its stamps are read from the monotonic clock, which is shared by all
processes of the host, so the parent can time from the moment it started
the child; a stamp also carries the probe time and the host factor since the
worker began.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from typing import Optional

import hostclock
from hostclock import HostClock

CLOCK = HostClock()
START = None        # the clock's mark when the worker began


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _emit(payload: dict) -> None:
    # no probe signal may cut the write to the parent's pipe short
    CLOCK.stop()
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


# ---------------------------------------------------------------------------
# check batteries

def _stamp_generate(stamps: dict) -> None:
    """Record when corpus generation ends; the battery's set-up ends there."""
    from kvar import corpus
    inner = corpus.generate

    def generate(seed, size):
        result = inner(seed, size)
        stamps["generated"] = CLOCK.stamp(START)
        return result
    corpus.generate = generate


def cmd_check(corpus_seed: int, size: int, report_path: str, trace: bool) -> None:
    import kvar.cli as cli
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer(clock=CLOCK.net)
        tracer.install()
    stamps: dict = {}
    _stamp_generate(stamps)
    # when each record ended: Report.add follows each record's own timing
    ends = []
    add = cli.Report.add

    def timed_add(report, record):
        ends.append(hostclock.now())
        add(report, record)
    cli.Report.add = timed_add
    # the same steps as `kvar check ... --format json --out <path>`
    args = cli.build_parser().parse_args(
        ["check", "--corpus-seed", str(corpus_seed), "--corpus-size", str(size),
         "--format", "json", "--out", report_path])
    config = cli.config_from_args(args)
    report = cli.run(config)
    text = report.to_json_text()
    with open(config.out_path, "w") as fh:
        fh.write(text)
    written = CLOCK.stamp(START)
    factor = written["factor"]
    payload = {
        "generated": stamps["generated"],
        "written": written,
        "peak_rss_mb": _maxrss_mb(),
        "kinds": [r.kind for r in report.records],
        "seconds": CLOCK.calibrate(zip(ends, (r.seconds for r in report.records))),
        "statuses": report.counts,
    }
    if tracer is not None:
        tracer.uninstall()
        payload["layers"] = tracer.snapshot(scale=factor)
    _emit(payload)


def cmd_check_setup(corpus_seed: int, size: int) -> None:
    import kvar.cli  # noqa: F401
    from kvar import corpus
    corpus.generate(corpus_seed, size)
    _emit({"generated": CLOCK.stamp(START)})


# ---------------------------------------------------------------------------
# eval_relations

def run_op(rf) -> list:
    """One operation: load a relation file, then normalize, map and print its batch."""
    from kvar import kring, measures
    rels = kring.RelationSet.from_json(rf.text)
    specs = [measures.MeasureSpec.parse(m) for m in rf.measure_names]
    out = []
    for text in rf.file_exprs:
        expr = kring.parse_expr(text, rels)
        cls = kring.normalize(expr, rels)
        out.append({
            "class": str(cls),
            "values": [measures.apply_measure(s, cls).to_json() for s in specs],
            "printed": kring.expr_to_text(expr),
        })
    table = kring.CompactificationTable()
    for text in rf.builtin_exprs:
        expr = kring.parse_expr(text)
        cls = kring.normalize(expr)
        mapped = kring.g_map(expr, table)
        out.append({
            "class": str(cls),
            "g_class": str(mapped.kclass),
            "values": [measures.apply_measure(s, cls).to_json() for s in specs],
            "printed": kring.expr_to_text(mapped.compact_expr),
        })
    return out


def run_failing(text: str) -> str:
    """A 2,000-clause builtin-only sum; normalize raises RecursionError on it."""
    from kvar import kring
    return str(kring.normalize(kring.parse_expr(text)))


def _build_eval_inputs(seed: int):
    import inputs
    return inputs.relation_files(seed), inputs.failing_sum()


def eval_rounds(files, failing: str, seconds: float, trace: bool, rounds: int,
                clock: Optional[HostClock] = None) -> dict:
    """Whole rounds until ``seconds`` pass (or exactly ``rounds`` rounds).

    A round is every relation file once, then the failing sums.  With
    tracing, odd rounds run traced and even rounds untraced, so the two
    can be compared in one process.  ``clock`` (started here when none is
    given) calibrates each round by its probes, and each operation by the
    probes around it.  It pauses over the failing sums, whose recursion
    reaches the interpreter's limit.
    """
    import inputs
    own_clock = clock is None
    if own_clock:
        clock = HostClock()
        clock.start()
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer(clock=clock.net)
    op_seconds, round_seconds, traced_rounds = [], [], []
    raw_round_seconds, traced_factors = [], []
    digests, first_outputs = [], []
    failed = completed = 0
    failures = []
    # a traced run needs an untraced round to compare with
    min_rounds = rounds or (2 if trace else 1)
    start = clock.mark()
    while len(round_seconds) < min_rounds or (not rounds and hostclock.now() - start.t < seconds):
        traced = tracer is not None and len(round_seconds) % 2 == 0
        if traced:
            tracer.install()
        r0 = clock.mark()
        round_digests = []
        round_ops = []
        for rf in files:
            t0 = hostclock.now()
            out = run_op(rf)
            t1 = hostclock.now()
            round_ops.append((t1, t1 - t0))
            completed += 1
            if not round_seconds:
                first_outputs.append(out)
            round_digests.append(hashlib.sha256(
                json.dumps(out, sort_keys=True).encode()).hexdigest())
        clock.pause()
        for _ in range(inputs.FAILING_PER_ROUND):
            try:
                value = run_failing(failing)
            except Exception as exc:  # counted and named; verify judges the kind
                failed += 1
                failures.append(f"{type(exc).__module__}.{type(exc).__name__}")
            else:
                completed += 1
                round_digests.append(value)
        clock.resume()
        r1 = clock.mark()
        factor = clock.factor(r0, r1)
        op_seconds.extend(clock.calibrate(round_ops))
        round_seconds.append(clock.seconds(r0, r1))
        raw_round_seconds.append(r1.t - r0.t)
        if traced:
            tracer.uninstall()
            traced_factors.append(factor)
        traced_rounds.append(traced)
        digests.append(round_digests)
    if own_clock:
        clock.stop()
    payload = {
        "phase_s": sum(round_seconds),
        "op_seconds": op_seconds,
        "round_seconds": round_seconds,
        "raw_round_seconds": raw_round_seconds,
        "traced_rounds": traced_rounds,
        "completed": completed,
        "failed": failed,
        "failures": sorted(set(failures)),
        "digests": digests,
        "outputs": first_outputs,
    }
    if tracer is not None:
        payload["layers"] = tracer.snapshot(
            scale=sum(traced_factors) / len(traced_factors))
    return payload


def cmd_eval(seed: int, seconds: float, trace: bool, rounds: int) -> None:
    import kvar.cli  # noqa: F401
    files, failing = _build_eval_inputs(seed)
    ready = CLOCK.stamp(START)
    payload = eval_rounds(files, failing, seconds, trace, rounds, CLOCK)
    payload.update(ready=ready, peak_rss_mb=_maxrss_mb())
    _emit(payload)


def cmd_eval_setup(seed: int) -> None:
    import kvar.cli  # noqa: F401
    _build_eval_inputs(seed)
    _emit({"ready": CLOCK.stamp(START)})


def main(argv) -> None:
    global START
    mode, rest = argv[0], argv[1:]
    commands = {
        "check": lambda: cmd_check(int(rest[0]), int(rest[1]), rest[2], rest[3] == "1"),
        "check-setup": lambda: cmd_check_setup(int(rest[0]), int(rest[1])),
        "eval": lambda: cmd_eval(int(rest[0]), float(rest[1]), rest[2] == "1", int(rest[3])),
        "eval-setup": lambda: cmd_eval_setup(int(rest[0])),
    }
    if mode not in commands:
        raise SystemExit(f"unknown worker mode {mode!r}")
    CLOCK.start()
    START = CLOCK.mark()
    try:
        commands[mode]()
    finally:
        # a timer left running would end the interpreter's shutdown with SIGALRM
        CLOCK.stop()


if __name__ == "__main__":
    main(sys.argv[1:])
