"""Benchmark of kvar: `kvar check` batteries and relation-file evaluation.

    python3 perfbench/run.py --workload check_small --seed 1 --seconds 20 --trace 0

Workloads: check_small, check_large, eval_relations (see README.md), or
``all`` to run the three in turn.  With ``--trace 0`` a workload's result
is a line with a JSON object of the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of a traced run.  The result is the last
line of standard output for one workload.  A ``# meta`` line before each
result gives the run's metadata, and ``perfbench/out/`` keeps the full
record of each run.  Every time is calibrated to a reference host speed by
a probe that each worker runs alongside kvar (see ``hostclock.py``); the
run record keeps the raw wall times too.  The program under test is read
from ``src/kvar`` of the checkout this file sits in; every battery and
every eval run is a child process, started one at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from hostclock import from_stamp
from tracing import CHECK_KINDS, metric_names, metric_unit

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

CHILD_TIMEOUT_S = 170
HASH_SEEDS = (0, 1)
TRACED_CORPORA = 3

# op_tail_ms is a fixed percentile per workload, so that it means the same
# thing in every run.  eval_relations makes whole rounds of eight
# operations, 48 to 64 in a 15-second run; p75 keeps ten beyond it down to
# 40.  A check_small run has about 15,000 records, but its top 1% are
# first-time Kunneth product fans of a handful of surfaces, which vary from
# corpus seed to corpus seed by a factor of three; p95 mixes them with
# cover_monotone records and repeats across seeds (see README.md).
TAIL_PERCENTILE = {"check_small": 95, "check_large": 99, "eval_relations": 75}

END_TO_END_UNITS = {
    "setup_s": "s", "verdict_s": "s", "ops_per_s": "1/s",
    "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run the program; no result is printed."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def percentile(values: List[float], p: float) -> float:
    ordered = sorted(values)
    k = (len(ordered) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def host_probe() -> float:
    """Milliseconds of a fixed pure-Python loop, median of five."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        x = 0
        for i in range(200_000):
            x = (x * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0


# ---------------------------------------------------------------------------
# child processes

def spawn(args: List[str], hash_seed: int) -> tuple:
    """Start one worker, wait for it, and return (start time, its JSON)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    started = now()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *map(str, args)],
            env=env, cwd=str(ROOT), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} ran past {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {tail}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args[0]} printed nothing")
    return started, json.loads(lines[-1])


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# check workloads

def check_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import inputs
    size = inputs.CHECK_SIZES[name]
    cseeds = inputs.corpus_seeds(name, seed)
    OUT.mkdir(exist_ok=True)
    setups: List[float] = []
    if not trace and len(cseeds) == 1:
        # one battery per run: one more set-up in a child of its own
        started, p = spawn(["check-setup", cseeds[0], size], HASH_SEEDS[0])
        setups.append(from_stamp(started, p["generated"]))

    batteries = []
    reports: Dict[int, Path] = {}
    digests: Dict[int, set] = {}

    def battery(cseed: int, hash_seed: int, traced: bool) -> None:
        path = OUT / f"{name}-s{seed}-b{len(batteries)}.json"
        started, p = spawn(["check", cseed, size, path, int(traced)], hash_seed)
        setups.append(from_stamp(started, p["generated"]))
        p.update(cseed=cseed, hash_seed=hash_seed, traced=traced,
                 verdict_s=from_stamp(started, p["written"]),
                 raw_verdict_s=p["written"]["t"] - started,
                 host_factor=p["written"]["factor"])
        batteries.append(p)
        digests.setdefault(cseed, set()).add(sha256_file(path))
        if cseed in reports:
            path.unlink()
        else:
            reports[cseed] = path

    start = now()
    if trace:
        # up to three corpora, each once traced and once untraced, under
        # the two hash seeds
        for cseed in cseeds[:TRACED_CORPORA]:
            battery(cseed, HASH_SEEDS[0], True)
            battery(cseed, HASH_SEEDS[1], False)
    else:
        # whole rounds: every corpus once, hash seeds alternating, then the
        # first corpus again under the other hash seed for byte-identity.
        # Another round starts only if it should end within ``seconds``, so
        # a fast host does not double a run's length.
        plan = [(c, HASH_SEEDS[i % 2]) for i, c in enumerate(cseeds)]
        if len(cseeds) > 1:
            plan.append((cseeds[0], HASH_SEEDS[1]))
        while True:
            r0 = now()
            for cseed, hash_seed in plan:
                battery(cseed, hash_seed, False)
            t = now()
            if t + (t - r0) - start > seconds:
                break

    errors = []
    for cseed, ds in digests.items():
        if len(ds) != 1:
            errors.append(f"corpus {cseed}: {len(ds)} different JSON reports")
    import verify
    for cseed, path in sorted(reports.items()):
        errors += verify.check_report(path, cseed, size)
        path.unlink()

    attempted = sum(len(b["kinds"]) for b in batteries)
    failed = sum(b["statuses"].get("fail", 0) for b in batteries)
    untraced = [b for b in batteries if not b["traced"]]
    per_record = [s for b in untraced for s in b["seconds"]]
    busy = sum(b["verdict_s"] for b in untraced)
    metrics = {
        "setup_s": statistics.median(setups),
        # the mean battery: battery times follow the corpus (2.5 to 4.5 s at
        # size 50), and the median of a run's few corpora moves more from
        # seed to seed than their mean
        "verdict_s": statistics.mean(b["verdict_s"] for b in untraced),
        "ops_per_s": sum(len(b["kinds"]) for b in untraced) / busy,
        "op_p50_ms": 1000.0 * statistics.median(per_record),
        "op_tail_ms": 1000.0 * percentile(per_record, TAIL_PERCENTILE[name]),
        "peak_rss_mb": max(b["peak_rss_mb"] for b in untraced),
    }
    layers = None
    detail = {
        "size": size, "corpus_seeds": cseeds,
        "batteries": [{k: b[k] for k in ("cseed", "hash_seed", "traced", "verdict_s",
                                         "raw_verdict_s", "host_factor", "peak_rss_mb")}
                      | {"records": len(b["kinds"])}
                      for b in batteries],
        "setups_s": setups,
        "tail_percentile": TAIL_PERCENTILE[name],
    }
    if trace:
        traced = [b for b in batteries if b["traced"]]
        layers = _average_layers(traced)
        for kind in CHECK_KINDS:
            layers[f"check.{kind}.s"] = sum(
                s for b in traced for k, s in zip(b["kinds"], b["seconds"])
                if k == kind) / len(traced)
        t_med = statistics.median(b["verdict_s"] for b in traced)
        detail["trace_overhead"] = t_med / metrics["verdict_s"] - 1.0
    return dict(errors=errors, attempted=attempted, failed=failed,
                metrics=metrics, layers=layers, detail=detail)


def _average_layers(parts: List[dict]) -> Dict[str, float]:
    out = {}
    for name in metric_names():
        if name.startswith("check."):
            continue
        out[name] = sum(p["layers"][name] for p in parts) / len(parts)
    return out


# ---------------------------------------------------------------------------
# eval_relations

EVAL_SETUP_SAMPLES = 4


def eval_workload(seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    for _ in range(EVAL_SETUP_SAMPLES):
        started, p = spawn(["eval-setup", seed], HASH_SEEDS[0])
        setups.append(from_stamp(started, p["ready"]))
    started, run = spawn(["eval", seed, seconds, int(trace), 0], HASH_SEEDS[0])
    setups.append(from_stamp(started, run["ready"]))
    # the same operations once more under the other hash seed
    _, again = spawn(["eval", seed, 0, 0, 1], HASH_SEEDS[1])

    import verify
    errors = verify.check_eval(seed, run, again)

    rounds = run["round_seconds"]
    timed = [t for t, traced in zip(rounds, run["traced_rounds"]) if not traced]
    metrics = {
        "setup_s": statistics.median(setups),
        "verdict_s": statistics.median(timed),
        "ops_per_s": run["completed"] / run["phase_s"],
        "op_p50_ms": 1000.0 * statistics.median(run["op_seconds"]),
        "op_tail_ms": 1000.0 * percentile(run["op_seconds"],
                                          TAIL_PERCENTILE["eval_relations"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    detail = {"rounds": len(rounds), "ops": len(run["op_seconds"]),
              "round_seconds": rounds, "raw_round_seconds": run["raw_round_seconds"],
              "setups_s": setups, "failures": run["failures"],
              "tail_percentile": TAIL_PERCENTILE["eval_relations"]}
    layers = None
    if trace:
        n_traced = sum(run["traced_rounds"])
        layers = {k: v / n_traced for k, v in run["layers"].items()}
        for kind in CHECK_KINDS:
            layers[f"check.{kind}.s"] = 0.0
        traced_t = [t for t, tr in zip(rounds, run["traced_rounds"]) if tr]
        detail["trace_overhead"] = statistics.median(traced_t) / metrics["verdict_s"] - 1.0
    return dict(errors=errors, attempted=run["completed"] + run["failed"],
                failed=run["failed"], metrics=metrics, layers=layers, detail=detail)


WORKLOADS = {
    "check_small": lambda seed, s, t: check_workload("check_small", seed, s, t),
    "check_large": lambda seed, s, t: check_workload("check_large", seed, s, t),
    "eval_relations": eval_workload,
}


# ---------------------------------------------------------------------------
# entry point

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload; print its metadata line and its result line."""
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "python": platform.python_version(),
        "nproc": os.cpu_count(), "hash_seeds": list(HASH_SEEDS),
        "parent_hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "probe_before_ms": host_probe(),
    }
    t0 = now()
    try:
        result = WORKLOADS[workload](seed, seconds, trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    meta["probe_after_ms"] = host_probe()
    meta["wall_s"] = now() - t0
    meta.update(result["detail"])

    if trace:
        metrics = {n: {"value": result["layers"][n], "unit": metric_unit(n)}
                   for n in metric_names()}
    else:
        metrics = {n: {"value": result["metrics"][n], "unit": u}
                   for n, u in END_TO_END_UNITS.items()}
    final = {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    meta["errors"] = result["errors"][:20]
    meta["end_to_end"] = result["metrics"]
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps({"meta": meta, "result": final}, indent=1) + "\n")
    for line in meta["errors"]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    print("# meta " + json.dumps({k: v for k, v in meta.items() if k not in
                                  ("batteries", "round_seconds", "raw_round_seconds",
                                   "setups_s", "end_to_end")}))
    print(json.dumps(final), flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kvar" / "cli.py").is_file():
        print(f"perfbench: no kvar sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        status = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
