"""Seeded inputs of the benchmark workloads, and their known classes.

Every input is a pure function of the run seed, so the worker that feeds
the inputs to kvar and the parent that checks the outputs build the same
ones.  The relation files hold blowup towers and open decompositions whose
classes have closed forms, which ``oracle.LPolyEvaluator`` evaluates
without kvar.

The relation files have fixed sizes and seeded content, so every seed
asks for the same amount of work.  A corpus's size varies with its seed;
the check workloads spread that over several corpora per run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from kvar import corpus

# check workloads: corpus size, and how many corpora one run covers.  The
# Kunneth pool is built from the first six surfaces of a corpus, so one
# corpus at size 50 can take 2.3 s or 4.6 s; several corpora per run keep
# one run's figures from hanging on a single draw.
CHECK_SIZES = {"check_small": 50, "check_large": 800}
CHECK_CORPORA = {"check_small": 6, "check_large": 1}

# eval_relations: one operation is one relation file with its batch
TOWER_LENGTHS = (30, 25, 15)        # smooth_blowup relations per tower
OPENS = 20                          # open decompositions per file
FILE_EXPRS = 3                      # expressions over the file per operation
BUILTIN_EXPRS = 2                   # expressions over the builtins per operation
CLAUSES = 200                       # clauses per expression
FILES_PER_ROUND = 8                 # good operations in one round
FAILING_PER_ROUND = 1               # 2,000-clause sums in one round
FAILING_CLAUSES = 2000
FAILING_SEED = 2000                 # fixed: the failing input does not depend on --seed
MEASURES = ("euler", "e", "poincare", "count:{q}")

_PREFIXES = "TWXYZ"


def derived_seeds(seed: int, n: int, salt: str) -> List[int]:
    rng = random.Random(f"{salt}:{seed}")
    return [rng.randrange(1, 10 ** 6) for _ in range(n)]


def corpus_seeds(workload: str, seed: int) -> List[int]:
    return derived_seeds(seed, CHECK_CORPORA[workload], workload)


@dataclass
class RelationFile:
    text: str                       # the JSON relation file
    file_exprs: List[str]           # expressions over the file's generators
    builtin_exprs: List[str]        # expressions over the builtins only
    q: int                          # the point-count measure is count:q
    gens: Dict[str, Tuple[str, int]]  # generator -> (closed-form recipe, dim)

    @property
    def measure_names(self) -> List[str]:
        return [m.format(q=self.q) for m in MEASURES]


def relation_file(seed: int) -> RelationFile:
    """A relation file of blowup towers and open decompositions, with its batch.

    Tower t blows up a builtin base B of dimension n at a point, again and
    again: X_k = Bl(X_(k-1); pt) with exceptional divisor P^(n-1), so
    [X_k] = [B] + k ([P^(n-1)] - 1).  An open decomposition declares a new
    V = U + complement over an earlier generator U.
    """
    rng = random.Random(f"relations:{seed}")
    records = []
    gens: Dict[str, Tuple[str, int]] = {}
    compact: Dict[str, bool] = {}
    prefix = rng.choice(_PREFIXES)
    blowup_targets = []   # names X that have a relation Bl(X;pt)
    for t, length in enumerate(TOWER_LENGTHS):
        base = rng.choice(["P2", "P3", "A2", "A3"])
        n = int(base[1:])
        is_compact = base.startswith("P")
        prev = base
        for k in range(1, length + 1):
            y = f"{prefix}{t}n{k}"
            dims = {y: n}
            comp = {y: is_compact}
            if prev in gens:
                dims[prev] = n
                comp[prev] = is_compact
            records.append({"kind": "smooth_blowup",
                            "slots": {"E": f"P{n - 1}", "Y": y, "C": "pt", "X": prev},
                            "dims": dims, "compact": comp})
            blowup_targets.append(prev)
            gens[y] = (f"tower:{base}:{k}", n)
            compact[y] = is_compact
            prev = y
    tower_names = list(gens)
    for j in range(OPENS):
        u = rng.choice(list(gens))
        n = gens[u][1]
        complement = rng.choice(["pt", "P1", "A1", f"A{n - 1}", f"P{n - 1}"])
        v = f"V{prefix}{j}"
        records.append({"kind": "open",
                        "slots": {"X": v, "U": u, "complement": complement},
                        "dims": {v: n, u: n}, "compact": {v: False, u: compact[u]}})
        gens[v] = (f"open:{u}:{complement}", n)
        compact[v] = False
    rng.shuffle(records)

    names = list(gens)

    def file_clause() -> str:
        roll = rng.random()
        g = rng.choice(names)
        if roll < 0.25:
            return g
        if roll < 0.45:
            return f"{rng.randint(2, 5)}*{g}"
        if roll < 0.6:
            return f"{g}*{corpus._random_expression(rng)}"
        if roll < 0.7:
            return f"{g}*{rng.choice(tower_names)}"
        if roll < 0.8:
            return f"Bl({rng.choice(blowup_targets)};pt)"
        if roll < 0.85:
            return f"E({rng.choice(blowup_targets)};pt)"
        return corpus._random_expression(rng)

    def join(clauses: List[str]) -> str:
        out = clauses[0]
        for c in clauses[1:]:
            out += f" {rng.choice('+-')} {c}"
        return out

    # the first expression names every generator, so the cold normalize
    # resolves the whole file on every seed
    first = names[:]
    rng.shuffle(first)
    first += [file_clause() for _ in range(CLAUSES - len(first))]
    file_exprs = [join(first)]
    file_exprs += [join([file_clause() for _ in range(CLAUSES)])
                   for _ in range(FILE_EXPRS - 1)]
    builtin_exprs = [join([corpus._random_expression(rng) for _ in range(CLAUSES)])
                     for _ in range(BUILTIN_EXPRS)]
    q = rng.choice([2, 3, 4, 5, 7, 8, 9, 11])
    return RelationFile(json.dumps(records), file_exprs, builtin_exprs, q, gens)


def relation_files(seed: int) -> List[RelationFile]:
    return [relation_file(s) for s in derived_seeds(seed, FILES_PER_ROUND, "eval")]


def failing_sum() -> str:
    """A builtin-only sum of 2,000 clauses; the same text on every seed."""
    rng = random.Random(FAILING_SEED)
    return " + ".join(corpus._random_expression(rng) for _ in range(FAILING_CLAUSES))
