"""Write ``eval_pin.json``: one sha256 over what kvar makes of seeded
relation files and the expressions evaluated against them.

A relation file holds point-blowup towers, X_k = Bl(X_(k-1); pt) over a
builtin base, open decompositions over their levels and one bare
generator that no relation eliminates.  Its expressions are sums of 200
clauses: over the file (its generators, multiples of them, products of two
tower levels, ``Bl``/``E`` terms and ``corpus._random_expression``
clauses; the last one also subtracts the bare generator) and over the
builtins alone (``_random_expression`` clauses).

For each expression the digest takes, in order, each as its text or as
the text of the error it raises:

* the parsed tree printed back (``expr_to_text``);
* its class (``str(normalize(...))``);
* for a builtin expression, the class of ``g_map`` with the builtin
  compactifications and the text of its ``compact_expr``;
* its ``euler``, ``e``, ``poincare`` and ``count:3`` values.

``digest(seed, files)`` computes the digest; ``tests/test_kring.py``
compares it with the file.  Run from the repository root:

    PYTHONPATH=src python tests/fixtures/make_eval_pin.py --seed 11 --files 4
"""

import argparse
import hashlib
import json
import pathlib
import random

from kvar import corpus, kring, measures

TOWERS = (12, 8)          # levels per tower
OPENS = 8                 # open decompositions per file
FILE_EXPRS = 2            # expressions over the file
BUILTIN_EXPRS = 1         # expressions over the builtins
CLAUSES = 200             # clauses per expression
MEASURES = ("euler", "e", "poincare", "count:3")


def relation_file(rng: random.Random, tag: int) -> tuple:
    """A relation file's JSON text, its expressions over the file and its
    expressions over the builtins."""
    records, dims, compact, levels, blown = [], {}, {}, [], []
    for t, length in enumerate(TOWERS):
        base = rng.choice(["P2", "P3", "A2", "A3"])
        n = int(base[1:])
        prev = base
        for k in range(1, length + 1):
            y = f"T{tag}t{t}n{k}"
            dims[y], compact[y] = n, base[0] == "P"
            # every record declares the generators it names, in any order
            declared = [name for name in (y, prev) if name in dims]
            records.append({"kind": "smooth_blowup",
                            "slots": {"E": f"P{n - 1}", "Y": y, "C": "pt", "X": prev},
                            "dims": {name: n for name in declared},
                            "compact": {name: compact[name] for name in declared}})
            blown.append(prev)
            levels.append(y)
            prev = y
    for j in range(OPENS):
        u = rng.choice(list(dims))
        n = dims[u]
        v = f"V{tag}o{j}"
        complement = rng.choice(["pt", "P1", "A1", f"A{n - 1}", f"P{n - 1}"])
        records.append({"kind": "open", "slots": {"X": v, "U": u, "complement": complement},
                        "dims": {v: n, u: n}, "compact": {v: False, u: compact[u]}})
        dims[v], compact[v] = n, False
    records.append({"kind": "generator", "name": f"W{tag}", "dim": 1})
    rng.shuffle(records)
    names = sorted(dims)

    def clause() -> str:
        roll = rng.random()
        if roll < 0.25:
            return rng.choice(names)
        if roll < 0.4:
            return f"{rng.randint(2, 5)}*{rng.choice(names)}"
        if roll < 0.55:
            return f"{rng.choice(names)}*{corpus._random_expression(rng)}"
        if roll < 0.65:
            return f"{rng.choice(levels)}*{rng.choice(levels)}"
        if roll < 0.75:
            return f"Bl({rng.choice(blown)};pt)"
        if roll < 0.82:
            return f"E({rng.choice(blown)};pt)"
        return corpus._random_expression(rng)

    def join(clauses: list) -> str:
        return "".join([clauses[0]] + [f" {rng.choice('+-')} {c}" for c in clauses[1:]])

    file_exprs = [join([clause() for _ in range(CLAUSES)]) for _ in range(FILE_EXPRS)]
    file_exprs[-1] += f" - W{tag}"  # a residual class, which no measure values
    builtin_exprs = [join([corpus._random_expression(rng) for _ in range(CLAUSES)])
                     for _ in range(BUILTIN_EXPRS)]
    return json.dumps(records), file_exprs, builtin_exprs


def _attempt(fn) -> tuple:
    """``fn()`` and its text, or None and the text of the error it raises."""
    try:
        value = fn()
    except kring.KringError as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return value, str(value)


def _mapped(tree: kring.Expr, table: kring.CompactificationTable) -> str:
    mapped = kring.g_map(tree, table)
    return f"{mapped.kclass}\n{kring.expr_to_text(mapped.compact_expr)}"


def lines(seed: int, files: int):
    """Each line the digest takes, in order."""
    rng = random.Random(seed)
    specs = [measures.MeasureSpec.parse(m) for m in MEASURES]
    table = kring.CompactificationTable()
    for tag in range(files):
        text, file_exprs, builtin_exprs = relation_file(rng, tag)
        rels = kring.RelationSet.from_json(text)
        for source, exprs in ((rels, file_exprs), (None, builtin_exprs)):
            for expr_text in exprs:
                tree = kring.parse_expr(expr_text, source)
                yield kring.expr_to_text(tree)
                cls, cls_text = _attempt(lambda: kring.normalize(tree, source))
                yield cls_text
                if source is None:
                    yield _attempt(lambda: _mapped(tree, table))[1]
                for spec in specs:
                    yield _attempt(lambda: measures.apply_measure(spec, cls))[1] \
                        if cls is not None else "no class"


def digest(seed: int, files: int) -> str:
    h = hashlib.sha256()
    for line in lines(seed, files):
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--files", type=int, default=4)
    ap.add_argument("--out", default=str(pathlib.Path(__file__).with_name("eval_pin.json")))
    args = ap.parse_args()
    pin = {"seed": args.seed, "files": args.files, "sha256": digest(args.seed, args.files)}
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(pin) + "\n")


if __name__ == "__main__":
    main()
