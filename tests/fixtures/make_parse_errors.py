"""Write ``parse_errors.json``: seeded malformed expressions and the
``ParseError`` each one raises.

Every input is parsed against ``standard_relations()``.  Each entry is
``[text, message, position]``, where ``message`` is the error's text and
``position`` its ``position`` attribute.  Inputs that parse are skipped,
and so are long ones that fail before their long piece.

Run from the repository root:

    PYTHONPATH=src python tests/fixtures/make_parse_errors.py --seed 23 --count 500
"""

import argparse
import json
import pathlib
import random
import sys

from kvar.kring import ParseError, parse_expr, standard_relations

LONG_DIGITS = "9" * (sys.get_int_max_str_digits() + 1)

PIECES = {
    "grammar": ["+", "-", "*", "(", ")", ";", "Bl", "E", "Bl(", "E(", "2", "0", "17"],
    "names": ["P2", "pt", "A1", "Gm", "L", "empty", "P3", "A4", "P0", "A0",
              "P99999999999999999999"],
    "unknown": ["noSuch", "X", "Bl1", "E2", "p2", "PT"],
    "bad": ["$", "#", "é", "²", "^", "/", ".", ",", "[", "_", "{", "!"],
    "digits": ["٣", "12٣", "007"],
    "long": [LONG_DIGITS, "P" + LONG_DIGITS[:-1] + "0", "A" + LONG_DIGITS],
    "parens": ["(" * 199, "(" * 200, "(" * 201, ")" * 3, "((", "))"],
    "squares": ["Bl(", "Bl(P2", "Bl(P2;", "Bl(P2;pt", "Bl(P2;pt)", "E(P3;pt",
                "E(P3;pt)", "Bl(P2;P1)", "E(A5;pt)", "Bl(noSuch;pt)", "E(P2;;",
                "Bl(P2 pt)", "Bl(2;pt)", "E()", "Bl(P2;pt;", "Bl (", "E ( A2 ; pt )"],
}
# how often each kind of piece is drawn: few long ones keep the file small
WEIGHTS = {"grammar": 30, "names": 20, "squares": 20, "unknown": 8, "bad": 8,
           "parens": 4, "digits": 4, "long": 3}
# a text past 300 characters is kept only if it fails on a long piece,
# so that long pieces past the error do not bloat the file
LONG_MESSAGES = ("too long", "index longer", "nested deeper")
SPACES = ["", "", " ", "  ", "\t", "\n"]
CLAUSES = ["P2", "pt", "A1", "Gm", "L", "3", "Bl(P2;pt)", "E(P3;pt)", "(P1 + A1)",
           "2*Gm", "Bl(A2;pt)*L", "(pt - (P1 - 1))"]


def _jumble(rng: random.Random, pick) -> str:
    """One to eight pieces, each followed by some whitespace."""
    return "".join(pick() + rng.choice(SPACES) for _ in range(rng.randint(1, 8)))


def _mutant(rng: random.Random, pick) -> str:
    """A well-formed sum of products with one or two pieces inserted,
    characters deleted or the tail cut off, so errors fall deep in the text."""
    text = rng.choice(CLAUSES)
    for _ in range(rng.randint(0, 5)):
        text += rng.choice([" + ", " - ", "*", "+", " -"]) + rng.choice(CLAUSES)
    for _ in range(rng.randint(1, 2)):
        at = rng.randint(0, len(text))
        roll = rng.random()
        if roll < 0.6:
            text = text[:at] + pick() + text[at:]
        elif roll < 0.8:
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at]
    return text


def malformed(seed: int, count: int) -> list:
    rng = random.Random(seed)
    rels = standard_relations()
    kinds = sorted(PIECES)
    weights = [WEIGHTS[k] for k in kinds]

    def pick() -> str:
        return rng.choice(PIECES[rng.choices(kinds, weights)[0]])

    out, seen = [], set()
    while len(out) < count:
        text = (_jumble if rng.random() < 0.5 else _mutant)(rng, pick)
        if text in seen:
            continue
        seen.add(text)
        try:
            parse_expr(text, rels)
        except ParseError as err:
            if len(text) <= 300 or any(m in str(err) for m in LONG_MESSAGES):
                out.append([text, str(err), err.position])
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=23)
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--out", default=str(pathlib.Path(__file__).with_name("parse_errors.json")))
    args = ap.parse_args()
    entries = malformed(args.seed, args.count)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")


if __name__ == "__main__":
    main()
