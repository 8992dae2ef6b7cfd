"""Write the golden parse corpus ``tests/cql/golden/parse_corpus.json``.

    PYTHONPATH=src python3 tools/gen_parse_corpus.py

The corpus maps each query text to what the frontend makes of it: its
tokens, the ``repr`` of the CQL AST (``parse_query``) and of the
streaming-SQL AST (``parse_statement``), or the ``ParseError`` each step
raises, message and position.  ``tests/cql/test_parse_corpus.py``
replays it, so a rewrite of the lexer or parser must reproduce every
entry exactly.  Regenerate it only on purpose, when the accepted
language changes.

The texts are every string literal in ``tests/`` and ``examples/`` that
holds the word SELECT, 1 000 ``difftest`` queries (seeds 0-999), the
96 ``query_fleet`` texts, and the edge cases in :data:`EDGE_CASES`.
"""

from __future__ import annotations

import ast
import json
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "cql" / "golden" / "parse_corpus.json"

#: Lexer and precedence corners: decimal digits beyond ASCII, a
#: superscript (a name character, not a digit), a malformed number, an
#: escaped quote, an unterminated string, a comment, comparison chains,
#: NOT against comparison, stacked unary minus, trailing statements.
EDGE_CASES = (
    "٣", "1٣.5", "x² > 1", "[Range ²]", "1.2.3", "'it''s'", "'oops",
    "-- comment",
    "SELECT ٣ AS n FROM S",
    "SELECT 1٣.5 AS n FROM S",
    "SELECT a FROM S WHERE x² > 1",
    "SELECT a FROM S [Range ²]",
    "SELECT a FROM S WHERE a > 1.2.3",
    "SELECT a FROM S WHERE b = 'it''s'",
    "SELECT a FROM S WHERE b = 'oops",
    "SELECT a -- comment\nFROM S",
    "SELECT a FROM S -- comment",
    "SELECT a FROM S WHERE a = b = c",
    "SELECT a FROM S WHERE a < b > c",
    "SELECT a FROM S WHERE NOT a = b",
    "SELECT a FROM S WHERE NOT NOT a = b AND c OR d",
    "SELECT - -x AS y FROM S",
    "SELECT -x * -y - -z % 2 / 3 AS y FROM S",
    "SELECT a FROM S WHERE a + b * c - d / e % f >= -g",
    "SELECT a FROM S WHERE (a OR b) AND NOT (c OR d)",
    "SELECT a FROM S WHERE a = 1 OR b = 2 AND c = 3",
    "SELECT a FROM S WHERE NOT",
    "SELECT a FROM S WHERE a =",
    "SELECT a FROM S WHERE a = (b",
    "SELECT a FROM S WHERE a <> b AND a != c",
    "SELECT MIN(a), MIN AS m FROM S",
    "SELECT f(*), g(), h(a, b + 1) FROM S",
    "SELECT a FROM S; SELECT b FROM S",
    "SELECT a FROM S;",
    "SELECT a FROM S ;;",
    "SELECT a FROM S @",
    "SELECT .5 AS h, 5. AS f FROM S",
    "SELECT a FROM S WHERE a > 1 -",
)


def literal_texts() -> set[str]:
    """Every string constant in ``tests/`` and ``examples/`` that holds
    the word SELECT (f-strings are not constants and are skipped)."""
    select = re.compile(r"\bselect\b", re.IGNORECASE)
    texts = set()
    for folder in ("tests", "examples"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and \
                        isinstance(node.value, str) and \
                        select.search(node.value):
                    texts.add(node.value)
    return texts


def generated_texts() -> set[str]:
    from repro.difftest.generators import gen_query

    return {gen_query(random.Random(seed)) for seed in range(1000)}


def fleet_texts() -> set[str]:
    sys.path.insert(0, str(ROOT))
    from cqbench.workloads import QueryFleet

    return set(QueryFleet.POOL)


def outcomes(text: str) -> dict[str, str]:
    """What the lexer and both parsers make of ``text``: the tokens as
    ``type:text@position`` words and each AST's ``repr``, or the
    ``ParseError`` raised.  The corpus test calls this too."""
    from repro.core.errors import ParseError
    from repro.cql.lexer import tokenize
    from repro.cql.parser import parse_query
    from repro.sql.parser import parse_statement

    def tokens(text):
        return " ".join(f"{token.type.value}:{token.text!r}@"
                        f"{token.position}" for token in tokenize(text))

    out = {}
    for step, render in (("tokens", tokens),
                         ("cql", lambda t: repr(parse_query(t))),
                         ("sql", lambda t: repr(parse_statement(t)))):
        try:
            out[step] = render(text)
        except ParseError as err:
            out[step] = f"ParseError({str(err)!r}, {err.position!r})"
    return out


def main() -> None:
    texts = (literal_texts() | generated_texts() | fleet_texts()
             | set(EDGE_CASES))
    OUT.parent.mkdir(parents=True, exist_ok=True)
    entries = {text: outcomes(text) for text in sorted(texts)}
    OUT.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n",
                   encoding="utf-8")
    print(f"{OUT.relative_to(ROOT)}: {len(texts)} texts")


if __name__ == "__main__":
    main()
