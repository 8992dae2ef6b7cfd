"""The lexer and both parsers against the golden parse corpus.

``golden/parse_corpus.json`` holds, for ~1 400 texts (every query
literal in ``tests/`` and ``examples/``, 1 000 ``difftest`` queries, the
``query_fleet`` pool and hand-picked lexer and precedence corners), the
tokens, the CQL and streaming-SQL ASTs, or the ``ParseError`` with its
position.  Any rewrite of the frontend must reproduce it exactly;
``tools/gen_parse_corpus.py`` wrote it and can rewrite it when the
accepted language changes on purpose.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
CORPUS = pathlib.Path(__file__).resolve().parent / "golden" / \
    "parse_corpus.json"


def _generator():
    spec = importlib.util.spec_from_file_location(
        "gen_parse_corpus", ROOT / "tools" / "gen_parse_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_frontend_reproduces_the_golden_corpus():
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    outcomes = _generator().outcomes
    mismatched = [(text, want, got) for text, want in corpus.items()
                  if (got := outcomes(text)) != want]
    assert not mismatched, (
        f"{len(mismatched)} of {len(corpus)} texts differ; first: "
        f"{mismatched[0]!r}")


def test_the_corpus_covers_the_edge_cases_and_errors():
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert len(corpus) >= 1_300
    for text in _generator().EDGE_CASES:
        assert text in corpus
    errors = " ".join(entry["tokens"] for entry in corpus.values())
    for message in ("unexpected character", "unterminated string literal",
                    "malformed number"):
        assert message in errors
