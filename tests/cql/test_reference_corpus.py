"""The denotational reference against its golden digests.

``golden/reference_corpus.json`` holds a sha256 per case of what the
reference makes of it: ``reference_evaluate`` over the naive and the
optimised plan of 300 ``difftest`` CQL cases, and ``recompute`` of every
view of 100 ``difftest`` view DAGs after each base-table step.  Every
differential check compares against this reference, so a rewrite of it
must reproduce every digest exactly; ``tools/gen_reference_corpus.py``
wrote the corpus and can rewrite it when the semantics change on
purpose.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
CORPUS = pathlib.Path(__file__).resolve().parent / "golden" / \
    "reference_corpus.json"


def _generator():
    spec = importlib.util.spec_from_file_location(
        "gen_reference_corpus", ROOT / "tools" / "gen_reference_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_reference_reproduces_the_golden_digests():
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    got = _generator().digests()
    assert sorted(got) == sorted(corpus)
    mismatched = [key for key, digest in corpus.items()
                  if got[key] != digest]
    assert not mismatched, (
        f"{len(mismatched)} of {len(corpus)} digests differ; first: "
        f"{mismatched[0]}")

