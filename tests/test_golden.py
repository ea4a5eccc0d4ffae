"""Golden pins of the classifier's JSON output.

`golden/classify_all.jsonl` holds the `classify_all` verdicts of every
registry language and every fixture selection at 2COM bounds 1 and 2.
`golden/twocom_corpus.jsonl` holds the 2COM verdict of each language of
`random_corpus(1000)` under `CORPUS_CONFIG`; criterion 9 checks it inside
its own corpus pass.  Both are one JSON object per line.  Rewrite them
with `PYTHONPATH=src python tests/test_golden.py` only for a change that
is meant to alter a verdict.
"""

import json
from dataclasses import replace
from pathlib import Path

from subreg import classify as cl, grammar as gr, hierarchy as hi, regex as rx
from subreg.classify import DEFAULT_CONFIG, Family

GOLDEN = Path(__file__).parent / "golden"


def line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def read_golden(name) -> list[str]:
    return (GOLDEN / name).read_text().splitlines()


def twocom_line(handle, verdicts) -> str:
    return line({"regex": rx.render(handle.regex),
                 "2COM": verdicts[Family.TWOCOM].to_json()})


def _languages():
    for entry in hi.registry():
        if entry.kind == "language":
            yield f"registry {entry.id}", entry.language()
    for name, g in gr.fixtures().items():
        for i, comp in enumerate(g.components):
            yield f"fixture {name} {i}", comp.selection


def classify_all_lines() -> list[str]:
    out = []
    for bound in (1, 2):
        config = replace(DEFAULT_CONFIG, twocom_bound=bound)
        for tag, h in _languages():
            verdicts = cl.classify_all(h, config)
            out.append(line({
                "bound": bound, "language": tag,
                "alphabet": "".join(h.alphabet), "regex": rx.render(h.regex),
                "verdicts": {f.value: v.to_json() for f, v in verdicts.items()},
            }))
    return out


def test_classify_all_matches_golden():
    assert classify_all_lines() == read_golden("classify_all.jsonl")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "classify_all.jsonl").write_text(
        "\n".join(classify_all_lines()) + "\n")
    corpus = [twocom_line(h, cl.classify_all(h, hi.CORPUS_CONFIG))
              for h in hi.random_corpus(1000)]
    (GOLDEN / "twocom_corpus.jsonl").write_text("\n".join(corpus) + "\n")
