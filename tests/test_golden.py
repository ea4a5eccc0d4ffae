"""Golden pins of the classifier's JSON output.

`golden/classify_all.jsonl` holds the `classify_all` verdicts of every
registry language and every fixture selection.
`golden/twocom_corpus.jsonl` holds the 2COM verdict of each language of
`random_corpus(1000)` under `CORPUS_CONFIG`; criterion 9 checks it inside
its own corpus pass.  `golden/nf2com.jsonl` holds the left and right
normal forms of the 1000 criterion-4 decompositions, and
`golden/grammar.jsonl` the exit code and JSON output of every `grammar`
subcommand on every fixture.  `golden/ord_search.jsonl` pins the ORD
split search itself, not only its answer: for each language of
`random_corpus(300)` the ORD verdict under `CORPUS_CONFIG`, and the
split automaton that `_split_order(dfa, 2, [8000])` finds with the budget
it leaves, so a change that reorders the search fails here.  All are one
JSON object per line.  Rewrite them with
`PYTHONPATH=src python tests/test_golden.py [NAME...]` only for a change
that is meant to alter an output; each NAME is a file name above, such as
`ord_search.jsonl`, and with no name every file is rewritten.
"""

import contextlib
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

from subreg import classify as cl, cli, comets, grammar as gr, \
    hierarchy as hi, regex as rx
from subreg.classify import Family

GOLDEN = Path(__file__).parent / "golden"
AB = ("a", "b")


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
    for tag, h in _languages():
        verdicts = cl.classify_all(h)
        out.append(line({
            "language": tag,
            "alphabet": "".join(h.alphabet), "regex": rx.render(h.regex),
            "verdicts": {f.value: v.to_json() for f, v in verdicts.items()},
        }))
    return out


def regex_pool(max_nodes, alphabet=AB):
    """Every regex tree with at most `max_nodes` nodes, by node count."""
    atoms = [rx.EMPTY] + [rx.Sym(a) for a in alphabet]
    by_size = {1: list(atoms)}
    for n in range(2, max_nodes + 1):
        out = [rx.Star(r) for r in by_size[n - 1]]
        for i in range(1, n - 1):
            for left in by_size[i]:
                for right in by_size[n - 1 - i]:
                    out.append(rx.Cat(left, right))
                    out.append(rx.Union(left, right))
        by_size[n] = out
    return by_size


def comet_sample(count=1000):
    """The criterion-4 decompositions: E, G and H drawn from the regexes
    of at most 6 nodes (seed 20240812), skipping a draw whose middle is
    empty or {λ}."""
    rng = random.Random(20240812)
    pool = [r for lst in regex_pool(6).values() for r in lst]
    out = []
    while len(out) < count:
        e, g, h = (rng.choice(pool) for _ in range(3))
        try:
            out.append(comets.CometDecomposition(AB, e, g, h))
        except comets.CometError:
            continue
    return out


def nf2com_lines() -> list[str]:
    return [line({"input": d.to_json(),
                  "left": comets.left_normal_form(d).to_json(),
                  "right": comets.right_normal_form(d).to_json()})
            for d in comet_sample()]


def _grammar_commands(alphabet):
    words = ["ε", *("".join(w) for n in (1, 2)
                    for w in itertools.product(alphabet, repeat=n)),
             "abab", "cabc"]
    return [["validate"], ["enum", "-n", "6"],
            *(["member", w] for w in words), ["classify"],
            *(["transform", kind]
              for kind in ("rcom", "lcom", "elimlambda", "def2sydef"))]


def grammar_lines(directory) -> list[str]:
    out = []
    for name, g in gr.fixtures().items():
        path = Path(directory) / f"{name}.json"
        path.write_text(json.dumps(g.to_json()))
        for command in _grammar_commands(g.alphabet):
            stdout = io.StringIO()
            fmt = [] if command[0] == "transform" else ["--format", "json"]
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["grammar", command[0], str(path),
                                 *command[1:], *fmt])
            out.append(line({"fixture": name, "command": command,
                             "exit": code, "stdout": stdout.getvalue()}))
    return out


def ord_search_lines() -> list[str]:
    out = []
    for h in hi.random_corpus(300):
        budget = [8000]
        try:
            found = cl._split_order(h.dfa, 2, budget)
        except cl.ResourceCapExceeded:
            found = None
        out.append(line({
            "regex": rx.render(h.regex),
            "ORD": cl.classify(h, Family.ORD, hi.CORPUS_CONFIG).to_json(),
            "split": found, "budget_left": budget[0],
        }))
    return out


def test_classify_all_matches_golden():
    assert classify_all_lines() == read_golden("classify_all.jsonl")


def test_nf2com_matches_golden():
    assert nf2com_lines() == read_golden("nf2com.jsonl")


def test_grammar_matches_golden(tmp_path):
    assert grammar_lines(tmp_path) == read_golden("grammar.jsonl")


def test_ord_search_matches_golden():
    assert ord_search_lines() == read_golden("ord_search.jsonl")


def twocom_corpus_lines() -> list[str]:
    return [twocom_line(h, cl.classify_all(h, hi.CORPUS_CONFIG))
            for h in hi.random_corpus(1000)]


def _grammar_golden_lines() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        return grammar_lines(tmp)


RECORDERS = {
    "classify_all.jsonl": classify_all_lines,
    "nf2com.jsonl": nf2com_lines,
    "ord_search.jsonl": ord_search_lines,
    "grammar.jsonl": _grammar_golden_lines,
    "twocom_corpus.jsonl": twocom_corpus_lines,
}


if __name__ == "__main__":
    names = sys.argv[1:] or list(RECORDERS)
    for name in names:
        if name not in RECORDERS:
            sys.exit(f"error: no golden file {name!r}; "
                     f"choose from {', '.join(RECORDERS)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        (GOLDEN / name).write_text("\n".join(RECORDERS[name]()) + "\n")
