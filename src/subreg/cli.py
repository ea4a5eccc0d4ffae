"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 domain-precondition violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import automata, classify as cls, comets, grammar as gr, hierarchy, regex as rx
from .classify import Family, Outcome
from .language import LanguageHandle


class InputError(Exception):
    pass


class DomainError(Exception):
    pass


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _read_regex_arg(arg: str) -> str:
    if os.path.isfile(arg):
        try:
            with open(arg, encoding="utf-8") as fh:
                return fh.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read regex file {arg}: {exc}") from exc
    return arg


def _language(arg: str, alphabet: str) -> LanguageHandle:
    if not alphabet:
        raise InputError("--alphabet is required")
    try:
        return LanguageHandle.from_text(_read_regex_arg(arg), tuple(alphabet))
    except rx.RegexError as exc:
        raise InputError(str(exc)) from exc


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise InputError(f"{flag} must be at least {low}, got {value}")


def cmd_classify(args) -> int:
    handle = _language(args.regex, args.alphabet)
    verdicts = cls.classify_all(handle)
    if args.format == "json":
        report = {
            "alphabet": list(handle.alphabet),
            "regex": rx.render(handle.regex),
            "verdicts": [verdicts[f].to_json() for f in Family],
        }
        print(_dump_json(report))
    else:
        print(f"language {rx.render(handle.regex)} over "
              f"{{{','.join(handle.alphabet)}}}")
        for f in Family:
            v = verdicts[f]
            line = f"{f.value:6} {v.outcome.value}"
            if v.certificate is not None:
                line += f"  certificate {json.dumps(v.certificate, sort_keys=True)}"
            if v.reason:
                line += f"  ({v.reason})"
            print(line)
    return 0


def cmd_nf2com(args) -> int:
    alphabet = tuple(args.alphabet)
    try:
        parts = [rx.parse_regex(_read_regex_arg(t), alphabet)
                 for t in (args.e, args.g, args.h)]
    except rx.RegexError as exc:
        raise InputError(str(exc)) from exc
    try:
        deco = comets.CometDecomposition(alphabet, *parts)
        result = (comets.right_normal_form(deco) if args.side == "right"
                  else comets.left_normal_form(deco))
    except comets.CometError as exc:
        raise DomainError(str(exc)) from exc
    if args.format == "json":
        print(_dump_json(result.to_json()))
    else:
        print(f"normal form ({result.finite_side} tail finite), "
              f"single_comet={str(result.single_comet).lower()}, "
              f"verified={str(result.verified).lower()}")
        for c in result.components:
            data = c.to_json()
            e_part = (("{" + ", ".join(w or "ε" for w in data["E"]) + "}")
                      if isinstance(data["E"], list) else data["E"])
            h_part = (("{" + ", ".join(w or "ε" for w in data["H"]) + "}")
                      if isinstance(data["H"], list) else data["H"])
            print(f"  E = {e_part}   G = {data['G']}   H = {h_part}")
    return 0 if result.verified else 1


def _load_grammar(path: str) -> gr.ContextualGrammar:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # bad UTF-8 or JSON, an integer too long to convert, deep nesting
        raise InputError(f"cannot read grammar {path}: {exc}") from exc
    try:
        g = gr.grammar_from_json(data)
        gr.validate(g)
        return g
    except (gr.GrammarError, rx.RegexError) as exc:
        raise InputError(str(exc)) from exc


def cmd_grammar(args) -> int:
    """Run one grammar subcommand on the grammar file, loaded once after
    the subcommand's own arguments are checked."""
    if args.gcommand == "enum":
        _at_least("-n/--max-length", args.max_length, 0)
    g = _load_grammar(args.grammar)
    if args.gcommand == "validate":
        m = gr.measures(g)
        if args.format == "json":
            print(_dump_json({"measures": m.to_json(), "valid": True}))
        else:
            print(f"valid; l_A={m.l_a} l_C={m.l_c} l={m.l}")
        return 0
    if args.gcommand == "enum":
        words = gr.enumerate_language(g, args.max_length)
        if args.format == "json":
            print(_dump_json({"n": args.max_length, "words": words}))
        else:
            for w in words:
                print(w or "ε")
        return 0
    if args.gcommand == "member":
        word = "" if args.word == "ε" else args.word
        ok = gr.member(g, word)
        if args.format == "json":
            print(_dump_json({"member": ok, "word": word}))
        else:
            print("yes" if ok else "no")
        return 0
    if args.gcommand == "classify":
        maps = gr.classify_selections(g)
        if args.format == "json":
            report = [{
                "component": i,
                "selection": rx.render(comp.selection.regex),
                "verdicts": [verdicts[f].to_json() for f in Family],
            } for i, (comp, verdicts) in enumerate(zip(g.components, maps))]
            print(_dump_json(report))
        else:
            for i, (comp, verdicts) in enumerate(zip(g.components, maps)):
                print(f"component {i}: {rx.render(comp.selection.regex)} over "
                      f"{{{','.join(comp.selection.alphabet)}}}")
                yes = [f.value for f in Family
                       if verdicts[f].outcome is Outcome.YES]
                unknown = [f.value for f in Family
                           if verdicts[f].outcome is Outcome.UNKNOWN]
                print(f"  yes: {', '.join(yes) or '-'}")
                if unknown:
                    print(f"  unknown: {', '.join(unknown)}")
        return 0
    try:  # transform, the last subcommand
        if args.kind == "rcom":
            out = gr.transform_to_rcom(g)
        elif args.kind == "lcom":
            out = gr.transform_to_lcom(g)
        elif args.kind == "elimlambda":
            out = gr.eliminate_empty_word_selection(g)
        else:
            out = gr.definite_to_sydef(g)
    except gr.GrammarError as exc:
        raise DomainError(str(exc)) from exc
    print(_dump_json(out.to_json()))
    return 0


def cmd_hierarchy(args) -> int:
    if args.hcommand == "verify":
        _at_least("--corpus-size", args.corpus_size, 1)
        report = hierarchy.verify_witnesses()
        edges = hierarchy.edge_consistency_check(
            hierarchy.random_corpus(args.corpus_size))
        combined = {"edge_consistency": edges, "witnesses": report}
        ok = report["n_failed"] == 0 and edges["n_violations"] == 0
        if args.format == "json":
            print(_dump_json(combined))
        else:
            print(f"witness claims: {report['n_passed']} passed, "
                  f"{report['n_failed']} failed, "
                  f"{report['n_skipped']} provenance-only")
            for item in report["failed"]:
                print(f"  FAIL {item['witness']} {item['family']}="
                      f"{item['expected']}: {item['reason']}")
            print(f"edge consistency: {edges['n_violations']} violations "
                  f"over {edges['corpus_size']} corpus languages")
        return 0 if ok else 1
    if args.hcommand == "query":
        graph = hierarchy.GRAPHS[args.graph]
        try:
            rel = graph.query(args.x, args.y)
        except hierarchy.HierarchyError as exc:
            raise InputError(str(exc)) from exc
        if args.format == "json":
            print(_dump_json({"relation": rel.value, "x": args.x, "y": args.y}))
        else:
            print(rel.value)
        return 0
    print(hierarchy.GRAPHS[args.graph].to_dot(), end="")  # dot
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one, so `main` builds it once per process.  Each subcommand's
    handler is bound when the parser is built: replacing a `cmd_*`
    function afterwards does not change what `main` calls."""
    parser = argparse.ArgumentParser(
        prog="subreg",
        description="Workbench for subregular language families, comet "
                    "normal forms, and external contextual grammars.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("classify", help="classify a regex into every family")
    p.add_argument("regex", help="regex literal or path to a regex file")
    p.add_argument("--alphabet", required=True)
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("nf2com", help="left/right normal form of E G* H")
    p.add_argument("e")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--side", choices=("left", "right"), default="left")
    add_format(p)
    p.set_defaults(func=cmd_nf2com)

    p = sub.add_parser("grammar", help="contextual grammar operations")
    gsub = p.add_subparsers(dest="gcommand", required=True)
    for name in ("validate", "enum", "member", "classify", "transform"):
        q = gsub.add_parser(name)
        q.add_argument("grammar", help="grammar JSON file")
        if name == "enum":
            q.add_argument("-n", "--max-length", type=int, default=6)
        if name == "member":
            q.add_argument("word", help="word to test (ε for the empty word)")
        if name == "transform":  # prints JSON, so takes no --format
            q.add_argument("kind",
                           choices=("rcom", "lcom", "elimlambda", "def2sydef"))
        else:
            add_format(q)
        q.set_defaults(func=cmd_grammar)

    p = sub.add_parser("hierarchy", help="hierarchy graphs and verification")
    hsub = p.add_subparsers(dest="hcommand", required=True)
    q = hsub.add_parser("verify")
    q.add_argument("--corpus-size", type=int, default=1000)
    add_format(q)
    q.set_defaults(func=cmd_hierarchy)
    q = hsub.add_parser("query")
    q.add_argument("x")
    q.add_argument("y")
    q.add_argument("--graph", choices=("fig1", "fig2"), default="fig1")
    add_format(q)
    q.set_defaults(func=cmd_hierarchy)
    q = hsub.add_parser("dot")
    q.add_argument("graph", choices=("fig1", "fig2"))
    q.set_defaults(func=cmd_hierarchy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (rx.RegexError, rx.AlphabetError,
            automata.AlphabetMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (cls.ConsistencyError, cls.CertificateError) as exc:
        # the verdicts contradict the hierarchy, or a certificate cannot
        # be checked: a verification failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
