"""Span recording around subreg's public functions, from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
``subreg`` module namespace that holds it (``from .automata import
determinize`` makes ``classify.determinize`` a second binding), and each
traced method on its class.  A wrapper records one span per call: name,
start, end, parent span and an optional tag.  Spans stay in memory;
`per_layer_metrics` turns them into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

_now = time.perf_counter_ns

# (module, attribute or Class.method, span name); a span name of None means
# the name comes from the call's arguments (classify names the family).
SPANNED = [
    ("subreg.classify", "classify", None),
    ("subreg.automata", "transition_monoid", "automata.transition_monoid"),
    ("subreg.automata", "compile_regex", "automata.compile_regex"),
    ("subreg.automata", "determinize", "automata.determinize"),
    ("subreg.automata", "minimize", "automata.minimize"),
    ("subreg.automata", "equivalent", "automata.equivalent"),
    ("subreg.automata", "enumerate_words", "automata.enumerate_words"),
    ("subreg.language", "LanguageHandle.__init__", "language.handle"),
    ("subreg.regex", "words_up_to", "regex.words_up_to"),
    ("subreg.regex", "parse_regex", "regex.parse"),
    ("subreg.regex", "union_normal_form", "regex.union_normal_form"),
    ("subreg.grammar", "enumerate_language", "grammar.enumerate_language"),
    ("subreg.grammar", "member", "grammar.member"),
    ("subreg.grammar", "transform_to_rcom", "grammar.transform"),
    ("subreg.grammar", "transform_to_lcom", "grammar.transform"),
    ("subreg.grammar", "eliminate_empty_word_selection", "grammar.transform"),
    ("subreg.grammar", "definite_to_sydef", "grammar.transform"),
    ("subreg.grammar", "classify_selections", "grammar.classify_selections"),
    ("subreg.grammar", "grammar_from_json", "grammar.from_json"),
    ("subreg.comets", "left_normal_form", "comets.left_normal_form"),
    ("subreg.comets", "right_normal_form", "comets.right_normal_form"),
    ("subreg.hierarchy", "HierarchyGraph.query", "hierarchy.query"),
    ("subreg.hierarchy", "random_corpus", "hierarchy.random_corpus"),
    ("subreg.cli", "main", "cli.main"),
]

# Called on every word a grammar command tests, so only counted.
COUNTED = [("subreg.automata", "Dfa.accepts", "automata.accepts_calls")]

# Span name -> count name, summed over the size of each call's result.
SIZE_COUNTS = {
    "automata.transition_monoid": ("automata.monoid_size", len),
    "automata.compile_regex": ("automata.nfa_states", lambda r: r.n_states),
    "automata.determinize": ("automata.dfa_states", lambda r: r.n_states),
    "automata.minimize": ("automata.min_states", lambda r: r.n_states),
    "comets.left_normal_form": ("comets.components",
                                lambda r: len(r.components)),
    "comets.right_normal_form": ("comets.components",
                                 lambda r: len(r.components)),
}

NAME, START, END, PARENT, TAG = range(5)


def _resolve(path):
    module_name, attr, _ = path
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(module, cls_name), meth
    return module, attr


class Tracer:
    """Records spans while installed and active; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.active = True
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "subreg"
                                         or name.startswith("subreg."))]
        for path in SPANNED + COUNTED:
            owner, attr = _resolve(path)
            original = owner.__dict__[attr]
            if path in COUNTED:
                wrapper = self._counting(original, path[2])
            else:
                wrapper = self._spanning(original, path[2])
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.counts = {}

    # -- wrappers ----------------------------------------------------------

    def _counting(self, fn, count_name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[count_name] = self.counts.get(count_name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanning(self, fn, name):
        size = SIZE_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self.stack
            span = [name or _classify_span_name(args, kwargs), 0, 0,
                    stack[-1] if stack else -1, None]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = _now()
                stack.pop()
            if name is None:
                self._verdict(span, result)
            elif size is not None and not self._nested_normal_form(span):
                count_name, measure = size
                self.counts[count_name] = (self.counts.get(count_name, 0)
                                           + measure(result))
            return result
        return wrapper

    def _verdict(self, span, verdict) -> None:
        span[TAG] = verdict.outcome.value
        if span[NAME] == "classify.ORD" and span[TAG] == "unknown":
            reason = verdict.reason or ""
            for word, count_name in (("budget", "classify.ORD.budget_exhausted"),
                                     ("state cap", "classify.ORD.state_cap")):
                if word in reason:
                    self.counts[count_name] = self.counts.get(count_name, 0) + 1

    def _nested_normal_form(self, span) -> bool:
        # right_normal_form calls left_normal_form on the reversed input;
        # count the components of the outer result only
        return (span[NAME] == "comets.left_normal_form" and span[PARENT] >= 0
                and self.spans[span[PARENT]][NAME] == "comets.right_normal_form")

    def dump(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counts": self.counts,
                       "fields": ["name", "start_ns", "end_ns", "parent", "tag"],
                       "spans": self.spans}, fh)


def _classify_span_name(args, kwargs) -> str:
    family = args[1] if len(args) > 1 else kwargs["family"]
    return "classify." + family.value


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def per_layer_metrics(spans, counts, names) -> dict[str, float]:
    """Self time in ms per span name, plus counts and classify verdicts."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        key = span[NAME] + "_ms"
        totals[key] = totals.get(key, 0.0) + own / 1e6
    totals.update(counts)
    ord_all = ord_decided = 0
    for span in spans:
        if not span[NAME].startswith("classify."):
            continue
        if span[TAG] == "unknown":
            key = span[NAME] + ".unknown"
            totals[key] = totals.get(key, 0) + 1
        if span[NAME] == "classify.ORD":
            ord_all += span[END] - span[START]
            if span[TAG] != "unknown":
                ord_decided += span[END] - span[START]
    totals["classify.ORD.useful_share"] = ord_decided / ord_all if ord_all else 0.0
    totals["cli.main_self_ms"] = totals.pop("cli.main_ms", 0.0)
    return {name: totals.get(name, 0) for name in names}
