"""External contextual grammars with regular selection.

A grammar (V, components, axioms) derives x => u x v whenever x lies in
a component's selection language and (u, v) is one of its contexts.
Contexts satisfy uv != λ, so every step strictly lengthens the word;
bounded enumeration and backward membership search both rest on that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import classify as cls, regex as rx
from .automata import enumerate_words
from .classify import Family, Outcome
from .language import LanguageHandle


class GrammarError(Exception):
    pass


FRESH_LETTER_POOL = "XYZWVUTSRQPONMLKJIHGFEDCBA"


@dataclass(frozen=True)
class Context:
    u: str
    v: str

    def to_json(self) -> dict:
        return {"u": self.u, "v": self.v}


@dataclass(frozen=True)
class SelectionComponent:
    selection: LanguageHandle          # over a sub-alphabet U of V
    contexts: tuple[Context, ...]
    # optional pre-supplied family certificates for the selection language
    certificates: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class ContextualGrammar:
    alphabet: tuple[str, ...]
    components: tuple[SelectionComponent, ...]
    axioms: tuple[str, ...]

    def to_json(self) -> dict:
        out = {
            "alphabet": list(self.alphabet),
            "axioms": list(self.axioms),
            "components": [],
        }
        for comp in self.components:
            entry = {
                "selection": {
                    "alphabet": list(comp.selection.alphabet),
                    "regex": rx.render(comp.selection.regex),
                },
                "contexts": [c.to_json() for c in comp.contexts],
            }
            if comp.certificates:
                entry["certificates"] = {
                    fam.value: cert for fam, cert in sorted(
                        comp.certificates.items(), key=lambda kv: kv[0].value)
                }
            out["components"].append(entry)
        return out


def _text(word) -> str:
    if not isinstance(word, str):
        raise TypeError(f"word {word!r} is not text")
    return word


def grammar_from_json(data: dict) -> ContextualGrammar:
    try:
        alphabet = rx.make_alphabet(data["alphabet"])
        if not isinstance(data["components"], list):
            raise TypeError("components must be a list")
        components = []
        for entry in data["components"]:
            sel = entry["selection"]
            handle = LanguageHandle.from_text(_text(sel["regex"]),
                                              sel["alphabet"])
            contexts = tuple(Context(_text(c["u"]), _text(c["v"]))
                             for c in entry["contexts"])
            certs = entry.get("certificates", {})
            if not isinstance(certs, dict):
                raise TypeError("certificates must be an object")
            certs = {cls.family_from_name(f): c for f, c in certs.items()}
            components.append(SelectionComponent(handle, contexts, certs))
        if not isinstance(data["axioms"], list):
            raise TypeError("axioms must be a list")
        return ContextualGrammar(alphabet, tuple(components),
                                 tuple(map(_text, data["axioms"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise GrammarError(f"malformed grammar description: {exc}") from exc


def validate(g: ContextualGrammar) -> None:
    """Raise GrammarError naming the first violated invariant."""
    letters = set(g.alphabet)
    if not g.axioms:
        raise GrammarError("axiom set must be non-empty")
    for w in g.axioms:
        if any(a not in letters for a in w):
            raise GrammarError(f"axiom {w!r} is not over the alphabet")
    for i, comp in enumerate(g.components):
        if not set(comp.selection.alphabet) <= letters:
            raise GrammarError(
                f"component {i}: selection alphabet not a subset of V")
        if not comp.contexts:
            raise GrammarError(f"component {i}: context set must be non-empty")
        for ctx in comp.contexts:
            if ctx.u == "" and ctx.v == "":
                raise GrammarError(
                    f"component {i}: context requires uv != λ")
            if any(a not in letters for a in ctx.u + ctx.v):
                raise GrammarError(
                    f"component {i}: context ({ctx.u!r},{ctx.v!r}) "
                    f"is not over the alphabet")


@dataclass(frozen=True)
class Measures:
    l_a: int
    l_c: int

    @property
    def l(self) -> int:
        return self.l_a + self.l_c + 1

    def to_json(self) -> dict:
        return {"l": self.l, "l_A": self.l_a, "l_C": self.l_c}


def measures(g: ContextualGrammar) -> Measures:
    validate(g)
    l_a = max(len(w) for w in g.axioms)
    l_c = max((len(ctx.u) + len(ctx.v)
               for comp in g.components for ctx in comp.contexts), default=0)
    return Measures(l_a, l_c)


def derive_step(g: ContextualGrammar, word: str) -> list[str]:
    out = set()
    for comp in g.components:
        if comp.selection.accepts(word):
            for ctx in comp.contexts:
                out.add(ctx.u + word + ctx.v)
    return sorted(out, key=lambda w: (len(w), w))


def enumerate_language(g: ContextualGrammar, n: int) -> list[str]:
    """Exactly L(g) restricted to length <= n, length-lex ordered."""
    seen = {w for w in g.axioms if len(w) <= n}
    frontier = sorted(seen, key=len)
    while frontier:
        nxt = []
        for w in frontier:
            for y in derive_step(g, w):
                if len(y) <= n and y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen, key=lambda w: (len(w), w))


def _peeled(g: ContextualGrammar, word: str):
    """The words that a context peels off `word` inside its selection."""
    for comp in g.components:
        for ctx in comp.contexts:
            if (len(ctx.u) + len(ctx.v) <= len(word)
                    and word.startswith(ctx.u) and word.endswith(ctx.v)):
                inner = word[len(ctx.u):len(word) - len(ctx.v)]
                if comp.selection.accepts(inner):
                    yield inner


def member(g: ContextualGrammar, word: str) -> bool:
    """Backward search: word is an axiom, or some context peels off to a
    shorter derivable word inside the matching selection.  The search
    keeps its own stack, so a derivation may take any number of steps."""
    if word in g.axioms:
        return True
    seen = {word}  # the memo: words whose search has begun
    stack = [_peeled(g, word)]
    while stack:
        for inner in stack[-1]:
            if inner in g.axioms:
                return True
            if inner not in seen:
                seen.add(inner)
                stack.append(_peeled(g, inner))
                break
        else:
            stack.pop()
    return False


def classify_selections(g: ContextualGrammar):
    """One Family -> Verdict map per component, each evaluated over the
    component's own selection alphabet under `DEFAULT_CONFIG`."""
    return [cls.classify_all(comp.selection) for comp in g.components]


def _fresh_letter(g: ContextualGrammar) -> str:
    used = set(g.alphabet)
    for comp in g.components:
        used |= set(comp.selection.alphabet)
    for letter in FRESH_LETTER_POOL:
        if letter not in used:
            return letter
    raise GrammarError("no fresh letter available in the pool")


def _with_middle_star(g: ContextualGrammar, on_left: bool) -> ContextualGrammar:
    x = _fresh_letter(g)
    components = []
    for comp in g.components:
        u = tuple(sorted(set(comp.selection.alphabet) | {x}))
        if on_left:
            new_regex = rx.cat(rx.star(rx.Sym(x)), comp.selection.regex)
        else:
            new_regex = rx.cat(comp.selection.regex, rx.star(rx.Sym(x)))
        handle = LanguageHandle(u, new_regex, check=False)
        components.append(SelectionComponent(handle, comp.contexts))
    alphabet = tuple(sorted(set(g.alphabet) | {x}))
    return ContextualGrammar(alphabet, tuple(components), g.axioms)


def transform_to_rcom(g: ContextualGrammar) -> ContextualGrammar:
    """Prefix every selection with {X}* for a fresh letter X; the result
    generates the same language and all selections are right comets."""
    validate(g)
    return _with_middle_star(g, on_left=True)


def transform_to_lcom(g: ContextualGrammar) -> ContextualGrammar:
    validate(g)
    return _with_middle_star(g, on_left=False)


def _split_selections(g: ContextualGrammar, parts) -> ContextualGrammar:
    """The grammar in which component i gives up a finite set Φ of its
    selection's words, parts[i] = (Φ, kept): `kept`, whose selection is
    the rest of i's, replaces it, and None drops it.  The language stays
    the same, since a step x => uxv with x in Φ needs a derivable x: each
    such uxv becomes an axiom."""
    axioms = set(g.axioms)
    for comp, (phi, _) in zip(g.components, parts):
        for w in phi:
            if member(g, w):
                axioms.update(ctx.u + w + ctx.v for ctx in comp.contexts)
    return ContextualGrammar(
        g.alphabet, tuple(kept for _, kept in parts if kept is not None),
        tuple(sorted(axioms, key=lambda w: (len(w), w))))


def eliminate_empty_word_selection(g: ContextualGrammar) -> ContextualGrammar:
    """Remove components whose selection is {λ}; if λ is derivable, their
    context words uv become axioms, preserving the generated language."""
    validate(g)
    lam = rx.LanguageClass.LAMBDA
    parts = [({""}, None) if rx.language_class(c.selection.regex) is lam
             else ((), c) for c in g.components]
    if all(kept is not None for _, kept in parts):
        return g
    return _split_selections(g, parts)


def definite_to_sydef(g: ContextualGrammar) -> ContextualGrammar:
    """Turn a grammar with definite selections A ∪ U*B into one with
    symmetric definite selections U*B, moving the finitely many words
    derived through A into the axioms (DEF reads no ClassifierConfig)."""
    validate(g)
    verdicts = [cls.classify(comp.selection, Family.DEF)
                for comp in g.components]
    for i, v in enumerate(verdicts):
        if v.outcome is not Outcome.YES:
            raise GrammarError(f"component {i}: selection is not definite")
        if "A" not in v.certificate:
            raise GrammarError(
                f"component {i}: definite split too large to materialize")
    parts = []
    for comp, verdict in zip(g.components, verdicts):
        a_part, b_part = verdict.certificate["A"], verdict.certificate["B"]
        kept = None  # an empty U*B side derives nothing more
        if b_part:
            u_alpha = comp.selection.alphabet
            h = rx.finite_language_regex(b_part)
            sydef = rx.cat(rx.star(rx.finite_language_regex(u_alpha)), h)
            kept = SelectionComponent(
                LanguageHandle(u_alpha, sydef, check=False), comp.contexts,
                {Family.SYDEF: {"E": "1", "H": rx.render(h)}})
        parts.append((a_part, kept))
    return _split_selections(g, parts)


# ---------------------------------------------------------------------------
# Fixture corpus


def _handle(text: str, alphabet: str) -> LanguageHandle:
    return LanguageHandle.from_text(text, tuple(alphabet))


def _grammar(alphabet, components, axioms) -> ContextualGrammar:
    g = ContextualGrammar(rx.make_alphabet(alphabet), tuple(components),
                          tuple(axioms))
    validate(g)
    return g


def _ctx(*pairs) -> tuple[Context, ...]:
    return tuple(Context(u, v) for u, v in pairs)


def fixtures() -> dict[str, ContextualGrammar]:
    """Named grammar corpus; closed forms live in fixture_words."""
    ex1 = _grammar("abc", [
        SelectionComponent(_handle("(a|b)*", "ab"), _ctx(("", "a"), ("", "b"))),
        SelectionComponent(_handle("(ab)*", "ab"), _ctx(("c", "c"))),
    ], ["" ])

    out = {
        "ex1": ex1,
        "nil_o_star": _grammar("ab", [
            SelectionComponent(
                _handle("(a|b)(a|b)(a|b)(a|b)(a|b)*", "ab"),
                _ctx(("a", ""))),
        ], ["abbb", ""]),
        "comb_o_pre_star": _grammar("ab", [
            SelectionComponent(_handle("(a|b)*a", "ab"), _ctx(("b", ""))),
        ], ["", "a"]),
        "suf_o_star": _grammar("abc", [
            SelectionComponent(_handle("(a|b)*", "ab"),
                               _ctx(("a", ""), ("b", ""), ("", "b"))),
            SelectionComponent(_handle("a*bb*|1", "ab"), _ctx(("c", "c"))),
        ], ["ab"]),
        "star_o_ps": _grammar("ab", [
            SelectionComponent(_handle("a*", "a"), _ctx(("", "a"))),
            SelectionComponent(_handle("(aa)*", "a"), _ctx(("b", "b"))),
        ], ["aa"]),
        "star_o_circ": _grammar("ab", [
            SelectionComponent(_handle("(aa*bb*)*", "ab"), _ctx(("a", "b"))),
            SelectionComponent(_handle("(bb*aa*)*", "ab"), _ctx(("b", "a"))),
        ], ["ab", "ba"]),
        "ord_o_sydef": ex1,
        "suf_o_sydef": _grammar("abc", [
            SelectionComponent(_handle("(a|b)*", "ab"),
                               _ctx(("", "a"), ("", "b"))),
            SelectionComponent(_handle("(1|b)(ab)*", "ab"), _ctx(("c", "c"))),
        ], [""]),
        "sydef_o_nc": _grammar("abc", [
            SelectionComponent(_handle("a(a|b|c)*", "abc"),
                               _ctx(("", "a"), ("b", "b"))),
            SelectionComponent(
                _handle("baa(aa)*b(a|b|c)*", "abc"), _ctx(("c", "c")),
                certificates={Family.SYDEF: {"E": "baa(aa)*b", "H": "1"}}),
        ], ["a"]),
    }
    return out


# Closed forms of the fixture languages. Most are regular; star_o_circ is
# {a^n b^n} ∪ {b^n a^n} which no regex captures, so it gets a generator.
FIXTURE_CLOSED_REGEX = {
    "ex1": ("(a|b)*|c(ab)*c", "abc"),
    "nil_o_star": ("aa*bbb|1", "ab"),
    "comb_o_pre_star": ("b*a|1", "ab"),
    "suf_o_star": ("(a|b)*aa*bb*|caa*bb*c", "abc"),
    "star_o_ps": ("aaa*|baa(aa)*b", "ab"),
    "ord_o_sydef": ("(a|b)*|c(ab)*c", "abc"),
    "suf_o_sydef": ("(a|b)*|c(1|b)(ab)*c", "abc"),
    "sydef_o_nc": ("aa*|baa*b|cbaa(aa)*bc", "abc"),
}


def fixture_words(name: str, n: int) -> set[str]:
    """The fixture's published closed-form language, cut at length n."""
    if name == "star_o_circ":
        out = set()
        for k in range(1, n // 2 + 1):
            out.add("a" * k + "b" * k)
            out.add("b" * k + "a" * k)
        return out
    text, alphabet = FIXTURE_CLOSED_REGEX[name]
    return set(enumerate_words(_handle(text, alphabet).dfa, n))
