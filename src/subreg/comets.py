"""Normal forms for two-sided comet decompositions E G* H.

The pipeline splits the first tail E into union-free parts, reduces each
part to an explicit finite word set (pushing any infinite remainder into
the last tail), and recombines the parts into a single comet when their
middles and last tails coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import automata, regex as rx
from .automata import Dfa, dfa_of
from .regex import LanguageClass, language_class


class CometError(Exception):
    pass


@dataclass(frozen=True)
class CometDecomposition:
    """A language presented as E G* H with G not empty and not {λ}."""

    alphabet: tuple[str, ...]
    first: rx.Regex    # E
    middle: rx.Regex   # G
    last: rx.Regex     # H

    def __post_init__(self):
        object.__setattr__(self, "alphabet", rx.make_alphabet(self.alphabet))
        for part in (self.first, self.middle, self.last):
            extra = rx.letters_of(part) - set(self.alphabet)
            if extra:
                raise rx.UnknownSymbolError(sorted(extra)[0])
        if language_class(self.middle) in (LanguageClass.EMPTY,
                                           LanguageClass.LAMBDA):
            raise CometError("middle language must not be empty or {λ}")

    @property
    def regex(self) -> rx.Regex:
        return rx.cat(self.first, rx.cat(rx.star(self.middle), self.last))

    def language_dfa(self) -> Dfa:
        return dfa_of(self.regex, self.alphabet)

    def to_json(self) -> dict:
        return {
            "E": rx.render(self.first),
            "G": rx.render(self.middle),
            "H": rx.render(self.last),
        }


@dataclass(frozen=True)
class Component:
    """One comet component; exactly one tail is an explicit word set."""

    first_words: tuple[str, ...] | None
    first: rx.Regex
    middle: rx.Regex
    last: rx.Regex
    last_words: tuple[str, ...] | None = None

    def regex(self) -> rx.Regex:
        return rx.cat(self.first, rx.cat(rx.star(self.middle), self.last))

    def to_json(self) -> dict:
        out = {}
        out["E"] = (list(self.first_words) if self.first_words is not None
                    else rx.render(self.first))
        out["G"] = rx.render(self.middle)
        out["H"] = (list(self.last_words) if self.last_words is not None
                    else rx.render(self.last))
        return out


@dataclass(frozen=True)
class NormalFormResult:
    components: tuple[Component, ...]
    single_comet: bool
    verified: bool
    finite_side: str  # "left" or "right"

    def to_json(self) -> dict:
        return {
            "components": [c.to_json() for c in self.components],
            "finite_side": self.finite_side,
            "single_comet": self.single_comet,
            "verified": self.verified,
        }


def decompose_first_tail(d: CometDecomposition) -> list[CometDecomposition]:
    """Split E into union-free parts, one decomposition per part."""
    return [CometDecomposition(d.alphabet, e, d.middle, d.last)
            for e in rx.union_normal_form(d.first)]


def _finite_words(r: rx.Regex, alphabet) -> list[str]:
    """Explicit word list of a finite language; words in a finite
    language's minimal DFA are shorter than its state count."""
    if language_class(r) is LanguageClass.INFINITE:
        raise CometError(f"{rx.render(r)} is not finite")
    d = dfa_of(r, alphabet)
    return automata.enumerate_words(d, d.n_states)


def finite_first_tail(d: CometDecomposition) -> tuple[list[str], rx.Regex, rx.Regex]:
    """Rewrite one union-free-E decomposition so the first tail is an
    explicit finite word set; verified against the input language."""
    if not rx.is_syntactically_union_free(d.first):
        raise CometError("first tail must be union-free")
    if language_class(d.regex) is LanguageClass.EMPTY:
        result = ([], rx.Sym(d.alphabet[0]), rx.EMPTY)
    elif language_class(d.first) is not LanguageClass.INFINITE:
        result = (_finite_words(d.first, d.alphabet), d.middle, d.last)
    else:
        e_left, e_mid, e_right = rx.star_decomposition(d.first)
        new_last = rx.cat(e_right, rx.cat(rx.star(d.middle), d.last))
        result = (_finite_words(e_left, d.alphabet), e_mid, new_last)
    words, mid, last = result
    rebuilt = rx.cat(rx.finite_language_regex(words),
                     rx.cat(rx.star(mid), last))
    if not automata.equivalent(dfa_of(rebuilt, d.alphabet), d.language_dfa()):
        raise CometError("first-tail reduction failed verification")
    return result


def _left_components(d: CometDecomposition) -> tuple[list[Component], bool]:
    """The components of the left normal form, each with a finite first
    tail, and whether they merged into a single comet."""
    components = []
    for part in decompose_first_tail(d):
        words, mid, last = finite_first_tail(part)
        components.append(Component(tuple(words), rx.finite_language_regex(words),
                                    mid, last))
    # drop empty components when something non-empty remains
    nonempty = [c for c in components
                if language_class(c.regex()) is not LanguageClass.EMPTY]
    if nonempty:
        components = nonempty

    if len(components) == 1:
        return components, True
    keys = [(dfa_of(c.middle, d.alphabet), dfa_of(c.last, d.alphabet))
            for c in components]
    if any(k != keys[0] for k in keys[1:]):
        return components, False
    merged = sorted({w for c in components for w in c.first_words},
                    key=lambda w: (len(w), w))
    return [Component(tuple(merged), rx.finite_language_regex(merged),
                      components[0].middle, components[0].last)], True


def _verified(d: CometDecomposition, components, single: bool,
              side: str) -> NormalFormResult:
    """The normal form, with whether the union of its components is L(d)."""
    union = rx.EMPTY
    for c in components:
        union = rx.union(union, c.regex())
    verified = automata.equivalent(dfa_of(union, d.alphabet), d.language_dfa())
    return NormalFormResult(tuple(components), single, verified, side)


def left_normal_form(d: CometDecomposition) -> NormalFormResult:
    return _verified(d, *_left_components(d), "left")


def right_normal_form(d: CometDecomposition) -> NormalFormResult:
    # the left normal form of the mirror image, mirrored back
    components, single = _left_components(CometDecomposition(
        d.alphabet,
        rx.reverse_regex(d.last),
        rx.reverse_regex(d.middle),
        rx.reverse_regex(d.first),
    ))
    mirrored = []
    for c in components:
        words = tuple(sorted((w[::-1] for w in c.first_words),
                             key=lambda w: (len(w), w)))
        mirrored.append(Component(
            None,
            rx.reverse_regex(c.last),
            rx.reverse_regex(c.middle),
            rx.finite_language_regex(words),
            last_words=words,
        ))
    return _verified(d, mirrored, single, "right")
