"""Language handles: alphabet + regex + lazily computed minimal DFA.

The alphabet is part of a language's identity; every family predicate is
evaluated with respect to it.
"""

from __future__ import annotations

import sys

from . import automata, regex as rx


class LanguageHandle:
    """An immutable regular language over a declared alphabet."""

    __slots__ = ("alphabet", "regex", "_dfa", "_text")

    def __init__(self, alphabet, regex_ast: rx.Regex, check: bool = True):
        self.alphabet = rx.make_alphabet(alphabet)
        extra = rx.letters_of(regex_ast) - set(self.alphabet)
        if extra:
            raise rx.UnknownSymbolError(sorted(extra)[0])
        self.regex = regex_ast
        self._dfa = None
        self._text = None
        if check:
            self._cross_check()

    @classmethod
    def from_text(cls, text: str, alphabet) -> "LanguageHandle":
        alphabet = rx.make_alphabet(alphabet)
        return cls(alphabet, rx.parse_regex(text, alphabet))

    @property
    def dfa(self) -> automata.Dfa:
        if self._dfa is None:
            self._dfa = automata.dfa_of(self.regex, self.alphabet)
        return self._dfa

    @property
    def text(self) -> str:
        """The rendered regex, made once, interned, and shared by every
        certificate that quotes it."""
        if self._text is None:
            self._text = sys.intern(rx.render(self.regex))
        return self._text

    def _cross_check(self) -> None:
        # the cached DFA must agree with the regex's set semantics to length 4
        expected = rx.words_up_to(self.regex, 4)
        got = set(automata.enumerate_words(self.dfa, 4))
        if got != set(expected):
            raise automata.AutomataError(
                f"DFA/regex mismatch for {rx.render(self.regex)}: "
                f"{sorted(got ^ set(expected))}"
            )

    def accepts(self, word: str) -> bool:
        return self.dfa.accepts(word)

    def __repr__(self) -> str:
        return f"LanguageHandle({rx.render(self.regex)!r}, alphabet={''.join(self.alphabet)})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, LanguageHandle)
                and self.alphabet == other.alphabet
                and self.regex == other.regex)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.regex))
