import pytest

from subreg import automata, regex as rx
from subreg.language import LanguageHandle


class TestLanguageHandle:
    def test_from_text(self):
        h = LanguageHandle.from_text("(ab)*", ("a", "b"))
        assert h.accepts("abab")
        assert not h.accepts("aba")
        assert automata.enumerate_words(h.dfa, 4) == ["", "ab", "abab"]

    def test_unknown_letter_rejected(self):
        with pytest.raises(rx.RegexError):
            LanguageHandle.from_text("abc", ("a", "b"))

    def test_equality_and_hash(self):
        a = LanguageHandle.from_text("(ab)*", ("a", "b"))
        b = LanguageHandle.from_text("(ab)*", ("a", "b"))
        c = LanguageHandle.from_text("(ba)*", ("a", "b"))
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_dfa_is_minimal_and_cached(self):
        h = LanguageHandle.from_text("(a|b)*b", ("a", "b"))
        assert h.dfa is h.dfa
        assert h.dfa.n_states == 2
