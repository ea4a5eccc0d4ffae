import gc

import pytest
from hypothesis import given, settings, strategies as st

from subreg import automata as au, regex as rx

AB = ("a", "b")


def words(text, n=6, alphabet=AB):
    return rx.words_up_to(rx.parse_regex(text, alphabet), n)


class TestParsing:
    def test_empty_and_epsilon_atoms(self):
        assert rx.parse_regex("0", AB) == rx.EMPTY
        assert rx.parse_regex("1", AB) == rx.EPSILON
        assert rx.EPSILON == rx.Star(rx.EMPTY)

    def test_precedence_star_concat_union(self):
        r = rx.parse_regex("ab|c*", ("a", "b", "c"))
        assert isinstance(r, rx.Union)
        assert isinstance(r.left, rx.Cat)
        assert isinstance(r.right, rx.Star)

    def test_concat_left_associative(self):
        r = rx.parse_regex("abc", ("a", "b", "c"))
        assert r == rx.Cat(rx.Cat(rx.Sym("a"), rx.Sym("b")), rx.Sym("c"))

    def test_star_binds_tightest(self):
        r = rx.parse_regex("ab*", AB)
        assert r == rx.Cat(rx.Sym("a"), rx.Star(rx.Sym("b")))

    def test_double_star(self):
        assert rx.parse_regex("a**", AB) == rx.Star(rx.Star(rx.Sym("a")))

    def test_parentheses(self):
        assert rx.parse_regex("(ab)*", AB) == rx.Star(
            rx.Cat(rx.Sym("a"), rx.Sym("b")))

    def test_syntax_errors(self):
        for bad in ("(a", "a)", "", "|a", "a|", "*", "a(", "()"):
            with pytest.raises(rx.RegexSyntaxError):
                rx.parse_regex(bad, AB)

    def test_unknown_symbol(self):
        with pytest.raises(rx.UnknownSymbolError):
            rx.parse_regex("ac", AB)

    def test_round_trip_via_render(self):
        for text in ("(a|b)*", "a*b|1", "0", "ab*(a|b)", "((a|b)c)*"):
            alphabet = ("a", "b", "c")
            r = rx.parse_regex(text, alphabet)
            assert rx.parse_regex(rx.render(r), alphabet) == rx.canonical(r)


class TestSemantics:
    def test_words_up_to_examples(self):
        assert words("0") == frozenset()
        assert words("1") == frozenset({""})
        assert words("(ab)*") == frozenset({"", "ab", "abab", "ababab"})
        assert words("a*b", 3) == frozenset({"b", "ab", "aab"})

    def test_language_class(self):
        cases = {
            "0": rx.LanguageClass.EMPTY,
            "1": rx.LanguageClass.LAMBDA,
            "0*": rx.LanguageClass.LAMBDA,
            "a|ab": rx.LanguageClass.FINITE,
            "a0": rx.LanguageClass.EMPTY,
            "a*": rx.LanguageClass.INFINITE,
            "(a0)*b": rx.LanguageClass.FINITE,
        }
        for text, expected in cases.items():
            assert rx.language_class(rx.parse_regex(text, AB)) is expected

    def test_reverse_regex(self):
        r = rx.parse_regex("a*b", AB)
        rev = rx.reverse_regex(r)
        assert rx.words_up_to(rev, 3) == frozenset({"b", "ba", "baa"})

    def test_finite_language_regex(self):
        r = rx.finite_language_regex(["", "ab", "b"])
        assert rx.words_up_to(r, 4) == frozenset({"", "ab", "b"})
        assert rx.finite_language_regex([]) == rx.EMPTY


class TestHelpers:
    def test_make_alphabet_normalizes(self):
        assert rx.make_alphabet("baa") == ("a", "b")
        with pytest.raises(rx.AlphabetError):
            rx.make_alphabet("")
        for bad in ("a0", "a*", "a|", "a(", "ab)"):
            with pytest.raises(rx.AlphabetError):
                rx.make_alphabet(bad)

    def test_letters_of(self):
        assert rx.letters_of(rx.parse_regex("a*b|1", AB)) == frozenset("ab")


class TestUnionNormalForm:
    def test_components_are_union_free(self):
        r = rx.parse_regex("((a|b)c|d)*", ("a", "b", "c", "d"))
        comps = rx.union_normal_form(r)
        assert all(rx.is_syntactically_union_free(c) for c in comps)

    def test_union_preserves_language(self):
        for text in ("(a|b)*", "a|b|ab", "(a|b)(a|b)", "((a|b)a)*b"):
            r = rx.parse_regex(text, AB)
            comps = rx.union_normal_form(r)
            got = frozenset().union(*(rx.words_up_to(c, 5) for c in comps))
            assert got == rx.words_up_to(r, 5)

    def test_union_free_input_is_singleton(self):
        r = rx.parse_regex("a*ba*", AB)
        assert rx.union_normal_form(r) == [r]


def test_calls_leave_no_reference_cycle():
    r = rx.parse_regex("(a|b)*(ab|1)*b", AB)
    gc.disable()
    try:
        gc.collect()
        rx.parse_regex(rx.render(r), AB)
        rx.union_normal_form(r)
        rx.star_decomposition(rx.parse_regex("ab*(ab)*", AB))
        rx.words_up_to(r, 3)
        rx.canonical(r)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _cat_chain():  # a* b^5000, nested to the left
    r = rx.Star(rx.Sym("a"))
    for _ in range(5000):
        r = rx.Cat(r, rx.Sym("b"))
    return r


def _star_chain():  # a with 5000 stars
    r = rx.Sym("a")
    for _ in range(5000):
        r = rx.Star(r)
    return r


# name: (tree builder, rendered reversal, union-free, class, words up to
# length 4, union normal form, star decomposition or None, NFA states,
# a word in the language and one not in it)
DEEP = {
    "cat_chain": (
        _cat_chain, "b" * 5000 + "a*", True, rx.LanguageClass.INFINITE,
        set(), lambda r: [r],
        (rx.EPSILON, rx.Sym("a"), rx.word_regex("b" * 5000)),
        5002, "a" + "b" * 5000, "b" * 4999),
    "star_chain": (
        _star_chain, "a" + "*" * 5000, True, rx.LanguageClass.INFINITE,
        {"", "a", "aa", "aaa", "aaaa"}, lambda r: [rx.Star(rx.Sym("a"))],
        (rx.EPSILON, _star_chain().inner, rx.EPSILON), 2, "aaa", "b"),
    "nested_parentheses": (
        lambda: rx.parse_regex("(a|" * 5000 + "b" + ")" * 5000, AB),
        "a|" * 5000 + "b", False, rx.LanguageClass.FINITE, {"a", "b"},
        lambda r: [rx.Sym("a"), rx.Sym("b")], None, 5002, "b", "ab"),
}


@pytest.mark.parametrize("name", list(DEEP))
def test_trees_deeper_than_the_recursion_limit(name):
    (build, reversed_text, union_free, lc, short_words, unf, split,
     n_states, member, non_member) = DEEP[name]
    r, twin = build(), build()
    assert r is not twin and r == twin and hash(r) == hash(twin)
    assert r != rx.Cat(twin, rx.EPSILON)
    text = rx.render(r)
    assert rx.parse_regex(text, AB) == rx.canonical(r)
    assert rx.render(rx.canonical(r)) == text
    assert rx.letters_of(r) == set(text) - set("|*")
    assert rx.is_syntactically_union_free(r) is union_free
    assert rx.language_class(r) is lc
    assert rx.render(rx.reverse_regex(r)) == reversed_text
    assert rx.words_up_to(r, 4) == short_words
    assert rx.union_normal_form(r) == unf(r)
    if split is None:
        with pytest.raises(rx.DecompositionError):
            rx.star_decomposition(r)
    else:
        assert rx.star_decomposition(r) == split
    nfa = au.compile_regex(r, AB)
    assert nfa.n_states == n_states
    dfa = au.determinize(nfa)
    assert dfa.accepts(member) and not dfa.accepts(non_member)


def test_repr_is_the_dataclass_text_at_any_depth():
    assert repr(rx.Cat(rx.Sym("a"), rx.Sym("b"))) == (
        "Cat(left=Sym(letter='a'), right=Sym(letter='b'))")
    assert repr(rx.Union(rx.Star(rx.Sym("a")), rx.EMPTY)) == (
        "Union(left=Star(inner=Sym(letter='a')), right=Empty())")
    text = repr(rx.word_regex("a" * 2000))
    assert text.count("Cat(left=") == 1999
    assert text.count("Sym(letter='a')") == 2000


class TestStarDecomposition:
    def test_requires_union_free_infinite(self):
        with pytest.raises(rx.DecompositionError):
            rx.star_decomposition(rx.parse_regex("a|b", AB))
        with pytest.raises(rx.DecompositionError):
            rx.star_decomposition(rx.parse_regex("ab", AB))

    def test_split_preserves_language(self):
        for text in ("a*", "ab*a", "aa*b*", "(ab*)*b"):
            r = rx.parse_regex(text, AB)
            left, mid, right = rx.star_decomposition(r)
            rebuilt = rx.cat(rx.cat(left, rx.star(mid)), right)
            assert rx.words_up_to(rebuilt, 6) == rx.words_up_to(r, 6)
            assert rx.language_class(left) in (rx.LanguageClass.LAMBDA,
                                               rx.LanguageClass.FINITE)
            assert rx.language_class(mid) not in (rx.LanguageClass.EMPTY,
                                                  rx.LanguageClass.LAMBDA)


@st.composite
def regexes(draw, depth=3):
    if depth == 0:
        return draw(st.sampled_from(
            [rx.EMPTY, rx.EPSILON, rx.Sym("a"), rx.Sym("b")]))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.sampled_from(
            [rx.EMPTY, rx.EPSILON, rx.Sym("a"), rx.Sym("b")]))
    if kind == 1:
        return rx.Star(draw(regexes(depth=depth - 1)))
    left = draw(regexes(depth=depth - 1))
    right = draw(regexes(depth=depth - 1))
    return rx.Cat(left, right) if kind == 2 else rx.Union(left, right)


@settings(max_examples=150, deadline=None)
@given(regexes())
def test_render_parse_round_trip(r):
    assert rx.parse_regex(rx.render(r), AB) == rx.canonical(r)


@settings(max_examples=100, deadline=None)
@given(regexes())
def test_union_normal_form_property(r):
    comps = rx.union_normal_form(r)
    assert all(rx.is_syntactically_union_free(c) for c in comps)
    got = frozenset().union(frozenset(),
                            *(rx.words_up_to(c, 4) for c in comps))
    assert got == rx.words_up_to(r, 4)
