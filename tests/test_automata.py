import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st
from test_golden import regex_pool

from subreg import automata as au, regex as rx
from subreg.language import LanguageHandle

AB = ("a", "b")


def dfa(text, alphabet=AB):
    return au.dfa_of(rx.parse_regex(text, alphabet), alphabet)


def all_words(alphabet, n):
    for k in range(n + 1):
        for t in itertools.product(alphabet, repeat=k):
            yield "".join(t)


def reachable_states(dfa):
    """The states reachable from the start, by breadth-first search."""
    seen = {dfa.start}
    queue = [dfa.start]
    for s in queue:  # grows while it is read
        for t in dfa.transitions[s]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


class TestCompileAndDeterminize:
    def test_accepts_matches_oracle(self):
        for text in ("(ab)*", "a*b|1", "(a|b)*a(a|b)", "0", "1", "a**"):
            r = rx.parse_regex(text, AB)
            d = au.dfa_of(r, AB)
            oracle = rx.words_up_to(r, 6)
            for w in all_words(AB, 6):
                assert d.accepts(w) == (w in oracle), (text, w)

    def test_minimize_is_minimal_by_nerode(self):
        # every pair of states of the minimized DFA must be distinguishable
        for text in ("(ab)*", "(a|b)*b", "a*ba*", "(aa)*"):
            d = dfa(text)
            for p, q in itertools.combinations(range(d.n_states), 2):
                assert not au.equivalent(au.residual(d, p),
                                         au.residual(d, q)), (text, p, q)

    def test_minimize_canonical_numbering(self):
        # two regexes for the same language give identical DFAs
        assert dfa("(a|b)*") == dfa("(a*b*)*")
        assert dfa("a(ba)*") == dfa("(ab)*a")

    def test_equal_minimal_dfas_are_one_object(self):
        # a handle rebuilt for the same regex keeps no DFA or text of its own
        for text in ("(ab)*", "a*b|1", "(a|b)*a(a|b)", "0"):
            r = rx.parse_regex(text, AB)
            again = rx.parse_regex(rx.render(r), AB)
            assert au.dfa_of(r, AB) is au.dfa_of(again, AB)
            assert (LanguageHandle(AB, r).text
                    is LanguageHandle(AB, again, check=False).text)

    def test_minimal_dfa_of_ab_star_has_three_states(self):
        # start/accept, after-a, and a rejecting sink
        assert dfa("(ab)*").n_states == 3

    def test_empty_language(self):
        d = dfa("0")
        assert d.n_states == 1 and not d.finals


class TestBooleanOperations:
    def test_complement(self):
        x = dfa("(ab)*")
        for w in all_words(AB, 5):
            assert au.complement(x).accepts(w) == (not x.accepts(w))

    def test_subset_and_equivalent(self):
        assert au.subset(dfa("(ab)*"), dfa("(a|b)*"))
        assert not au.subset(dfa("(a|b)*"), dfa("(ab)*"))
        assert au.equivalent(dfa("(a|b)*"), dfa("(b|a)*"))
        assert not au.equivalent(dfa("a*"), dfa("a*b"))

    def test_alphabet_mismatch(self):
        with pytest.raises(au.AlphabetMismatchError):
            au.subset(dfa("a*", ("a",)), dfa("(ab)*"))


class TestTransforms:
    def test_determinize_cap(self):
        nfa = au.compile_regex(rx.parse_regex("(a|b)*a(a|b)(a|b)", AB), AB)
        assert au.determinize(nfa).n_states == 9
        with pytest.raises(au.ResourceCapExceeded):
            au.determinize(nfa, cap=8)

    def test_canonical_dfas_are_pinned(self):
        # recorded with the frozenset subset construction, before the
        # moves became bitmasks: every regex of at most 7 nodes
        digest = hashlib.sha256()
        for _, regexes in sorted(regex_pool(7).items()):
            for r in regexes:
                digest.update(au.dfa_to_text(au.dfa_of(r, AB)).encode())
        assert digest.hexdigest() == (
            "4d1c3da2e907f12e48aa7ee1a661b9fcccd4a9ad9661168c51702b71799f532d")

    def test_position_automaton_of_deep_tree(self):
        # deeper than the interpreter's recursion limit
        r = rx.Sym("a")
        for _ in range(5000):
            r = rx.Union(rx.Cat(r, rx.Sym("b")), rx.EMPTY)
        nfa = au.compile_regex(r, AB)
        assert nfa.n_states == 5002 and nfa.initials == {0}
        d = au.determinize(nfa)
        assert d.accepts("a" + "b" * 5000) and not d.accepts("ab")

    def test_residual_and_quotient(self):
        d = dfa("a*b")
        assert au.equivalent(au.residual(d, d.run("a")), dfa("a*b"))
        assert au.equivalent(au.residual(d, d.run("b")), dfa("1"))
        assert au.equivalent(au.residual(d, d.run("ba")), dfa("0"))


class TestCardinalityAndEnumeration:
    def test_cardinality_class(self):
        C = au.CardinalityClass
        assert au.cardinality_class(dfa("0")) is C.EMPTY
        assert au.cardinality_class(dfa("1")) is C.FINITE_NONEMPTY
        assert au.cardinality_class(dfa("a|ab")) is C.FINITE_NONEMPTY
        assert au.cardinality_class(dfa("a*")) is C.INFINITE

    def test_cardinality_class_of_a_long_word(self):
        # a 3002-state chain, built without `minimize` (quadratic on chains)
        C = au.CardinalityClass
        word = rx.word_regex("a" * 3000)
        for r, expected in ((word, C.FINITE_NONEMPTY),
                            (rx.cat(word, rx.star(rx.Sym("a"))), C.INFINITE)):
            d = au.determinize(au.compile_regex(r, ("a",)))
            assert d.n_states >= 3001
            assert au.cardinality_class(d) is expected

    def test_enumerate_finite(self):
        got = au.enumerate_words(dfa("a|ab|1"), 5)
        assert got == ["", "a", "ab"]
        assert au.enumerate_words(dfa("(ab)*"), 8) == [
            "", "ab", "abab", "ababab", "abababab"]


class TestTransitionMonoid:
    def test_monoid_of_two_cycle(self):
        # (aa)* over {a}: a acts as a 2-cycle, the monoid is {id, swap}
        d = dfa("(aa)*", ("a",))
        elems = au.transition_monoid(d)
        assert len(elems) == 2

    def test_monoid_is_the_maps_of_words(self):
        d = dfa("(a|b)*b")
        maps = au.transition_monoid(d)
        assert len(set(maps)) == len(maps)
        assert maps[0] == tuple(range(d.n_states))
        letters = list(zip(*d.transitions))
        assert {tuple(lm[q] for q in m) for m in maps for lm in letters} \
            <= set(maps)
        by_words = {tuple(au.residual(d, q).run(w) for q in range(d.n_states))
                     for w in all_words(AB, 4)}
        assert set(maps) == by_words


class TestTextFormats:
    def test_dfa_text_round_trip(self):
        d = dfa("(a|b)*ab")
        again = au.dfa_from_text(au.dfa_to_text(d))
        assert again == d

    @pytest.mark.parametrize("text", [
        "initial 0\naccepting 0\n0 a 5\n0 b 0\n",
        "initial 0\naccepting 0\n0 a 0\n0 b -1\n",
        "initial 0\naccepting 0\n0 a 0\n0 b 0\n3 a 0\n",
        "initial 2\naccepting 0\n0 a 0\n0 b 0\n",
        "initial 0\naccepting 1\n0 a 0\n0 b 0\n",
    ], ids=["move", "negative_move", "source", "initial", "accepting"])
    def test_state_out_of_range_is_rejected(self, text):
        with pytest.raises(au.AutomataError, match="not in range"):
            au.dfa_from_text("alphabet ab\nstates 1\n" + text)

    def test_state_count_beyond_the_moves_listed_is_rejected(self):
        # rejected before any row is built
        with pytest.raises(au.AutomataError, match="truncated"):
            au.dfa_from_text("alphabet ab\nstates 100000\ninitial 0\n"
                             "accepting 0\n0 a 0\n0 b 0\n")

    def test_dfa_to_regex_round_trip(self):
        for text in ("(ab)*", "(a|b)*b", "a*", "0", "1"):
            d = dfa(text)
            back = au.dfa_of(au.dfa_to_regex(d), AB)
            assert au.equivalent(back, d), text


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


@settings(max_examples=120, deadline=None)
@given(regexes())
def test_dfa_agrees_with_word_oracle(r):
    d = au.dfa_of(r, AB)
    oracle = rx.words_up_to(r, 5)
    for w in all_words(AB, 5):
        assert d.accepts(w) == (w in oracle)


@st.composite
def nfas(draw):
    """(NFA, its moves, initials, finals) over {a,b,c}; c never moves."""
    n = draw(st.integers(1, 6))
    state = st.integers(0, n - 1)
    moves = draw(st.lists(st.tuples(state, st.sampled_from("ab"), state),
                          max_size=14))
    initials = draw(st.frozensets(state, max_size=3))
    finals = draw(st.frozensets(state))
    masks = [[0] * n for _ in "abc"]
    for src, letter, dst in moves:
        masks["ab".index(letter)][src] |= 1 << dst
    nfa = au.Nfa(n, ("a", "b", "c"), masks, initials, finals)
    return nfa, moves, initials, finals


@settings(max_examples=300, deadline=None)
@given(nfas())
def test_determinize_is_the_frozenset_subset_construction(drawn):
    nfa, moves, initials, finals = drawn
    order, rows = [initials], []
    for cur in order:
        row = []
        for a in nfa.alphabet:
            nxt = frozenset(t for s, b, t in moves if s in cur and b == a)
            if nxt not in order:
                order.append(nxt)
            row.append(order.index(nxt))
        rows.append(tuple(row))
    d = au.determinize(nfa)
    assert d.start == 0 and d.transitions == tuple(rows)
    assert d.finals == {i for i, subset in enumerate(order) if subset & finals}
    # both constructions return accessible DFAs, minimize also from a DFA
    # with an unreachable state, here an accepting sink
    n = d.n_states
    junk = au.Dfa(d.alphabet, d.transitions + ((n,) * len(d.alphabet),),
                  d.start, d.finals | {n})
    m = au.minimize(d)
    assert au.minimize(junk) == m
    for dfa in (d, m):
        assert reachable_states(dfa) == set(range(dfa.n_states))


def _from_lower_residuals(dfa):
    """An NFA for L(dfa) whose initial states are every state whose
    residual lies inside L, the start state among them."""
    nfa = au.to_nfa(dfa)
    nfa.initials = frozenset(q for q in range(dfa.n_states)
                             if au.subset(au.residual(dfa, q), dfa))
    return nfa


@settings(max_examples=150, deadline=None)
@given(regexes(depth=2))
def test_determinize_matches_regexes(r):
    # a DFA's NFA, a position automaton, and an NFA with several initial
    # states, as the one for the SYDEF and 2COM K_P is
    dfa = au.dfa_of(r, AB)
    for nfa in (au.to_nfa(dfa), au.compile_regex(r, AB),
                _from_lower_residuals(dfa)):
        assert au.minimize(au.determinize(nfa)) == dfa, rx.render(r)
