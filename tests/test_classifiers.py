import dataclasses
import itertools
import json
import random
import time
from pathlib import Path
from unittest import mock

import pytest
from test_automata import all_words, reachable_states

from subreg import automata as au, classify as cl, hierarchy as hi
from subreg.automata import Dfa
from subreg.classify import DEFAULT_CONFIG, Family, Outcome
from subreg.language import LanguageHandle

GOLDEN = Path(__file__).parent / "golden"


def lang(text, alphabet="ab"):
    return LanguageHandle.from_text(text, tuple(alphabet))


def aperiodic(dfa):
    return cl.aperiodicity_bound(au.transition_monoid(dfa)) is not None


def outcome(text, family, alphabet="ab", config=DEFAULT_CONFIG):
    v = cl.classify(lang(text, alphabet), family, config)
    if v.outcome is Outcome.YES and v.certificate is not None:
        assert cl.verify_certificate(lang(text, alphabet), family,
                                     v.certificate, config), (text, family)
    return v.outcome


# (regex, alphabet, yes-families, no-families)
BATTERY = [
    ("(aa)*", "a",
     ["STAR", "LCOM", "RCOM", "2COM", "UF", "COMM", "CIRC"],
     ["MON", "FIN", "NIL", "COMB", "DEF", "ORD", "NC", "SF", "PS", "SUF"]),
    ("1", "a",
     ["STAR", "FIN", "NIL", "DEF", "ORD", "SUF", "COMM", "CIRC",
      "NC", "SF", "PS", "UF"],
     ["2COM", "LCOM", "RCOM", "MON", "COMB"]),
    ("1|a", "a",
     ["FIN", "NIL", "SUF", "COMM", "CIRC", "PS", "DEF", "ORD", "NC", "SF"],
     ["STAR", "2COM", "LCOM", "RCOM", "MON"]),
    ("a*b", "ab",
     ["RCOM", "2COM", "ORD", "NC", "SF", "PS", "UF"],
     ["LCOM", "STAR", "MON", "FIN", "NIL", "SUF", "COMM", "CIRC", "DEF"]),
    ("ba*", "ab",
     ["LCOM", "2COM", "NC", "SF", "PS", "UF"],
     ["RCOM", "STAR", "MON", "FIN", "NIL", "SUF", "COMM", "CIRC", "DEF"]),
    ("(ab)*", "ab",
     ["STAR", "LCOM", "RCOM", "2COM", "UF", "ORD", "NC", "SF", "PS"],
     ["CIRC", "COMM", "MON", "FIN", "NIL", "COMB", "DEF", "SUF"]),
    ("(a|b|c)*(a|b)", "abc",
     ["COMB", "DEF", "ORD", "NC", "SF", "PS", "SYDEF", "LCOM",
      "RCOM", "2COM"],
     ["MON", "FIN", "NIL", "STAR", "SUF", "COMM", "CIRC"]),
    ("(a|b)*bab*(aab*)*", "ab",
     ["SYDEF", "PS", "LCOM", "RCOM", "2COM"],
     ["NC", "SF", "MON", "FIN", "NIL", "STAR", "SUF", "COMM", "CIRC"]),
    ("(a|b)*", "ab",
     ["MON", "STAR", "SYDEF", "SUF", "COMM", "CIRC", "NIL", "DEF",
      "ORD", "NC", "SF", "PS", "UF", "LCOM", "RCOM", "2COM"],
     ["FIN", "COMB"]),
    # the empty language conventions
    ("0", "ab",
     ["FIN", "NIL", "COMB", "DEF", "SUF", "COMM", "CIRC", "NC", "SF",
      "PS", "LCOM", "RCOM", "2COM", "ORD", "SYDEF", "UF"],
     ["MON", "STAR"]),
]


@pytest.mark.parametrize("text,alphabet,yes,no",
                         BATTERY, ids=[b[0] for b in BATTERY])
def test_battery(text, alphabet, yes, no):
    assert not set(yes) & set(no)
    for name in yes:
        assert outcome(text, Family(name), alphabet) is Outcome.YES, name
    for name in no:
        assert outcome(text, Family(name), alphabet) is Outcome.NO, name


class TestCertificates:
    def test_def_certificate_contents(self):
        v = cl.classify(lang("(a|b)*b|1|a"), Family.DEF)
        assert v.outcome is Outcome.YES
        assert set(v.certificate) >= {"A", "B"}
        assert cl.verify_certificate(lang("(a|b)*b|1|a"), Family.DEF,
                                     v.certificate)

    def test_def_certificate_with_long_window(self):
        h = lang("a" * 40 + "a*", "a")
        v = cl.classify(h, Family.DEF)
        assert v.outcome is Outcome.YES
        assert v.certificate == {"window": 40, "A": [], "B": ["a" * 40]}
        assert cl.verify_certificate(h, Family.DEF, v.certificate)

    def test_def_certificate_lists_one_of_many_words(self):
        # 2^16 words of length 16, one of which leads every state into F
        h = lang("(a|b)*a" + "b" * 15)
        v = cl.classify(h, Family.DEF)
        assert v.certificate == {"window": 16, "A": [],
                                 "B": ["a" + "b" * 15]}
        assert cl.verify_certificate(h, Family.DEF, v.certificate)

    def test_window_only_def_certificate(self):
        # 2^17 words exceed DEF_WORD_CAP, so the window is all it states
        h = lang("(a|b)*a" + "b" * 16)
        v = cl.classify(h, Family.DEF)
        assert v.certificate == {"window": 17}
        assert cl.verify_certificate(h, Family.DEF, v.certificate)
        assert not cl.verify_certificate(h, Family.DEF, {"window": 16})
        assert not cl.verify_certificate(lang("(ab)*"), Family.DEF,
                                         {"window": 5})
        with pytest.raises(cl.CertificateError):
            cl.verify_certificate(h, Family.DEF, {"window": -1})

    @pytest.mark.parametrize("cert,holds", [
        ({"window": 1, "A": [], "B": ["b"]}, True),
        ({"window": 0, "A": [], "B": ["b"]}, False),
        ({"window": 7, "A": [], "B": ["b"]}, False),
        ({"window": 1, "A": ["b"], "B": ["b"]}, False),
    ], ids=["window_1", "window_0", "window_7", "a_word_at_the_window"])
    def test_def_words_must_fit_the_window(self, cert, holds):
        # A is L's words shorter than the window, B its words of that length
        assert cl.verify_certificate(lang("(a|b)*b"), Family.DEF,
                                     cert) is holds

    @pytest.mark.parametrize("cert,message", [
        ({"window": -1, "A": [], "B": ["b"]}, "window must be a natural"),
        ({"A": [], "B": ["b"]}, "missing certificate field 'window'"),
    ], ids=["negative_window", "no_window"])
    def test_def_window_is_required(self, cert, message):
        with pytest.raises(cl.CertificateError, match=message):
            cl.verify_certificate(lang("(a|b)*b"), Family.DEF, cert)

    @pytest.mark.parametrize("family,cert", [
        (Family.COMB, {"X": "b"}),
        (Family.DEF, {"window": 1, "A": "", "B": ["b"]}),
        (Family.DEF, {"window": 1, "A": [], "B": "b"}),
    ], ids=["COMB_X", "DEF_A", "DEF_B"])
    def test_word_lists_are_not_text(self, family, cert):
        # read letter by letter, each would verify on (a|b)*b
        with pytest.raises(cl.CertificateError,
                           match="ill-typed certificate field"):
            cl.verify_certificate(lang("(a|b)*b"), family, cert)

    @pytest.mark.parametrize("family,cert", [
        (Family.NC, {}),
        (Family.DEF, {"window": 1, "A": []}),
    ], ids=["NC", "DEF"])
    def test_missing_field_raises(self, family, cert):
        with pytest.raises(cl.CertificateError,
                           match="missing certificate field"):
            cl.verify_certificate(lang("(a|b)*b"), family, cert)

    def test_family_without_certificate_raises(self):
        with pytest.raises(cl.CertificateError,
                           match="carries no certificate"):
            cl.verify_certificate(lang("(a|b)*"), Family.MON, {})

    def test_union_is_not_a_uf_certificate(self):
        assert not cl.verify_certificate(lang("a|b"), Family.UF,
                                         {"regex": "a|b"})

    @pytest.mark.parametrize("other", [("a*b", "ab"), ("(ab)*", "abc")],
                             ids=["language", "alphabet"])
    def test_ord_automaton_of_another_language(self, other):
        machine = lang(*other).dfa
        cert = {"order": list(range(machine.n_states)),
                "automaton": au.dfa_to_text(machine)}
        assert not cl.verify_certificate(lang("(ab)*"), Family.ORD, cert)

    def test_ord_order_that_is_not_a_permutation_raises(self):
        with pytest.raises(cl.CertificateError, match="every state once"):
            cl.verify_certificate(lang("(ab)*"), Family.ORD,
                                  {"order": [0, 0, 1]})

    def test_sydef_certificate(self):
        h = lang("(a|b)*b")
        v = cl.classify(h, Family.SYDEF)
        assert v.outcome is Outcome.YES
        assert cl.verify_certificate(h, Family.SYDEF, v.certificate)

    def test_wrong_certificate_rejected(self):
        h = lang("a*b")
        assert not cl.verify_certificate(h, Family.RCOM,
                                         {"g": "b", "G": "b", "H": "b"})
        assert not cl.verify_certificate(h, Family.COMB, {"X": ["a"]})

    def test_malformed_certificate_raises(self):
        h = lang("a*b")
        with pytest.raises(cl.CertificateError):
            cl.verify_certificate(h, Family.RCOM, {"nonsense": 1})
        with pytest.raises(cl.CertificateError):
            cl.verify_certificate(h, Family.RCOM, "not a dict")
        with pytest.raises(cl.CertificateError):
            cl.verify_certificate(h, Family.COMB, {"X": ["z"]})

    @pytest.mark.parametrize("family,cert", [
        (Family.NC, {"bound": None}),
        (Family.ORD, {"order": [0, 1], "automaton": 3}),
        (Family.UF, {"regex": ["a"]}),
    ], ids=["NC", "ORD", "UF"])
    def test_ill_typed_field_raises(self, family, cert):
        with pytest.raises(cl.CertificateError):
            cl.verify_certificate(lang("(ab)*"), family, cert)

    @pytest.mark.parametrize("family,text,alphabet,bound", [
        (Family.PS, "a", "a", 0),
        (Family.PS, "aa", "a", 0),
        (Family.PS, "a|aaa", "a", 0),
        (Family.NC, "(a|b)*b", "ab", -1),
        (Family.SF, "(a|b)*b", "ab", 0),
        (Family.PS, "(a|b)*b", "ab", "2"),
    ], ids=["PS_a", "PS_aa", "PS_a_or_aaa", "NC_negative", "SF_zero",
            "PS_text"])
    def test_bound_that_is_not_a_positive_integer_raises(
            self, family, text, alphabet, bound):
        h = lang(text, alphabet)
        v = cl.classify(h, family)
        assert v.certificate["bound"] >= 1
        assert cl.verify_certificate(h, family, v.certificate)
        with pytest.raises(cl.CertificateError):
            cl.verify_certificate(h, family, {"bound": bound})

    def test_nc_bound_beyond_the_state_count(self):
        # the maps are composed at most n times whatever the bound
        start = time.perf_counter()
        assert cl.verify_certificate(lang("(a|b)*b"), Family.NC,
                                     {"bound": 10 ** 9})
        assert not cl.verify_certificate(lang("(aa)*", "a"), Family.NC,
                                         {"bound": 10 ** 9})
        assert time.perf_counter() - start < 1

    def test_ps_bound_below_the_deciders_is_rejected(self):
        h = lang("a", "a")
        assert cl.classify(h, Family.PS).certificate == {"bound": 2}
        assert not cl.verify_certificate(h, Family.PS, {"bound": 1})

    @pytest.mark.parametrize("text", [
        "garbage",
        "alphabet ab\nstates x\ninitial 0\naccepting 0\n0 a 0\n0 b 0\n",
        "alphabet ab\nstates 1\ninitial 0\naccepting 0\n0 a 0\n0 c 0\n",
        "alphabet ab\nstates 1\ninitial 0\naccepting 0\n0 a 5\n0 b 0\n",
    ], ids=["garbage", "state_count_not_a_number", "letter_outside_alphabet",
            "move_out_of_range"])
    def test_malformed_ord_automaton_raises(self, text):
        with pytest.raises(cl.CertificateError):
            cl.verify_certificate(lang("(ab)*"), Family.ORD,
                                  {"order": [0], "automaton": text})

    @pytest.mark.parametrize("family,cert", [
        (Family.SYDEF, {"E": ["z"], "H": "1"}),
        (Family.SYDEF, {"E": "((", "H": "1"}),
        (Family.TWOCOM, {"E": "1", "G": "c", "H": "1"}),
    ], ids=["word_outside_alphabet", "bad_regex_text",
            "regex_letter_outside_alphabet"])
    def test_bad_certificate_language_raises(self, family, cert):
        with pytest.raises(cl.CertificateError):
            cl.verify_certificate(lang("(a|b)*b"), family, cert)

    def test_trivial_middle_rejected(self):
        h = lang("1", "a")
        assert not cl.verify_certificate(
            h, Family.TWOCOM, {"E": ["" ], "G": "1", "H": "1"})

    def test_ord_certificate_monotone(self):
        h = lang("(ab)*")
        v = cl.classify(h, Family.ORD)
        assert v.outcome is Outcome.YES
        assert cl.verify_certificate(h, Family.ORD, v.certificate)
        # some permutation of the states is not monotone and must fail
        import itertools as it
        n = len(v.certificate["order"])
        failures = 0
        for perm in it.permutations(range(n)):
            bad = dict(v.certificate)
            bad["order"] = list(perm)
            if not cl.verify_certificate(h, Family.ORD, bad):
                failures += 1
        assert failures > 0


class TestSharedCertificates:
    DFA_ONLY = (Family.NC, Family.SF, Family.PS, Family.ORD, Family.DEF,
                Family.COMB)
    QUOTE_L = (Family.STAR, Family.RCOM, Family.LCOM, Family.TWOCOM,
               Family.UF, Family.SYDEF)

    @pytest.fixture(autouse=True)
    def empty_table(self, monkeypatch):
        monkeypatch.setattr(cl, "_SHARED", {})

    def test_equal_minimal_dfas_share_one_certificate(self):
        one, two = lang("(a|b)*a"), lang("(a|b)*(a|b)*a")
        assert one.dfa == two.dfa
        for f in self.DFA_ONLY:
            v1, v2 = cl.classify(one, f), cl.classify(two, f)
            assert v1.outcome is Outcome.YES, f
            assert v1.certificate is v2.certificate, f

    def test_certificates_that_quote_l_are_not_shared(self):
        seen = set()
        for text in ("(a|b)*", "(a|b)*a", "b*a(a|b)*"):
            one, two = lang(text), lang(text)
            for f in self.QUOTE_L:
                v1, v2 = cl.classify(one, f), cl.classify(two, f)
                if v1.outcome is Outcome.YES:
                    seen.add(f)
                    assert v1.certificate == v2.certificate, (text, f)
                    assert v1.certificate is not v2.certificate, (text, f)
        assert seen == set(self.QUOTE_L)
        assert cl._SHARED == {}

    def test_table_stops_growing_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(cl, "_SHARED_CAP", 2)

        def certificates():
            return [cl.classify(lang("a" * k + "a*", "a"), Family.DEF)
                    .certificate for k in range(1, 5)]

        first = certificates()
        assert len(cl._SHARED) == 2
        again = certificates()
        assert again == first
        assert [a is b for a, b in zip(again, first)] == [True, True,
                                                         False, False]
        assert len(cl._SHARED) == 2


class TestBoundedDeciders:
    """SYDEF and 2COM search the closed state sets of the minimal DFA; no
    bound limits them, and only `COMET_STATE_CAP` answers unknown."""

    # neither a left nor a right comet: E = c(ab)*, G = ab, H = (ab)*c
    def test_2com_finds_decomposition(self):
        h = lang("c(ab)*c", "abc")
        v = cl.classify(h, Family.TWOCOM)
        assert v.outcome is Outcome.YES
        assert v.certificate == {"E": "c(ab)*", "G": "ab", "H": "(ab)*c"}
        assert cl.verify_certificate(h, Family.TWOCOM, v.certificate)

    def test_2com_no_gives_the_exact_reason(self):
        v = cl.classify(lang("a*b|b*a"), Family.TWOCOM)
        assert v.outcome is Outcome.NO
        assert v.reason == ("no closed state set stable under a non-empty "
                            "word covers L")
        v = cl.classify(lang("c(ab)*c", "abc"), Family.SYDEF)
        assert v.outcome is Outcome.NO
        assert v.reason == ("no closed state set stable under every letter "
                            "covers L")

    def test_certificate_quotes_l(self):
        # a part equal to L is L's own text; rendering the state-elimination
        # regex of this 64-state DFA would take minutes
        text = "(a|b)*a" + "(a|b)" * 5
        v = cl.classify(lang(text), Family.SYDEF)
        assert v.certificate == {"E": "1", "H": text}

    def test_sydef_unknown_only_when_allowed(self):
        # ORD resource caps aside, Unknown may appear only for the
        # families without an exact decision procedure
        allowed = {Family.UF, Family.ORD}
        for text in ("(ab)*", "a*b", "(a|b)*b", "1|a", "a*b|b*a"):
            for f in Family:
                v = cl.classify(lang(text), f)
                if v.outcome is Outcome.UNKNOWN:
                    assert f in allowed, (text, f)


class TestAperiodicity:
    def test_counting_language_is_not_aperiodic(self):
        assert not aperiodic(lang("(aa)*", "a").dfa)

    def test_aperiodic_language(self):
        assert aperiodic(lang("(a|b)*b").dfa)

    def test_brute_force_agreement_sample(self):
        # acceptance of x y^k z must equal x y^{k+1} z for aperiodic DFAs
        for text in ("(a|b)*b", "(aa)*", "a*b", "(ab)*"):
            d = lang(text).dfa
            assert aperiodic(d) == _brute_force_noncounting(d)


def _brute_force_noncounting(dfa: Dfa, word_len: int = 3) -> bool:
    from subreg.automata import transition_monoid
    k = len(transition_monoid(dfa))
    words = [
        "".join(t) for n in range(word_len + 1)
        for t in itertools.product(dfa.alphabet, repeat=n)
    ]
    for x in words:
        for y in words:
            if not y:
                continue
            for z in words:
                a = dfa.accepts(x + y * k + z)
                b = dfa.accepts(x + y * (k + 1) + z)
                if a != b:
                    return False
    return True


class TestClassifyAll:
    def test_consistency_enforced(self):
        for text in ("(ab)*", "(a|b)*", "0", "1", "a*b|b*a"):
            verdicts = cl.classify_all(lang(text))
            assert set(verdicts) == set(Family)
            assert verdicts[Family.NC].outcome is verdicts[Family.SF].outcome
            assert verdicts[Family.SF] == dataclasses.replace(
                verdicts[Family.NC], family=Family.SF)

    def test_uf_never_no(self):
        for text in ("(a|b)*a", "a|b", "(aa)*"):
            v = cl.classify(lang(text), Family.UF)
            assert v.outcome is not Outcome.NO

    def test_state_cap_gives_unknown(self, monkeypatch):
        monkeypatch.setattr(cl, "ORD_STATE_CAP", 1)
        v = cl.classify(lang("(ab)*"), Family.ORD)
        assert v.outcome is Outcome.UNKNOWN
        assert v.reason == "state cap 1 exceeded"

    def test_counting_language_is_no_beyond_the_state_cap(self):
        h = lang("(" + "a" * 11 + ")*", "a")
        assert h.dfa.n_states > cl.ORD_STATE_CAP
        v = cl.classify(h, Family.ORD)
        assert v.outcome is Outcome.NO
        assert v.reason == "transition monoid is not aperiodic"

    def test_monoid_cap_gives_unknown(self):
        cfg = dataclasses.replace(DEFAULT_CONFIG, monoid_cap=2)
        verdicts = cl.classify_all(lang("(a|b)*b"), cfg)
        for family in (Family.NC, Family.SF, Family.PS, Family.ORD):
            assert verdicts[family].outcome is Outcome.UNKNOWN
            assert verdicts[family].reason == "transition monoid exceeds cap 2"

    def test_sydef_state_cap_gives_unknown(self, monkeypatch):
        monkeypatch.setattr(cl, "COMET_STATE_CAP", 1)
        for family in (Family.SYDEF, Family.TWOCOM):
            v = cl.classify(lang("c(ab)*c", "abc"), family)
            assert v.outcome is Outcome.UNKNOWN
            assert v.reason == "comet state cap 1 exceeded"

    @pytest.mark.parametrize("text", ["a*b|b*a", "(ab)*", "c(ab)*c",
                                      "(a|b)*b", "ab|ba", "0"])
    def test_sydef_and_2com_reuse_the_verdicts_they_read(self, monkeypatch,
                                                         text):
        alphabet = "abc" if "c" in text else "ab"
        alone = {f: cl.classify(lang(text, alphabet), f)
                 for f in (Family.SYDEF, Family.TWOCOM)}
        calls = []
        for f in (Family.PS, Family.RCOM, Family.LCOM):
            decide = cl._DECIDERS[f]

            def counting(analysis, f=f, decide=decide):
                calls.append(f)
                return decide(analysis)

            # SYDEF and 2COM may reach a decider by either name
            monkeypatch.setitem(cl._DECIDERS, f, counting)
            monkeypatch.setattr(cl, decide.__name__, counting)
        verdicts = cl.classify_all(lang(text, alphabet))
        assert list(verdicts) == list(Family)
        assert sorted(calls, key=list(Family).index) == [
            Family.PS, Family.LCOM, Family.RCOM]
        for f, v in alone.items():
            assert verdicts[f] == v

    def test_each_shared_fact_is_built_once(self, monkeypatch):
        # NC, PS and ORD read one monoid; FIN, NIL, SYDEF and 2COM one
        # cardinality; SYDEF and 2COM one family of closed state sets;
        # SUF, STAR and RCOM one residual-inclusion relation (L holds the
        # empty word, so STAR reads it)
        h = lang("1|c(ab)*c", "abc")
        calls = []
        for name in ("transition_monoid", "aperiodicity_bound",
                     "cardinality_class", "_closed_state_sets", "_outside"):
            def counting(first, *args, name=name, fn=getattr(cl, name),
                         **kwargs):
                calls.append((name, first is h.dfa))
                return fn(first, *args, **kwargs)
            monkeypatch.setattr(cl, name, counting)
        cl.classify_all(h)
        assert calls.count(("transition_monoid", True)) == 1
        assert [n for n, _ in calls].count("aperiodicity_bound") == 1
        assert calls.count(("cardinality_class", True)) == 1
        assert calls.count(("_closed_state_sets", True)) == 1
        assert calls.count(("_outside", True)) == 1

    def test_suf_on_the_cerny_automaton(self):
        # C_20: a rotates 20 states, b sends 0 to 1, and 0 is final.  From
        # all states a subset construction reaches 2^20 - 1 sets
        n = 20
        rows = tuple(((q + 1) % n, 1 if q == 0 else q) for q in range(n))
        dfa = Dfa(("a", "b"), rows, 0, frozenset({0}))
        h = LanguageHandle(("a", "b"), au.dfa_to_regex(dfa))
        assert h.dfa.n_states == n
        start = time.perf_counter()
        assert cl.classify(h, Family.SUF).outcome is Outcome.NO
        assert time.perf_counter() - start < 0.1
        for family in (Family.STAR, Family.RCOM):
            v = cl.classify(h, family)
            assert v.outcome is Outcome.YES
            assert cl.verify_certificate(h, family, v.certificate)

    def test_a_capped_monoid_build_is_kept(self, monkeypatch):
        # NC, PS and ORD read one monoid build, even one that hit the cap
        cfg = dataclasses.replace(DEFAULT_CONFIG, monoid_cap=2)
        calls = []

        def counting(*args, fn=cl.transition_monoid, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        monkeypatch.setattr(cl, "transition_monoid", counting)
        verdicts = cl.classify_all(lang("(a|b)*b"), cfg)
        assert len(calls) == 1
        for family in (Family.NC, Family.PS, Family.ORD):
            assert verdicts[family] == cl._unknown(
                family, "transition monoid exceeds cap 2")

    def test_sydef_reads_an_unknown_ps_as_its_cap(self):
        cfg = dataclasses.replace(DEFAULT_CONFIG, monoid_cap=2)
        h = lang("(a|b)*b")
        verdicts = cl.classify_all(h, cfg)
        assert verdicts[Family.PS].outcome is Outcome.UNKNOWN
        assert verdicts[Family.SYDEF] == cl.classify(h, Family.SYDEF, cfg) \
            == cl._unknown(Family.SYDEF, "transition monoid exceeds cap 2")


class TestCertificateCaps:
    def test_cap_hit_is_a_certificate_error(self):
        cfg = dataclasses.replace(DEFAULT_CONFIG, monoid_cap=1)
        for family in (Family.NC, Family.SF, Family.PS):
            with pytest.raises(cl.CertificateError,
                               match="transition monoid exceeds cap 1"):
                cl.verify_certificate(lang("(ab)*"), family, {"bound": 1}, cfg)


# ---------------------------------------------------------------------------
# ORD against a brute-force definition


def _ordered_within(dfa: Dfa, extra: int) -> bool:
    """Whether L has an ordered automaton with at most `extra` states more
    than its minimal DFA `dfa`, by enumeration.

    Such an automaton, its states listed in increasing order and each
    labelled by its residual, is a word w over the states of `dfa` that
    holds each of them.  A letter a maps it monotonically exactly when
    targets of the right labels can be picked in nondecreasing positions,
    that is, when a(w) with runs of equal labels collapsed is a
    subsequence of w.
    """
    m = dfa.n_states
    columns = list(zip(*dfa.transitions))
    for length in range(m, m + extra + 1):
        for w in itertools.product(range(m), repeat=length):
            if len(set(w)) < m:
                continue
            ok = True
            for column in columns:
                image = [column[c] for c in w]
                collapsed = [t for i, t in enumerate(image)
                             if i == 0 or image[i - 1] != t]
                rest = iter(w)
                if not all(t in rest for t in collapsed):
                    ok = False
                    break
            if ok:
                return True
    return False


def _minimal_dfas(n_states):
    """Distinct minimal DFAs of the complete DFAs over {a,b} with
    `n_states` states and start 0."""
    out = set()
    for moves in itertools.product(range(n_states), repeat=2 * n_states):
        rows = tuple(moves[2 * s:2 * s + 2] for s in range(n_states))
        for mask in range(1 << n_states):
            finals = frozenset(s for s in range(n_states) if mask >> s & 1)
            out.add(au.minimize(Dfa(("a", "b"), rows, 0, finals)))
    return out


def _random_aperiodic_minimal_dfas(rng, n_states, count):
    # most random DFAs count modulo some number; those are covered above
    out = set()
    while len(out) < count:
        rows = tuple(tuple(rng.randrange(n_states) for _ in "ab")
                     for _ in range(n_states))
        finals = frozenset(s for s in range(n_states) if rng.random() < 0.5)
        dfa = au.minimize(Dfa(("a", "b"), rows, 0, finals))
        if dfa.n_states == n_states and aperiodic(dfa):
            out.add(dfa)
    return sorted(out, key=au.dfa_to_text)


def _check_ord_against_oracle(dfa: Dfa) -> Outcome:
    h = LanguageHandle(dfa.alphabet, au.dfa_to_regex(dfa), check=False)
    assert h.dfa == dfa
    v = cl.classify(h, Family.ORD)
    extra = cl.ORD_SPLIT_EXTRA
    assert (v.outcome is Outcome.YES) == _ordered_within(dfa, extra), \
        au.dfa_to_text(dfa)
    if v.outcome is Outcome.YES:
        assert cl.verify_certificate(h, Family.ORD, v.certificate)
        if "automaton" in v.certificate:
            split = au.dfa_from_text(v.certificate["automaton"])
            assert reachable_states(split) == set(range(split.n_states))
    elif v.outcome is Outcome.UNKNOWN:
        assert v.reason == (
            f"no ordered automaton with at most {extra} extra states")
    return v.outcome


def _overcounted_splits(dfa: Dfa) -> dict:
    """Each copy multiset with at most `ORD_SPLIT_EXTRA` extra states, in
    the order of the split search, mapped to the residuals d with more
    copies than the start and the moves into d can enter."""
    m = dfa.n_states
    out = {}
    for extra in range(cl.ORD_SPLIT_EXTRA + 1):
        for dup in itertools.combinations_with_replacement(range(m), extra):
            mult = tuple(1 + dup.count(c) for c in range(m))
            entering = [int(d == dfa.start) for d in range(m)]
            for c, row in enumerate(dfa.transitions):
                for d in row:
                    entering[d] += mult[c]
            out[mult] = [d for d in range(m) if mult[d] > entering[d]]
    return out


def _definite_window_by_words(dfa: Dfa, most: int):
    """Smallest k <= most such that u x and v x agree on L for all words u,
    v of length < n (they reach every state) and every x of length k, by
    membership tests alone; None if there is none."""
    heads = list(all_words(dfa.alphabet, dfa.n_states - 1))
    for k in range(most + 1):
        tails = list(itertools.product(dfa.alphabet, repeat=k))
        if all(len({dfa.accepts(u + "".join(x)) for u in heads}) == 1
               for x in tails):
            return k
    return None


class TestDefiniteOracle:
    def test_every_minimal_dfa_up_to_three_states(self):
        dfas = set().union(*(_minimal_dfas(n) for n in (1, 2, 3)))
        yes = 0
        for dfa in dfas:
            h = LanguageHandle(dfa.alphabet, au.dfa_to_regex(dfa), check=False)
            v = cl.classify(h, Family.DEF)
            window = _definite_window_by_words(dfa, 6)
            assert (v.outcome is Outcome.YES) == (window is not None), \
                au.dfa_to_text(dfa)
            if v.outcome is Outcome.YES:
                yes += 1
                assert v.certificate["window"] == window
                assert cl.verify_certificate(h, Family.DEF, v.certificate)
            # the window-only check holds exactly from the window on
            for k in range(dfa.n_states + 2):
                assert cl.verify_certificate(h, Family.DEF, {"window": k}) \
                    == (window is not None and window <= k), \
                    (au.dfa_to_text(dfa), k)
        assert (len(dfas), yes) == (1054, 56)

    def test_window_of_a_long_word(self):
        # the pairs of a^600's 602 states admit a walk through 601 pairs
        h = LanguageHandle.from_text("a" * 600, ("a", "b"))
        v = cl.classify(h, Family.DEF)
        assert v.outcome is Outcome.YES and v.certificate["window"] == 601
        # 1024 states, merged in 10 rounds
        dfa = lang("(a|b)*a" + "(a|b)" * 9).dfa
        start = time.perf_counter()
        assert cl._def_window(dfa) == 10
        assert time.perf_counter() - start < 0.2

    def test_certificate_of_a_long_word(self):
        h = LanguageHandle.from_text("a" * 600, ("a",))
        cert = cl.classify(h, Family.DEF).certificate
        assert (cert["window"], cert["A"], cert["B"]) == (601, ["a" * 600], [])
        h = lang("(a|b)*a" + "(a|b)" * 9)
        assert h.dfa.n_states == 1024
        start = time.perf_counter()
        cert = cl.classify(h, Family.DEF).certificate
        assert time.perf_counter() - start < 0.1
        assert (cert["A"], len(cert["B"])) == ([], 512)

    def test_a_and_b_against_the_definition(self):
        dfas = set().union(*(_minimal_dfas(n) for n in (1, 2, 3)))
        for dfa in dfas:
            h = LanguageHandle(dfa.alphabet, au.dfa_to_regex(dfa), check=False)
            cert = cl.classify(h, Family.DEF).certificate
            if cert is None:
                continue
            k = cert["window"]
            shorter = ["".join(w) for n in range(k)
                       for w in itertools.product(dfa.alphabet, repeat=n)
                       if dfa.accepts("".join(w))]
            # B: the words w of length k with Q.w inside F
            want = ["".join(w) for w in itertools.product(dfa.alphabet,
                                                          repeat=k)
                    if all(dataclasses.replace(dfa, start=q).accepts(w)
                           for q in range(dfa.n_states))]
            assert (cert["A"], cert["B"]) == (shorter, want), \
                au.dfa_to_text(dfa)


# ---------------------------------------------------------------------------
# FIN, NIL and COMB against their definitions


def _word_families_by_words(dfa: Dfa, most: int = 5) -> dict:
    """FIN, NIL and COMB by membership on every word of length <= `most`.
    An infinite L has a word with length in [n, 2n), and DFAs of n and m
    states that agree below n + m accept the same language, so 5 is exact
    for n <= 3 (V* X has at most 2 states)."""
    words = list(all_words(dfa.alphabet, most))
    n = dfa.n_states

    def finite(accepts):
        return all(len(w) < n for w in words if accepts(w))

    return {
        Family.FIN: finite(dfa.accepts),
        Family.NIL: finite(dfa.accepts)
        or finite(lambda w: not dfa.accepts(w)),
        # X is the letters in L
        Family.COMB: all(dfa.accepts(w) == (w != "" and dfa.accepts(w[-1]))
                         for w in words),
    }


class TestWordOracle:
    def test_every_minimal_dfa_up_to_three_states(self):
        dfas = set().union(*(_minimal_dfas(n) for n in (1, 2, 3)))
        yes = dict.fromkeys(map(Family, ("FIN", "NIL", "COMB")), 0)
        for dfa in dfas:
            h = LanguageHandle(dfa.alphabet, au.dfa_to_regex(dfa), check=False)
            for family, holds in _word_families_by_words(dfa).items():
                v = cl.classify(h, family)
                assert (v.outcome is Outcome.YES) == holds, \
                    (family, au.dfa_to_text(dfa))
                if holds:
                    yes[family] += 1
                    if family is Family.COMB:
                        assert cl.verify_certificate(h, family, v.certificate)
        assert len(dfas) == 1054
        assert {f.value: n for f, n in yes.items()} == {
            "FIN": 8, "NIL": 16, "COMB": 4}


# ---------------------------------------------------------------------------
# NC, SF and PS against their definitions


def _runner(dfa: Dfa):
    """run(q, w): the state that the word w leads to from the state q."""
    moves = dict(zip(dfa.alphabet, zip(*dfa.transitions)))

    def run(q, w):
        for a in w:
            q = moves[a][q]
        return q
    return run


def _covering_words(dfa: Dfa, run) -> list[str]:
    """The words of length <= l, for the first l at which every word of
    length l + 1 acts on the states as some shorter word does; the maps
    of these words are then the whole transition monoid."""
    def action(w):
        return tuple(run(q, w) for q in range(dfa.n_states))

    words, maps, layer = [""], {action("")}, [""]
    while True:
        layer = [w + a for w in layer for a in dfa.alphabet]
        actions = {action(w) for w in layer}
        if actions <= maps:
            # closed under each letter, so every word's map is among them
            letters = list(zip(*dfa.transitions))
            assert {tuple(lm[q] for q in m) for m in maps
                    for lm in letters} <= maps
            return words
        words += layer
        maps |= actions


def _power_bounds_by_words(dfa: Dfa):
    """(PS bound, tail, NC bound) from running the powers of each covering
    word w on the DFA.  The PS bound is the smallest m >= 1 such that
    w^j in L is the same for every j >= m, and tail the largest number of
    powers of w that the start state reads before its orbit cycles; the
    NC bound is the smallest k >= 1 with delta(s, w^k) = delta(s, w^(k+1))
    for every state s.  A bound is None when no m or k works: by j = n
    every orbit of an n-state DFA is on its cycle, so checking up to 2n
    suffices."""
    n = dfa.n_states
    run = _runner(dfa)
    power = []  # power[i][j][q] = delta(q, w^j) for the i-th word w
    for w in _covering_words(dfa, run):
        powers = [tuple(range(n))]
        for _ in range(2 * n):
            powers.append(tuple(run(q, w) for q in powers[-1]))
        power.append(powers)
    ps = next((m for m in range(1, n + 1)
               if all(len({p[dfa.start] in dfa.finals for p in powers[m:]})
                      == 1 for powers in power)), None)
    tail = max(min(j for j in range(n + 1)
                   if powers[j][dfa.start] in {p[dfa.start]
                                               for p in powers[j + 1:]})
               for powers in power)
    nc = next((k for k in range(1, n + 1)
               if all(powers[k] == powers[k + 1] for powers in power)),
              None)
    return ps, tail, nc


class TestPowerOracle:
    def test_every_minimal_dfa_up_to_three_states(self):
        dfas = set().union(*(_minimal_dfas(n) for n in (1, 2, 3)))
        yes = {Family.PS: 0, Family.NC: 0}
        for dfa in dfas:
            h = LanguageHandle(dfa.alphabet, au.dfa_to_regex(dfa), check=False)
            v = {f: cl.classify(h, f) for f in (Family.PS, Family.NC,
                                                Family.SF)}
            ps, tail, nc = _power_bounds_by_words(dfa)
            for family, bound in ((Family.PS, ps), (Family.NC, nc)):
                assert (v[family].outcome is Outcome.YES) == \
                    (bound is not None), (family, au.dfa_to_text(dfa))
                # a bound checks exactly when the definition holds with it
                for k in range(1, 2 * dfa.n_states + 1):
                    assert cl.verify_certificate(h, family, {"bound": k}) \
                        == (bound is not None and k >= bound), \
                        (family, k, au.dfa_to_text(dfa))
                if bound is not None:
                    yes[family] += 1
            if ps is not None:
                # PS gives the start state's longest tail, at least 1
                assert v[Family.PS].certificate == {"bound": max(1, tail)}
            if nc is not None:
                assert v[Family.NC].certificate == {"bound": nc}
            assert v[Family.SF] == dataclasses.replace(v[Family.NC],
                                                       family=Family.SF)
        assert len(dfas) == 1054
        assert {f.value: n for f, n in yes.items()} == {"PS": 242, "NC": 174}


class TestCometOracle:
    def test_every_minimal_dfa_up_to_three_states(self):
        dfas = sorted(set().union(*(_minimal_dfas(n) for n in (1, 2, 3))),
                      key=au.dfa_to_text)
        bounded = json.loads((GOLDEN / "bounded_comets.json").read_text())
        letter = {Outcome.YES: "y", Outcome.NO: "n"}
        got = {Family.SYDEF: "", Family.TWOCOM: ""}
        for i, dfa in enumerate(dfas):
            h = LanguageHandle(dfa.alphabet, au.dfa_to_regex(dfa), check=False)
            v = {f: cl.classify(h, f) for f in (
                Family.SYDEF, Family.TWOCOM, Family.LCOM, Family.RCOM,
                Family.PS)}
            for f in got:
                got[f] += letter[v[f].outcome]
                # every verdict the bounded search decided stands
                assert bounded[f.value][i] in ("u", got[f][-1]), \
                    (f, au.dfa_to_text(dfa))
                if v[f].outcome is Outcome.YES:
                    assert cl.verify_certificate(h, f, v[f].certificate)
            if v[Family.SYDEF].outcome is Outcome.YES:
                assert all(v[f].outcome is Outcome.YES
                           for f in (Family.LCOM, Family.RCOM, Family.PS))
            if v[Family.TWOCOM].outcome is Outcome.NO:
                assert all(v[f].outcome is Outcome.NO
                           for f in (Family.LCOM, Family.RCOM))
        assert [(s.count("y"), s.count("n")) for s in got.values()] == \
            [(58, 996), (1042, 12)]

    def test_cover_against_splits(self):
        # P covers L when every accepted word splits as u v with delta(u)
        # in P and delta(p, v) final for every p in P; words of length <= 4
        # tell every closed set of these DFAs apart
        dfas = set().union(*(_minimal_dfas(n) for n in (1, 2, 3)))
        sets = refuted = 0
        for dfa in dfas:
            run = _runner(dfa)
            columns = list(zip(*dfa.transitions))
            l = [w for w in all_words(dfa.alphabet, 4) if dfa.accepts(w)]
            for p in cl._closed_state_sets(dfa, columns, cl.COMET_STATE_CAP):
                members = [q for q in range(dfa.n_states) if p >> q & 1]
                covers = all(any(
                    run(dfa.start, w[:i]) in members and
                    all(run(q, w[i:]) in dfa.finals for q in members)
                    for i in range(len(w) + 1)) for w in l)
                assert cl._covers(dfa, columns, p, cl.COMET_STATE_CAP) == \
                    covers, (p, au.dfa_to_text(dfa))
                sets += 1
                refuted += not covers
        assert (sets, refuted) == (6649, 4403)

    def test_rcom_and_lcom_words(self):
        # g.L <= L (RCOM) and L.g <= L (LCOM), checked on the words of L of
        # length <= 6; g is the first non-empty word of length <= 3 in
        # length-lex order, for LCOM in that order of its reversal
        dfas = set().union(*(_minimal_dfas(n) for n in (1, 2, 3)))
        words = list(all_words(("a", "b"), 3))[1:]
        orders = {
            Family.RCOM: (words, lambda g, u: g + u),
            Family.LCOM: (sorted(words, key=lambda g: (len(g), g[::-1])),
                          lambda g, u: u + g),
        }
        yes = dict.fromkeys(orders, 0)
        for dfa in dfas:
            h = LanguageHandle(dfa.alphabet, au.dfa_to_regex(dfa), check=False)
            l = [u for u in all_words(dfa.alphabet, 6) if dfa.accepts(u)]
            for family, (candidates, join) in orders.items():
                g = next((g for g in candidates
                          if all(dfa.accepts(join(g, u)) for u in l)), None)
                v = cl.classify(h, family)
                if g is None:
                    assert v.outcome is Outcome.NO, \
                        (family, au.dfa_to_text(dfa))
                else:
                    assert v.outcome is Outcome.YES, \
                        (family, au.dfa_to_text(dfa))
                    assert v.certificate["g"] == g, \
                        (family, au.dfa_to_text(dfa))
                    assert cl.verify_certificate(h, family, v.certificate)
                    yes[family] += 1
        assert len(dfas) == 1054
        assert {f.value: n for f, n in yes.items()} == {"RCOM": 996,
                                                        "LCOM": 1036}


# ---------------------------------------------------------------------------
# MON, SUF, COMM, CIRC and STAR against their definitions


def _closures_by_words(dfa: Dfa, most: int = 6) -> dict:
    """Each closure family's definition, checked by membership on every
    word of length <= `most` (5 already agrees on every DFA of at most
    three states over {a,b})."""
    words = list(all_words(dfa.alphabet, most))
    l = {w for w in words if dfa.accepts(w)}
    return {
        Family.MON: len(l) == len(words),
        Family.SUF: all(w[1:] in l for w in l),
        # a swap is its own inverse, so swapping the words of L suffices
        Family.COMM: all(w[:i] + w[i + 1] + w[i] + w[i + 2:] in l
                         for w in l for i in range(len(w) - 1)),
        Family.CIRC: all(w[1:] + w[:1] in l for w in l),
        Family.STAR: "" in l and all(u + v in l for u in l for v in l
                                     if len(u) + len(v) <= most),
    }


class TestClosureOracle:
    def test_every_minimal_dfa_up_to_three_states(self):
        dfas = set().union(*(_minimal_dfas(n) for n in (1, 2, 3)))
        yes = dict.fromkeys(map(Family, ("MON", "SUF", "COMM", "CIRC",
                                         "STAR")), 0)
        for dfa in dfas:
            h = LanguageHandle(dfa.alphabet, au.dfa_to_regex(dfa), check=False)
            for family, holds in _closures_by_words(dfa).items():
                v = cl.classify(h, family)
                assert (v.outcome is Outcome.YES) == holds, \
                    (family, au.dfa_to_text(dfa))
                if holds:
                    yes[family] += 1
                    if v.certificate is not None:
                        assert cl.verify_certificate(h, family, v.certificate)
        assert len(dfas) == 1054
        assert {f.value: n for f, n in yes.items()} == {
            "MON": 1, "SUF": 42, "COMM": 80, "CIRC": 80, "STAR": 199}


class TestOrderedOracle:
    def test_every_minimal_dfa_up_to_three_states(self):
        dfas = set()
        for n in (1, 2, 3):
            dfas |= _minimal_dfas(n)
        assert len(dfas) == 1054
        outcomes = [_check_ord_against_oracle(d) for d in dfas]
        assert outcomes.count(Outcome.NO) == 880
        assert outcomes.count(Outcome.YES) == 174

    def test_order_check_against_the_definition(self):
        # every permutation of each yes order, checked pair by pair
        dfas = set().union(*(_minimal_dfas(n) for n in (1, 2, 3)))
        checked = accepted = 0
        for dfa in dfas:
            h = LanguageHandle(dfa.alphabet, au.dfa_to_regex(dfa), check=False)
            cert = cl.classify(h, Family.ORD).certificate
            if cert is None:
                continue
            rows = (au.dfa_from_text(cert["automaton"]).transitions
                    if "automaton" in cert else dfa.transitions)
            for order in itertools.permutations(cert["order"]):
                pos = {s: i for i, s in enumerate(order)}
                monotone = all(pos[rows[p][i]] <= pos[rows[q][i]]
                               for p, q in itertools.combinations(order, 2)
                               for i in range(len(dfa.alphabet)))
                assert cl.verify_certificate(
                    h, Family.ORD, dict(cert, order=list(order))) == monotone
                checked += 1
                accepted += monotone
        assert (checked, accepted) == (1426, 362)

    def test_sampled_four_and_five_state_dfas(self):
        rng = random.Random(20240811)
        dfas = (_random_aperiodic_minimal_dfas(rng, 4, 30)
                + _random_aperiodic_minimal_dfas(rng, 5, 30))
        outcomes = [_check_ord_against_oracle(d) for d in dfas]
        assert set(outcomes) == {Outcome.YES, Outcome.UNKNOWN}

    def test_skipped_splits_have_a_smaller_ordered_split(self):
        # `_split_order` skips a split in which some residual has more
        # copies than the start and the moves into it can enter.  A
        # skipped split may still have an order, but then so must the
        # split with one copy of that residual less, which the search
        # tries first.
        corpus = [h.dfa for h in hi.random_corpus(300)
                  if h.dfa.n_states <= cl.ORD_STATE_CAP and aperiodic(h.dfa)]
        exhaustive = sorted(set().union(*map(_minimal_dfas, (1, 2, 3))),
                            key=au.dfa_to_text)
        counts = []
        for dfas in (corpus, exhaustive):
            skipped = ordered = 0
            for dfa in dfas:
                over = _overcounted_splits(dfa)
                built = []

                class Recording(cl._Split):
                    def __init__(self, dfa, mult):
                        built.append(tuple(mult))
                        super().__init__(dfa, mult)

                with mock.patch.object(cl, "_Split", Recording):
                    cl._split_order(dfa, cl.ORD_SPLIT_EXTRA, [10**7])
                splits = list(over)
                tried = splits[:splits.index(built[-1]) + 1]
                assert [m for m in tried if not over[m]] == built
                for mult, residuals in over.items():
                    if not residuals:
                        continue
                    skipped += 1
                    if cl._Split(dfa, list(mult)).order([10**7]) is None:
                        continue
                    ordered += 1
                    for d in residuals:
                        less = list(mult)
                        less[d] -= 1
                        assert cl._Split(dfa, less).order([10**7]), \
                            (au.dfa_to_text(dfa), mult, d)
            counts.append((skipped, ordered))
        assert counts == [(2725, 807), (2602, 346)]

    def test_mirror_pair_keeps_every_ordered_split(self):
        # Reversing a monotone order and numbering each residual's copies
        # backwards gives an order of the same split in which the first two
        # single-copy states swap, so fixing them loses no split that has an
        # order, copy-free and skipped splits too.
        corpus = [h.dfa for h in hi.random_corpus(300)
                  if h.dfa.n_states <= cl.ORD_STATE_CAP]
        exhaustive = set().union(*map(_minimal_dfas, (1, 2, 3)))

        def monotone(order, rows):
            pos = {s: i for i, s in enumerate(order)}
            return all(pos[x] <= pos[y] for p, q in zip(order, order[1:])
                       for x, y in zip(rows[p], rows[q]))

        counts = []
        for dfas in (corpus, exhaustive):
            mirrored = refuted = 0
            for dfa in dfas:
                for mult in _overcounted_splits(dfa):
                    split = cl._Split(dfa, list(mult))
                    if split.mirror is None:
                        continue
                    mirrored += 1
                    fixed = split.order([10**7])
                    assert fixed is None or monotone(fixed, split.rows)
                    split.mirror = None
                    plain = split.order([10**7])
                    assert plain is None or monotone(plain, split.rows)
                    assert (fixed is None) == (plain is None), \
                        (au.dfa_to_text(dfa), mult)
                    refuted += fixed is None
            counts.append((mirrored, refuted))
        assert counts == [(5104, 3528), (7220, 6188)]

    def test_branch_order_keeps_copies_in_index_order(self):
        # `_descend` reads the move of copy s-1 as the lower bound of copy
        # s's move on the same letter, so the branch must place (s-1, a)
        # before (s, a); a key that breaks this searches a wrong range
        # without an error.  The branch also takes the letters with the
        # most forced moves placed first.
        corpus = [h.dfa for h in hi.random_corpus(300)
                  if h.dfa.n_states <= cl.ORD_STATE_CAP]
        exhaustive = sorted(set().union(*map(_minimal_dfas, (1, 2, 3))),
                            key=au.dfa_to_text)

        class Recording(cl._Split):
            branch = None

            def _descend(self, branch, budget):
                # the forced moves are placed, the branched ones still -1
                self.placed = [sum(t != -1 for t in col)
                               for col in zip(*self.rows)]
                self.branch = branch

        counts = []
        for dfas in (corpus, exhaustive):
            branches = copies = 0
            for dfa in dfas:
                for mult in _overcounted_splits(dfa):
                    split = Recording(dfa, list(mult))
                    split.order([10**7])
                    if split.branch is None:  # a forced move refutes it
                        continue
                    branches += 1
                    at = {move: i for i, move in enumerate(split.branch)}
                    for (s, a), i in at.items():
                        if s > split.first[split.owner[s]]:
                            assert at[s - 1, a] < i, \
                                (au.dfa_to_text(dfa), mult)
                            copies += 1
                    along = [split.placed[a] for _, a in split.branch]
                    assert along == sorted(along, reverse=True)
            counts.append((branches, copies))
        assert counts == [(3523, 5769), (7854, 11500)]

    def test_pinned_splits_are_accessible(self):
        # `_classify_ord` writes the split it finds as it is, so that split
        # must have no copy that the start copy cannot reach.  The start
        # copy is state 0: copy 0 of the minimal DFA's start, state 0.
        lines = (GOLDEN / "ord_search.jsonl").read_text().splitlines()
        splits = [json.loads(l)["split"] for l in lines]
        splits = [s for s in splits if s is not None]
        for order, rows, owner in splits:
            assert owner[0] == 0
            split = Dfa(("a", "b"), tuple(map(tuple, rows)), 0, frozenset())
            assert reachable_states(split) == set(range(split.n_states))
        assert len(splits) == 225

    def test_definite_language_without_a_small_ordered_automaton(self):
        h = lang("ba(a|b)b")
        verdicts = cl.classify_all(h)
        assert verdicts[Family.DEF].outcome is Outcome.YES
        assert verdicts[Family.ORD].outcome is Outcome.UNKNOWN
        assert verdicts[Family.ORD].reason == (
            "no ordered automaton with at most 2 extra states")

    def test_search_budget_gives_unknown(self):
        cfg = dataclasses.replace(DEFAULT_CONFIG, ord_search_budget=1)
        v = cl.classify(lang("(ab)*"), Family.ORD, cfg)
        assert v.outcome is Outcome.UNKNOWN
        assert v.reason == "order search budget exceeded"
