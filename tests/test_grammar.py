import itertools

import pytest

from subreg import classify as cl, grammar as gr
from subreg.classify import Family, Outcome
from subreg.grammar import Context, ContextualGrammar, SelectionComponent
from subreg.language import LanguageHandle


def handle(text, alphabet):
    return LanguageHandle.from_text(text, tuple(alphabet))


def simple_grammar(selection="(a|b)*", contexts=(("", "a"),), axioms=("",),
                   alphabet="ab", sel_alphabet="ab"):
    return ContextualGrammar(
        tuple(alphabet),
        (SelectionComponent(handle(selection, sel_alphabet),
                            tuple(Context(u, v) for u, v in contexts)),),
        tuple(axioms))


class TestValidate:
    def test_fixtures_validate(self):
        for name, g in gr.fixtures().items():
            gr.validate(g)

    def test_empty_axioms_rejected(self):
        with pytest.raises(gr.GrammarError):
            gr.validate(simple_grammar(axioms=()))

    def test_lambda_context_rejected(self):
        with pytest.raises(gr.GrammarError):
            gr.validate(simple_grammar(contexts=(("", ""),)))

    def test_axiom_over_alphabet(self):
        with pytest.raises(gr.GrammarError):
            gr.validate(simple_grammar(axioms=("ax",)))

    def test_context_over_alphabet(self):
        with pytest.raises(gr.GrammarError):
            gr.validate(simple_grammar(contexts=(("c", ""),)))

    def test_selection_alphabet_subset(self):
        with pytest.raises(gr.GrammarError):
            gr.validate(simple_grammar(alphabet="a", selection="(a|b)*"))

    def test_empty_context_set_rejected(self):
        g = ContextualGrammar(
            ("a",), (SelectionComponent(handle("a*", "a"), ()),), ("a",))
        with pytest.raises(gr.GrammarError):
            gr.validate(g)


class TestMeasures:
    def test_ex1_measures(self):
        m = gr.measures(gr.fixtures()["ex1"])
        assert m.l_a == 0
        assert m.l_c == 2
        assert m.l == 3
        assert m.to_json() == {"l": 3, "l_A": 0, "l_C": 2}


class TestDerivation:
    def test_derive_step_ex1(self):
        g = gr.fixtures()["ex1"]
        assert gr.derive_step(g, "ab") == ["aba", "abb", "cabc"]

    def test_derive_step_respects_selection(self):
        g = gr.fixtures()["ex1"]
        # "ca" is in neither selection, so no step applies
        assert gr.derive_step(g, "ca") == []

    def test_enumerate_matches_fixture_closed_forms(self):
        for name, g in gr.fixtures().items():
            got = set(gr.enumerate_language(g, 7))
            assert got == gr.fixture_words(name, 7), name

    def test_member_agrees_with_enumeration(self):
        for name, g in gr.fixtures().items():
            words = set(gr.enumerate_language(g, 5))
            for k in range(6):
                for t in itertools.product(g.alphabet, repeat=k):
                    w = "".join(t)
                    assert gr.member(g, w) == (w in words), (name, w)


class TestJson:
    def test_round_trip(self):
        for name, g in gr.fixtures().items():
            again = gr.grammar_from_json(g.to_json())
            assert again.alphabet == g.alphabet
            assert again.axioms == g.axioms
            assert len(again.components) == len(g.components)
            assert gr.enumerate_language(again, 6) == gr.enumerate_language(g, 6)

    def test_schema_shape(self):
        data = gr.fixtures()["ex1"].to_json()
        assert set(data) == {"alphabet", "axioms", "components"}
        comp = data["components"][0]
        assert set(comp) == {"selection", "contexts"}
        assert set(comp["selection"]) == {"alphabet", "regex"}

    def test_certificates_survive_round_trip(self):
        g = gr.fixtures()["sydef_o_nc"]
        data = g.to_json()
        assert "certificates" in data["components"][1]
        again = gr.grammar_from_json(data)
        assert Family.SYDEF in again.components[1].certificates

    def test_malformed_rejected(self):
        with pytest.raises(gr.GrammarError):
            gr.grammar_from_json({"alphabet": ["a"]})


class TestTransforms:
    def test_rcom_preserves_language(self):
        for name, g in gr.fixtures().items():
            out = gr.transform_to_rcom(g)
            assert gr.enumerate_language(out, 6) == gr.enumerate_language(g, 6)
            assert len(set(out.alphabet) - set(g.alphabet)) == 1
            for comp in out.components:
                v = cl.classify(comp.selection, Family.RCOM)
                assert v.outcome is Outcome.YES, name

    def test_lcom_preserves_language(self):
        g = gr.fixtures()["ex1"]
        out = gr.transform_to_lcom(g)
        assert gr.enumerate_language(out, 6) == gr.enumerate_language(g, 6)
        for comp in out.components:
            assert cl.classify(comp.selection,
                               Family.LCOM).outcome is Outcome.YES

    def test_eliminate_empty_word_selection(self):
        g = ContextualGrammar(
            ("a", "b"),
            (SelectionComponent(handle("1", "ab"),
                                (Context("a", "b"),)),),
            ("",))
        out = gr.eliminate_empty_word_selection(g)
        assert out.components == ()
        assert set(out.axioms) == {"", "ab"}
        for n in range(6):
            assert gr.enumerate_language(out, n) == gr.enumerate_language(g, n)

    def test_eliminate_no_lambda_selection_is_identity(self):
        g = gr.fixtures()["comb_o_pre_star"]
        assert gr.eliminate_empty_word_selection(g) is g

    def test_eliminate_underivable_lambda_adds_no_axiom(self):
        # every axiom is non-empty, so no derivation reaches λ
        g = ContextualGrammar(
            ("a", "b"),
            (SelectionComponent(handle("1", "ab"), (Context("b", "b"),)),
             SelectionComponent(handle("a*", "ab"), (Context("", "a"),))),
            ("a",))
        out = gr.eliminate_empty_word_selection(g)
        assert out.components == g.components[1:]
        assert out.axioms == ("a",)

    def test_eliminate_lists_each_axiom_once(self):
        g = simple_grammar(selection="1", contexts=(("a", "b"),),
                           axioms=("b", "", "b"))
        out = gr.eliminate_empty_word_selection(g)
        assert out.axioms == ("", "b", "ab")

    def test_definite_to_sydef_drops_a_component_without_b(self):
        g = simple_grammar(selection="a", contexts=(("b", "b"),),
                           axioms=("a",))
        cert = cl.classify(g.components[0].selection, Family.DEF).certificate
        assert cert == {"window": 2, "A": ["a"], "B": []}
        out = gr.definite_to_sydef(g)
        assert out.components == ()
        assert out.axioms == ("a", "bab")

    def test_definite_to_sydef_worked_example(self):
        g = ContextualGrammar(
            ("a", "b", "d"),
            (SelectionComponent(handle("a|(a|b)*b", "ab"),
                                (Context("d", ""),)),),
            ("a",))
        out = gr.definite_to_sydef(g)
        assert "da" in out.axioms
        for n in range(7):
            assert gr.enumerate_language(out, n) == gr.enumerate_language(g, n)
        for comp in out.components:
            cert = comp.certificates[Family.SYDEF]
            assert cl.verify_certificate(comp.selection, Family.SYDEF, cert)

    def test_definite_to_sydef_requires_definite(self):
        g = simple_grammar(selection="(aa)*", sel_alphabet="a")
        with pytest.raises(gr.GrammarError):
            gr.definite_to_sydef(g)


class TestClassifySelections:
    def test_shape_and_alphabet(self):
        g = gr.fixtures()["star_o_ps"]
        maps = gr.classify_selections(g)
        assert len(maps) == len(g.components)
        for verdicts in maps:
            assert set(verdicts) == set(Family)
        # a* over {a} is monoidal; (aa)* is not
        assert maps[0][Family.MON].outcome is Outcome.YES
        assert maps[1][Family.MON].outcome is Outcome.NO
        assert maps[1][Family.STAR].outcome is Outcome.YES
