import dataclasses
import itertools
import re

import pytest

from subreg import classify as cl, grammar as gr, hierarchy as hi, regex as rx
from subreg.classify import DEFAULT_CONFIG, Family, Outcome
from subreg.hierarchy import FIG1, FIG2, Relation
from subreg.language import LanguageHandle


class TestGraphQueries:
    def test_reachability_relations(self):
        assert FIG1.query("MON", "REG") is Relation.PROPER_SUBSET
        assert FIG1.query("REG", "MON") is Relation.PROPER_SUPERSET
        assert FIG1.query("FIN", "STAR") is Relation.INCOMPARABLE
        assert FIG1.query("DEF", "PS") is Relation.PROPER_SUBSET

    def test_equalities_collapse(self):
        assert FIG1.query("NC", "SF") is Relation.EQUAL
        assert FIG1.query("SF", "PS") is Relation.PROPER_SUBSET
        assert FIG2.query("EC(REG)", "EC(2COM)") is Relation.EQUAL
        assert FIG2.query("EC(UF)", "EC(LCOM)") is Relation.EQUAL

    def test_fig2_strictness(self):
        assert FIG2.query("EC(MON)", "EC(STAR)") is Relation.PROPER_SUBSET
        assert FIG2.query("EC(STAR)", "EC(REG)") is Relation.PROPER_SUBSET
        assert FIG2.query("EC(SYDEF)", "EC(ORD)") is Relation.INCOMPARABLE

    def test_classify_all_checks_exactly_fig1s_family_edges(self,
                                                            monkeypatch):
        # X answers yes, Y no and every other family unknown
        edges = {(e.src, e.dst) for e in FIG1.edges}
        outcomes = {}
        monkeypatch.setattr(cl, "_DECIDERS", {
            f: lambda an, f=f: cl.Verdict(
                f, outcomes.get(f, Outcome.UNKNOWN)) for f in Family})
        handle = LanguageHandle.from_text("a", ("a",))
        for x, y in itertools.permutations(Family, 2):
            outcomes.clear()
            outcomes.update({x: Outcome.YES, y: Outcome.NO})
            if (x.value, y.value) in edges:
                message = f"{x} = yes but {y} = no"
            elif y is Family.UF:
                message = "UF can never be decided negatively"
            else:
                cl.classify_all(handle)
                continue
            with pytest.raises(cl.ConsistencyError, match=re.escape(message)):
                cl.classify_all(handle)

    def test_unknown_node_raises(self):
        with pytest.raises(hi.HierarchyError):
            FIG1.query("NOPE", "REG")

    def test_acyclic(self):
        with pytest.raises(hi.HierarchyError):
            hi.HierarchyGraph("bad", ["A", "B"],
                              [hi.Edge("A", "B", "literature"),
                               hi.Edge("B", "A", "literature")])

    def test_three_cycle_raises(self):
        with pytest.raises(hi.HierarchyError, match="has a cycle"):
            hi.HierarchyGraph("bad", ["A", "B", "C", "D"],
                              [hi.Edge("D", "A", "literature"),
                               hi.Edge("A", "B", "literature"),
                               hi.Edge("B", "C", "literature"),
                               hi.Edge("C", "A", "literature")])

    def test_edge_inside_an_equality_group_raises(self):
        # A = B, so A -> B would make A a proper subset of itself
        with pytest.raises(hi.HierarchyError, match="has a cycle"):
            hi.HierarchyGraph("bad", ["A", "B", "C"],
                              [hi.Edge("A", "C", "literature"),
                               hi.Edge("A", "B", "literature")],
                              equalities=[{"A", "B"}])

    def test_to_dot(self):
        dot = FIG1.to_dot()
        assert dot.startswith("digraph fig1 {")
        assert '"NC" [label="NC = SF"]' in dot
        assert "style=dashed" in dot  # literature edges are dashed
        dot2 = FIG2.to_dot()
        assert "EC(REG) = EC(UF)" in dot2.replace('"', "")


class TestWitnessRegistry:
    def test_all_claims_verify(self):
        report = hi.verify_witnesses()
        assert report["n_failed"] == 0, report["failed"]
        assert report["n_passed"] > 0

    def test_skipped_claims_are_provenance_only(self):
        report = hi.verify_witnesses()
        for item in report["skipped"]:
            assert item["reason"], item

    def test_every_witness_edge_has_backing_claims(self):
        # the witness of X ⊂ Y lies in Y and not in X
        claims = {e.id: {(c.family, c.expected) for c in e.claims}
                  for e in hi.registry()}
        for graph in (FIG1, FIG2):
            for edge in graph.edges:
                if edge.provenance.startswith("witness:"):
                    wid = edge.provenance.split(":", 1)[1]
                    need = {(edge.dst, "yes"), (edge.src, "no")}
                    assert need <= claims.get(wid, set()), edge

    def test_language_claim_fails_with_the_cap(self):
        entry = hi._lang_entry("ab_star", "(ab)*", "ab", yes=["NC"],
                               supplied={"NC": {"bound": 1}})
        cfg = dataclasses.replace(DEFAULT_CONFIG, monoid_cap=1)
        report = hi.verify_witnesses([entry], cfg)
        assert report["n_failed"] == 1
        assert ("transition monoid exceeds cap 1"
                in report["failed"][0]["reason"])

    def test_grammar_claim_fails_with_the_error(self, monkeypatch):
        def unverifiable(*args):
            raise cl.CertificateError("cannot check certificate: cap 1")

        monkeypatch.setattr(cl, "verify_certificate", unverifiable)
        entry = hi._grammar_entry("ex1", "ex1", ["ORD"])
        report = hi.verify_witnesses([entry])
        assert report["failed"] == [{
            "witness": "ex1", "family": "EC(ORD)", "expected": "yes",
            "reason": "cannot check certificate: cap 1"}]

    def test_grammar_claim_names_the_component_and_why(self):
        # ex1's second selection (ab)* is not definite
        report = hi.verify_witnesses([hi._grammar_entry("ex1", "ex1",
                                                        ["DEF"])])
        assert report["failed"] == [{
            "witness": "ex1", "family": "EC(DEF)", "expected": "yes",
            "reason": "component 1 in DEF: expected yes, got no"}]

    @pytest.mark.parametrize("supplied, ok, reason", [
        ({"regex": "aa*"}, True,
         "grammar generates the closed form with certified selections"),
        ({"regex": "a"}, False,
         "component 0 in UF: supplied certificate rejected"),
        ({}, False, "component 0 in UF: expected yes, got unknown")])
    def test_grammar_claim_reads_the_supplied_certificate(self, supplied, ok,
                                                          reason):
        # a|aa* has a union in its source regex, so UF answers unknown
        g = gr.ContextualGrammar(("a",), (gr.SelectionComponent(
            LanguageHandle.from_text("a|aa*", ("a",)),
            (gr.Context("a", ""),), {Family.UF: supplied}),), ("a",))
        claim = hi.Claim("EC(UF)", "yes", True)
        assert hi._verify_grammar_claim(g, claim, DEFAULT_CONFIG) == (ok,
                                                                      reason)

    def test_fixtures_built_once_and_enumerated_once_per_entry(
            self, monkeypatch):
        calls = {"fixtures": 0, "enumerate_language": 0}
        for name in calls:
            real = getattr(gr, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(gr, name, counted)
        entries = [e for e in hi.registry() if e.kind == "grammar"]
        report = hi.verify_witnesses(entries)
        assert report["n_failed"] == 0, report["failed"]
        assert calls == {"fixtures": 1, "enumerate_language": len(entries)}


class TestRandomCorpus:
    def test_deterministic(self):
        a = hi.random_corpus(50)
        b = hi.random_corpus(50)
        assert [rx.render(h.regex) for h in a] == \
               [rx.render(h.regex) for h in b]

    def test_size_and_dedup(self):
        corpus = hi.random_corpus(100)
        texts = [rx.render(h.regex) for h in corpus]
        assert len(texts) == 100
        assert len(set(texts)) == 100

    def test_edge_consistency_small(self):
        report = hi.edge_consistency_check(corpus=hi.random_corpus(60))
        assert report["n_violations"] == 0, report["violations"]
        assert report["corpus_size"] == 60
        for item in report["properness"]:
            assert item["status"], item

    def test_a_broken_edge_is_reported(self, monkeypatch):
        # (a|b)* is in MON; a STAR decider that answers no breaks MON -> STAR
        monkeypatch.setitem(cl._DECIDERS, Family.STAR,
                            lambda an: cl._no(Family.STAR))
        corpus = [LanguageHandle.from_text(t, ("a", "b"))
                  for t in ("(a|b)*", "ab")]
        report = hi.edge_consistency_check(corpus)
        assert report["n_violations"] == 1
        assert report["violations"] == [{
            "language": "(a|b)*",
            "reason": "MON = yes but STAR = no for (a|b)*"}]
