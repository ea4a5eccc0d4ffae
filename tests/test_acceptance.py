"""Acceptance suite: one test per acceptance criterion, zero tolerance.

Each test prints a single ``criterion N: PASS`` line on success (visible
with ``pytest -s``); a failed assertion marks the criterion as FAIL in
the pytest report.
"""

import functools
import hashlib
import itertools
import json
import random
import sys
from unittest import mock

from subreg import automata as au, classify as cl, comets, grammar as gr, \
    hierarchy as hi, regex as rx
from subreg.automata import Dfa
from subreg.classify import Family, Outcome
from subreg.language import LanguageHandle
from test_golden import comet_sample, read_golden, regex_pool, \
    twocom_line

AB = ("a", "b")


def criterion(num):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {num}: FAIL", file=sys.stderr, flush=True)
                raise
            print(f"criterion {num}: PASS", flush=True)
        return run
    return wrap


def lang(text, alphabet="ab"):
    return LanguageHandle.from_text(text, tuple(alphabet))


@criterion(1)
def test_criterion_1_example_grammar_reproduction():
    g = gr.fixtures()["ex1"]
    got = set(gr.enumerate_language(g, 8))
    closed = au.dfa_of(rx.parse_regex("(a|b)*|c(ab)*c", ("a", "b", "c")),
                       ("a", "b", "c"))
    expected = set(au.enumerate_words(closed, 8))
    assert got == expected


@criterion(2)
def test_criterion_2_ordered_automaton_for_ab_star():
    h = lang("(ab)*")
    v = cl.classify(h, Family.ORD)
    assert v.outcome is Outcome.YES
    assert cl.verify_certificate(h, Family.ORD, v.certificate)
    # the certified ordered automaton has 4 states
    dfa = au.dfa_from_text(v.certificate["automaton"])
    assert dfa.n_states == 4
    assert au.equivalent(dfa, h.dfa)
    # re-verify monotonicity by hand for both letters:
    # z <= z' implies delta(z, a) <= delta(z', a)
    order = v.certificate["order"]
    position = {s: i for i, s in enumerate(order)}
    assert sorted(order) == list(range(dfa.n_states))
    for z, zp in itertools.product(range(dfa.n_states), repeat=2):
        if position[z] > position[zp]:
            continue
        for i in range(len(dfa.alphabet)):
            assert (position[dfa.transitions[z][i]]
                    <= position[dfa.transitions[zp][i]])


@criterion(3)
def test_criterion_3_witness_battery():
    battery = [
        ("(aa)*", "a", {"STAR": "yes", "LCOM": "yes", "RCOM": "yes",
                        "PS": "no", "NC": "no"}),
        ("1", "a", {"STAR": "yes", "2COM": "no"}),
        ("1|a", "a", {"FIN": "yes", "SUF": "yes", "COMM": "yes",
                      "PS": "yes", "STAR": "no", "2COM": "no"}),
        ("a*b", "ab", {"RCOM": "yes", "LCOM": "no"}),
        ("ba*", "ab", {"LCOM": "yes", "RCOM": "no"}),
        ("(ab)*", "ab", {"STAR": "yes", "CIRC": "no"}),
        ("(a|b|c)*(a|b)", "abc", {"COMB": "yes"}),
        ("(a|b)*bab*(aab*)*", "ab", {"SYDEF": "yes", "NC": "no"}),
    ]
    for text, alphabet, expected in battery:
        h = lang(text, alphabet)
        for name, want in expected.items():
            v = cl.classify(h, Family(name))
            assert v.outcome.value == want, (text, name, v.outcome)
            if v.outcome is Outcome.YES and v.certificate is not None:
                assert cl.verify_certificate(h, Family(name), v.certificate), \
                    (text, name)


@criterion(4)
def test_criterion_4_left_normal_form_soundness():
    sample = comet_sample()
    assert len(sample) == 1000
    for d in sample:
        res = comets.left_normal_form(d)
        assert res.verified, d.to_json()
        union = rx.EMPTY
        for c in res.components:
            assert c.first_words is not None, d.to_json()
            assert all(isinstance(w, str) for w in c.first_words)
            mid = au.dfa_of(c.middle, AB)
            assert au.cardinality_class(mid) is not au.CardinalityClass.EMPTY
            assert not au.equivalent(mid, au.dfa_of(rx.EPSILON, AB))
            union = rx.union(union, c.regex())
        assert au.equivalent(au.dfa_of(union, AB), d.language_dfa())


@criterion(5)
def test_criterion_5_union_normal_form_soundness():
    def check(r):
        comps = rx.union_normal_form(r)
        assert all(rx.is_syntactically_union_free(c) for c in comps), \
            rx.render(r)
        union = rx.EMPTY
        for c in comps:
            union = rx.union(union, c)
        # equivalence needs no minimal DFA on either side
        assert au.equivalent(au.determinize(au.compile_regex(union, AB)),
                             au.determinize(au.compile_regex(r, AB))), \
            rx.render(r)

    # exhaustive over all regexes with at most 8 nodes
    pool = regex_pool(8)
    for lst in pool.values():
        for r in lst:
            check(r)
    # plus random larger samples
    rng = random.Random(20240813)
    for _ in range(10 ** 4):
        check(hi.random_regex(rng, AB, depth=5))


@criterion(6)
def test_criterion_6_grammar_transform_preservation():
    def selections_verify(g, family):
        for comp in g.components:
            cert = comp.certificates.get(family)
            if cert is None:
                v = cl.classify(comp.selection, family)
                assert v.outcome is Outcome.YES, family
                cert = v.certificate
            assert cl.verify_certificate(comp.selection, family, cert)

    for name, g in gr.fixtures().items():
        reference = gr.enumerate_language(g, 6)

        out = gr.transform_to_rcom(g)
        assert gr.enumerate_language(out, 6) == reference, name
        selections_verify(out, Family.RCOM)

        out = gr.transform_to_lcom(g)
        assert gr.enumerate_language(out, 6) == reference, name
        selections_verify(out, Family.LCOM)

        out = gr.eliminate_empty_word_selection(g)
        assert gr.enumerate_language(out, 6) == reference, name
        for comp in out.components:
            assert not au.equivalent(
                comp.selection.dfa,
                au.dfa_of(rx.EPSILON, comp.selection.alphabet)), name

        try:
            out = gr.definite_to_sydef(g)
        except gr.GrammarError:
            continue  # a selection is not definite: transform not applicable
        assert gr.enumerate_language(out, 6) == reference, name
        selections_verify(out, Family.SYDEF)


@criterion(7)
def test_criterion_7_membership_enumeration_cross_oracle():
    for name, g in gr.fixtures().items():
        words = set(gr.enumerate_language(g, 6))
        for k in range(7):
            for t in itertools.product(g.alphabet, repeat=k):
                w = "".join(t)
                assert gr.member(g, w) == (w in words), (name, w)


@criterion(8)
def test_criterion_8_aperiodicity_vs_brute_force():
    def compose(f, g):
        return tuple(g[x] for x in f)

    def brute_force_noncounting(dfa):
        # x y^k z in L  iff  x y^{k+1} z in L, for k = |monoid| and
        # |x|, |y|, |z| <= 3, evaluated through transformation maps
        n = dfa.n_states
        ident = tuple(range(n))
        gens = [tuple(dfa.transitions[s][i] for s in range(n))
                for i in range(len(dfa.alphabet))]
        maps = {(): ident}
        frontier = [()]
        for _ in range(3):
            new = []
            for w in frontier:
                for i, gmap in enumerate(gens):
                    w2 = w + (i,)
                    maps[w2] = compose(maps[w], gmap)
                    new.append(w2)
            frontier = new
        k = len(au.transition_monoid(dfa))
        entries = list(maps.items())
        for wy, my in entries:
            if not wy:
                continue
            yk = ident
            for _ in range(k):
                yk = compose(yk, my)
            yk1 = compose(yk, my)
            if yk == yk1:
                continue
            for _, mx in entries:
                t1, t2 = yk[mx[dfa.start]], yk1[mx[dfa.start]]
                if t1 == t2:
                    continue
                for _, mz in entries:
                    if (mz[t1] in dfa.finals) != (mz[t2] in dfa.finals):
                        return False
        return True

    disagreements = 0
    for n in (1, 2, 3):
        states = range(n)
        rows = itertools.product(itertools.product(states, repeat=2),
                                 repeat=n)
        for trans in rows:
            for bits in range(2 ** n):
                finals = frozenset(s for s in states if bits >> s & 1)
                dfa = Dfa(AB, trans, 0, finals)
                verdict = cl.aperiodicity_bound(
                    au.transition_monoid(au.minimize(dfa))) is not None
                if verdict != brute_force_noncounting(dfa):
                    disagreements += 1
    assert disagreements == 0


@criterion(9)
def test_criterion_9_hierarchy_verification():
    report = hi.verify_witnesses()
    assert report["n_failed"] == 0, report["failed"]
    for item in report["skipped"]:
        assert item["reason"], item
    # the corpus pass also checks the golden 2COM verdicts and pins the
    # sha256 of every verdict's JSON (sorted keys, in corpus and Family
    # order, under CORPUS_CONFIG), so the suite classifies the corpus once
    lines = []
    digest = hashlib.sha256()
    real = cl.classify_all

    def spy(handle, config):
        verdicts = real(handle, config)
        lines.append(twocom_line(handle, verdicts))
        for v in verdicts.values():
            digest.update(json.dumps(v.to_json(), sort_keys=True).encode())
        return verdicts

    with mock.patch.object(cl, "classify_all", spy):
        edges = hi.edge_consistency_check(corpus=hi.random_corpus(1000))
    assert edges["corpus_size"] >= 1000
    assert edges["n_violations"] == 0, edges["violations"]
    assert lines == read_golden("twocom_corpus.jsonl")
    assert digest.hexdigest() == (
        "f5f73728d3b13f700396b0bb9594c963bb1785fa112c0d82e6f4ca0fe0148b23")
