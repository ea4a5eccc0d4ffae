"""Inclusion hierarchies of the subregular families and of the families
generated by external contextual grammars with restricted selection.

Two graphs are shipped: FIG1 relates the language families themselves,
FIG2 relates the families EC(F) of languages generated by grammars whose
selections lie in F.  Edges are proper inclusions X ⊂ Y.  FIG1 draws its
edges from `classify.FIG1_EDGES`, the one table of Fig. 1, which
`classify_all` also checks its verdicts against.  A witness registry
pins the propernesses that can be machine-checked: an edge's
"witness:<id>" names the entry that claims Y yes and X no.  Claims
resting on external literature or on non-membership arguments that
cannot be re-verified are carried as provenance-only entries.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, replace

from . import classify as cls, grammar as gr, regex as rx
from .classify import ClassifierConfig, DEFAULT_CONFIG, Family, Outcome
from .language import LanguageHandle


class HierarchyError(Exception):
    pass


class Relation(enum.Enum):
    PROPER_SUBSET = "proper-subset"
    PROPER_SUPERSET = "proper-superset"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    provenance: str  # "witness:<id>" or "literature"


class HierarchyGraph:
    def __init__(self, name: str, nodes, edges, equalities=()):
        self.name = name
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self.equalities = tuple(frozenset(e) for e in equalities)
        self._canon = {}
        for node in self.nodes:
            self._canon[node] = node
        for group in self.equalities:
            rep = min(group)
            for node in group:
                if node not in self._canon:
                    raise HierarchyError(f"unknown node {node!r} in equality")
                self._canon[node] = rep
        self._succ: dict[str, set[str]] = {}
        for e in self.edges:
            if e.src not in self._canon or e.dst not in self._canon:
                raise HierarchyError(f"edge {e} references unknown node")
            self._succ.setdefault(self.canon(e.src), set()).add(self.canon(e.dst))
        # an edge closes a cycle when it is a loop on one group of equal
        # nodes or its head reaches back to its tail
        if any(w == v or self.reachable(w, v)
               for v, succ in self._succ.items() for w in succ):
            raise HierarchyError(f"{name}: inclusion graph has a cycle")

    def canon(self, node: str) -> str:
        if node not in self._canon:
            raise HierarchyError(f"unknown node {node!r}")
        return self._canon[node]

    def reachable(self, src: str, dst: str) -> bool:
        src, dst = self.canon(src), self.canon(dst)
        if src == dst:
            return False
        stack, seen = [src], {src}
        while stack:
            v = stack.pop()
            for w in self._succ.get(v, ()):
                if w == dst:
                    return True
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    def query(self, x: str, y: str) -> Relation:
        if self.canon(x) == self.canon(y):
            return Relation.EQUAL
        if self.reachable(x, y):
            return Relation.PROPER_SUBSET
        if self.reachable(y, x):
            return Relation.PROPER_SUPERSET
        return Relation.INCOMPARABLE

    def to_dot(self) -> str:
        lines = [f"digraph {self.name} {{", "  rankdir=BT;"]
        label = {min(g): " = ".join(sorted(g)) for g in self.equalities}
        for rep in sorted(set(self._canon.values())):
            lines.append(f'  "{rep}" [label="{label.get(rep, rep)}"];')
        for e in sorted(self.edges, key=lambda e: (e.src, e.dst)):
            style = ' [style=dashed]' if e.provenance == "literature" else ""
            lines.append(f'  "{self.canon(e.src)}" -> "{self.canon(e.dst)}"{style};')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _edges(pairs):
    return [Edge(s, d, p) for s, d, p in pairs]


FIG1 = HierarchyGraph(
    "fig1",
    nodes=[f.value for f in Family] + ["REG"],
    edges=_edges(cls.FIG1_EDGES),
    equalities=[("NC", "SF")],
)


def _ec(name: str) -> str:
    return f"EC({name})"


FIG2 = HierarchyGraph(
    "fig2",
    nodes=[_ec(n) for n in ("FIN", "MON", "NIL", "COMB", "DEF", "SYDEF",
                            "SUF", "ORD", "COMM", "CIRC", "NC", "PS",
                            "STAR", "REG", "UF", "LCOM", "RCOM", "2COM")],
    edges=_edges([
        (_ec("FIN"), _ec("MON"), "literature"),
        (_ec("MON"), _ec("NIL"), "literature"),
        (_ec("MON"), _ec("COMB"), "literature"),
        (_ec("MON"), _ec("SUF"), "literature"),
        (_ec("MON"), _ec("STAR"), "witness:star_o_ps"),
        (_ec("COMB"), _ec("DEF"), "literature"),
        (_ec("NIL"), _ec("COMM"), "literature"),
        (_ec("NIL"), _ec("DEF"), "literature"),
        (_ec("DEF"), _ec("ORD"), "literature"),
        (_ec("DEF"), _ec("SYDEF"), "witness:sydef_o_nc"),
        (_ec("ORD"), _ec("NC"), "literature"),
        (_ec("NC"), _ec("PS"), "literature"),
        (_ec("SUF"), _ec("PS"), "literature"),
        (_ec("SYDEF"), _ec("PS"), "witness:ord_o_sydef"),
        (_ec("COMM"), _ec("CIRC"), "literature"),
        (_ec("CIRC"), _ec("REG"), "literature"),
        (_ec("STAR"), _ec("REG"), "witness:comb_o_pre_star"),
        (_ec("PS"), _ec("REG"), "witness:star_o_ps"),
    ]),
    equalities=[(_ec("REG"), _ec("UF"), _ec("LCOM"), _ec("RCOM"), _ec("2COM"))],
)

GRAPHS = {"fig1": FIG1, "fig2": FIG2}


# ---------------------------------------------------------------------------
# Witness registry


@dataclass(frozen=True)
class Claim:
    family: str          # family tag, or EC(F) tag for grammar witnesses
    expected: str        # "yes" or "no"
    verifiable: bool
    provenance: str = "witness"
    certificate: dict | None = None


@dataclass(frozen=True)
class WitnessEntry:
    id: str
    kind: str                                # "language" or "grammar"
    claims: tuple[Claim, ...]
    regex: str | None = None
    alphabet: str | None = None
    fixture: str | None = None

    def language(self) -> LanguageHandle:
        return LanguageHandle.from_text(self.regex, tuple(self.alphabet))


def _lang_entry(wid, regex, alphabet, yes=(), no=(), unverifiable_no=(),
                supplied=None):
    claims = []
    supplied = supplied or {}
    for fam in yes:
        claims.append(Claim(fam, "yes", True,
                            certificate=supplied.get(fam)))
    for fam in no:
        claims.append(Claim(fam, "no", True))
    for fam in unverifiable_no:
        claims.append(Claim(fam, "no", False,
                            provenance="no exact decider for this family"))
    return WitnessEntry(wid, "language", tuple(claims), regex, alphabet)


def _grammar_entry(wid, fixture, member_of, not_member_of=()):
    claims = [Claim(_ec(f), "yes", True) for f in member_of]
    claims += [Claim(_ec(f), "no", False,
                     provenance="non-membership argument is not mechanizable")
               for f in not_member_of]
    return WitnessEntry(wid, "grammar", tuple(claims), fixture=fixture)


def registry() -> list[WitnessEntry]:
    entries = [
        _lang_entry("even_a", "(aa)*", "a",
                    yes=["STAR", "LCOM", "RCOM", "2COM", "UF", "REG"],
                    no=["PS", "NC", "SF", "MON", "SYDEF", "DEF", "ORD"]),
        _lang_entry("lambda_only", "1", "a",
                    yes=["STAR", "UF", "NIL", "FIN", "DEF", "SUF", "COMM",
                         "CIRC", "NC", "PS"],
                    no=["2COM", "LCOM", "RCOM", "MON"]),
        _lang_entry("lambda_a", "1|a", "a",
                    yes=["FIN", "NIL", "DEF", "SUF", "COMM", "CIRC", "PS",
                         "NC", "ORD", "REG"],
                    no=["STAR", "2COM", "LCOM", "RCOM", "MON", "COMB",
                        "SYDEF"]),
        _lang_entry("a_star_b", "a*b", "ab",
                    yes=["RCOM", "2COM", "UF"],
                    no=["LCOM", "STAR", "SUF", "DEF", "NIL"]),
        _lang_entry("b_a_star", "ba*", "ab",
                    yes=["LCOM", "2COM", "UF"],
                    no=["RCOM", "STAR"]),
        _lang_entry("ab_star", "(ab)*", "ab",
                    yes=["STAR", "LCOM", "RCOM", "2COM", "UF", "ORD", "NC",
                         "PS", "REG"],
                    no=["CIRC", "COMM", "DEF", "MON"]),
        _lang_entry("comb_abc", "(a|b|c)*(a|b)", "abc",
                    yes=["COMB", "DEF", "SYDEF", "ORD", "NC", "PS"],
                    unverifiable_no=["UF"]),
        _lang_entry("sydef_not_sf", "(a|b)*bab*(aab*)*", "ab",
                    yes=["SYDEF", "LCOM", "RCOM", "2COM", "PS"],
                    no=["NC", "SF", "MON", "COMB"],
                    supplied={"SYDEF": {"E": "1", "H": "bab*(aab*)*"}}),
        _lang_entry("single_a", "a", "a",
                    yes=["UF", "FIN", "NIL", "DEF"],
                    no=["STAR", "MON", "2COM"]),
        _lang_entry("a_star", "a*", "a",
                    yes=["NIL", "MON", "STAR", "SYDEF", "DEF", "SUF"],
                    no=["FIN"]),
        _lang_entry("ends_b", "(a|b)*b", "ab",
                    yes=["COMB", "DEF", "SYDEF", "ORD", "NC", "PS", "RCOM",
                         "LCOM", "2COM"],
                    no=["NIL", "SUF", "CIRC", "COMM", "STAR"]),
        _lang_entry("rotations_abc", "abc|bca|cab", "abc",
                    yes=["CIRC", "FIN", "NIL", "DEF"],
                    no=["COMM", "STAR", "2COM"]),
        _lang_entry("even_a_b", "(aa)*b", "ab", yes=["PS"], no=["NC", "SF"]),
        _grammar_entry("ex1", "ex1", ["ORD"]),
        _grammar_entry("nil_o_star", "nil_o_star", ["NIL"], ["STAR"]),
        _grammar_entry("comb_o_pre_star", "comb_o_pre_star",
                       ["COMB", "REG"], ["STAR"]),
        _grammar_entry("suf_o_star", "suf_o_star", ["SUF"], ["STAR"]),
        _grammar_entry("star_o_ps", "star_o_ps", ["STAR", "REG"],
                       ["PS", "MON"]),
        _grammar_entry("star_o_circ", "star_o_circ", ["STAR"], ["CIRC"]),
        _grammar_entry("ord_o_sydef", "ord_o_sydef", ["ORD", "PS"],
                       ["SYDEF"]),
        _grammar_entry("suf_o_sydef", "suf_o_sydef", ["SUF"], ["SYDEF"]),
        _grammar_entry("sydef_o_nc", "sydef_o_nc", ["SYDEF"], ["NC", "DEF"]),
    ]
    return entries


def _certified(handle, family, supplied, config):
    """(ok, reason): `handle` is decided yes in `family` and its certificate
    verifies, or is unknown and the non-empty `supplied` certificate
    verifies."""
    verdict = cls.classify(handle, family, config)
    if verdict.outcome is Outcome.YES:
        if verdict.certificate is not None:
            ok = cls.verify_certificate(handle, family,
                                        verdict.certificate, config)
            return ok, "decided yes" if ok else "certificate rejected"
        return True, "decided yes"
    if verdict.outcome is Outcome.UNKNOWN and supplied:
        ok = cls.verify_certificate(handle, family, supplied, config)
        return ok, ("supplied certificate verified" if ok
                    else "supplied certificate rejected")
    return False, f"expected yes, got {verdict.outcome.value}"


def _verify_language_claim(handle, claim, config):
    if claim.family == "REG":
        return True, "regular by construction"
    family = cls.family_from_name(claim.family)
    if claim.expected == "yes":
        return _certified(handle, family, claim.certificate, config)
    outcome = cls.classify(handle, family, config).outcome
    if outcome is Outcome.NO:
        return True, "decided no"
    return False, f"expected no, got {outcome.value}"


def _checked_fixture(fixtures, name):
    """The fixture, or None when its enumeration to length 8 deviates from
    its closed form."""
    fix = fixtures[name]
    gr.validate(fix)
    generated = set(gr.enumerate_language(fix, 8))
    return fix if generated == gr.fixture_words(name, 8) else None


def _verify_grammar_claim(fix, claim, config):
    if fix is None:
        return False, "fixture enumeration deviates from its closed form"
    if claim.family == _ec("REG"):
        return True, "grammar generates the closed form; selections regular"
    family = cls.family_from_name(claim.family[3:-1])
    for i, comp in enumerate(fix.components):
        ok, reason = _certified(comp.selection, family,
                                comp.certificates.get(family), config)
        if not ok:
            return False, f"component {i} in {family.value}: {reason}"
    return True, "grammar generates the closed form with certified selections"


def verify_witnesses(entries=None,
                     config: ClassifierConfig = DEFAULT_CONFIG) -> dict:
    """Check every verifiable registry claim; provenance-only claims are
    reported as skipped with their reason."""
    if entries is None:
        entries = registry()
    fixtures = gr.fixtures()
    passed, failed, skipped = [], [], []
    for entry in entries:
        if entry.kind == "language":
            subject = entry.language()
        else:
            subject = _checked_fixture(fixtures, entry.fixture)
        for claim in entry.claims:
            tag = {"witness": entry.id, "family": claim.family,
                   "expected": claim.expected}
            if not claim.verifiable:
                skipped.append({**tag, "reason": claim.provenance})
                continue
            try:
                if entry.kind == "language":
                    ok, reason = _verify_language_claim(subject, claim, config)
                else:
                    ok, reason = _verify_grammar_claim(subject, claim, config)
            except cls.CertificateError as exc:
                # a certificate that cannot be checked certifies nothing
                ok, reason = False, str(exc)
            (passed if ok else failed).append({**tag, "reason": reason})
    return {
        "failed": failed,
        "n_failed": len(failed),
        "n_passed": len(passed),
        "n_skipped": len(skipped),
        "passed": passed,
        "skipped": skipped,
    }


# ---------------------------------------------------------------------------
# Random corpus and edge consistency


def _draw(rng: random.Random, letters, depth: int, shared: dict) -> rx.Regex:
    """A random regex whose leaves are the objects in `letters`.

    Equal subtrees are built once: `shared` maps a node's class and the
    ids of its children, which it keeps alive, to the node.
    """
    if depth <= 0:
        roll = rng.random()
        if roll < 0.08:
            return rx.EMPTY
        return rng.choice(letters)
    roll = rng.random()
    if roll >= 0.85:
        return rng.choice(letters)
    if roll >= 0.62:
        kind, right = rx.Star, None
        left = _draw(rng, letters, depth - 1, shared)
    else:
        left = _draw(rng, letters, depth - 1, shared)
        right = _draw(rng, letters, depth - 1, shared)
        kind = rx.Union if roll < 0.30 else rx.Cat
    key = (kind, id(left), id(right))
    node = shared.get(key)
    if node is None:
        node = shared[key] = kind(left) if right is None else kind(left, right)
    return node


def random_regex(rng: random.Random, alphabet, depth: int) -> rx.Regex:
    return _draw(rng, [rx.Sym(a) for a in alphabet], depth, {})


def random_corpus(count: int = 1000,
                  seed: int = 20240811) -> list[LanguageHandle]:
    """`count` distinct random regexes of depth 4 over {a, b}."""
    rng = random.Random(seed)
    letters = [rx.Sym("a"), rx.Sym("b")]  # one leaf object per letter
    shared = {}
    seen = set()  # equal trees are one object, so ids tell trees apart
    out = []
    while len(out) < count:
        r = _draw(rng, letters, 4, shared)
        if id(r) not in seen:
            seen.add(id(r))
            out.append(LanguageHandle(("a", "b"), r, check=False))
    return out


CORPUS_CONFIG = replace(DEFAULT_CONFIG, ord_search_budget=8000)


def edge_consistency_check(corpus) -> dict:
    """Check every Fig. 1 family edge X ⊂ Y against the corpus (X=yes
    forces Y=yes): `classify_all` under `CORPUS_CONFIG` raises
    `ConsistencyError` on each language that breaks one, and each is
    reported as a violation.  Also report how each edge's properness is
    covered by the registry."""
    violations = []
    for handle in corpus:
        try:
            cls.classify_all(handle, CORPUS_CONFIG)
        except cls.ConsistencyError as exc:
            violations.append({"language": rx.render(handle.regex),
                               "reason": str(exc)})
    claims_by_witness = {entry.id: {(c.family, c.expected)
                                    for c in entry.claims}
                         for entry in registry()}
    properness = []
    for e in FIG1.edges:
        status = "provenance-only"
        if e.provenance.startswith("witness:"):
            wid = e.provenance.split(":", 1)[1]
            have = claims_by_witness.get(wid, set())
            if (e.dst, "yes") in have and (e.src, "no") in have:
                status = f"witnessed by {wid}"
            else:
                status = f"witness {wid} lacks the required claims"
        properness.append({"edge": f"{e.src} -> {e.dst}", "status": status})
    return {
        "corpus_size": len(corpus),
        "n_violations": len(violations),
        "properness": properness,
        "violations": violations,
    }
