"""The benchmark's three workloads, driven through subreg's public API only.

Each workload builds its inputs from a seed (`setup`), yields them forever
(`items`, one pass after another), runs one operation per input (`op`, the
only timed call) and checks that operation's output (`check`, untimed;
`finish` runs the checks deferred to the end of the run).  `check` and
`finish` return one line per problem found.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random

from subreg import automata, classify, cli, grammar, hierarchy, regex as rx
from subreg.language import LanguageHandle

AB = ("a", "b")
FAMILIES = list(classify.Family)
LETTER = {classify.Outcome.YES: "y", classify.Outcome.NO: "n",
          classify.Outcome.UNKNOWN: "u"}
REFERENCE = os.path.join(os.path.dirname(__file__), "reference",
                         "corpus_verdicts.json")


def regex_key(r) -> str:
    """Prefix spelling of a regex tree, independent of subreg's printer."""
    out, stack = [], [r]
    while stack:
        node = stack.pop()
        if isinstance(node, rx.Sym):
            out.append(node.letter)
        elif isinstance(node, rx.Empty):
            out.append("0")
        elif isinstance(node, rx.Star):
            out.append("*")
            stack.append(node.inner)
        else:
            out.append("." if isinstance(node, rx.Cat) else "|")
            stack.extend((node.right, node.left))
    return "".join(out)


def regex_pool(max_nodes, alphabet=AB) -> list:
    """Every regex tree over {0} and the alphabet with at most max_nodes nodes."""
    by_size = {1: [rx.EMPTY] + [rx.Sym(a) for a in alphabet]}
    for n in range(2, max_nodes + 1):
        out = [rx.Star(r) for r in by_size[n - 1]]
        for i in range(1, n - 1):
            for left in by_size[i]:
                for right in by_size[n - 1 - i]:
                    out.append(rx.Cat(left, right))
                    out.append(rx.Union(left, right))
        by_size[n] = out
    return [r for size in sorted(by_size) for r in by_size[size]]


def length_lex(words) -> list[str]:
    return sorted(words, key=lambda w: (len(w), w))


class Workload:
    name = ""
    default_seed = 0
    held_out_seed = 0
    # count throughput over whole passes only (see cli_session)
    whole_passes = False

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.verdicts = 0
        self.unknowns = 0

    def setup(self) -> None:
        raise NotImplementedError

    def items(self):
        """Yield (pass number, input) forever."""
        for k in itertools.count():
            for item in self.pass_items(k):
                yield k, item

    def pass_items(self, k: int) -> list:
        raise NotImplementedError

    def fresh(self, item):
        """An input equal to `item` that no op has touched yet."""
        return item

    def op(self, item):
        raise NotImplementedError

    def check(self, index: int, item, output) -> list[str]:
        raise NotImplementedError

    def finish(self) -> dict[int, list[str]]:
        return {}

    def describe(self, item) -> str:
        raise NotImplementedError

    def input_digest(self, n: int = 2000) -> str:
        h = hashlib.sha256()
        for _, item in itertools.islice(self.items(), n):
            h.update(self.describe(item).encode())
            h.update(b"\n")
        return h.hexdigest()[:16]

    def unknown_share(self):
        return self.unknowns / self.verdicts if self.verdicts else None

    def cleanup(self) -> None:
        pass


# ---------------------------------------------------------------------------


class Corpus(Workload):
    """classify_all under CORPUS_CONFIG on fresh corpus handles."""

    name = "corpus"
    default_seed = 20240811
    held_out_seed = 20250811
    population_seed = 20240811
    population_size = 5000

    def setup(self):
        self.population = hierarchy.random_corpus(self.population_size,
                                                  seed=self.population_seed)
        self.reference = load_reference()
        self.order = balanced_order(self.reference, random.Random(self.seed))
        self.pending = []  # (op index, handle, family, certificate)

    def pass_items(self, k):
        for i in self.order:
            # the first pass built this handle's DFA; later ones start afresh
            yield self.fresh((i, self.population[i])) if k else (i, self.population[i])

    def describe(self, item):
        return regex_key(item[1].regex)

    def fresh(self, item):
        i, h = item
        return i, LanguageHandle(h.alphabet, h.regex, check=False)

    def op(self, item):
        return classify.classify_all(item[1], hierarchy.CORPUS_CONFIG)

    def check(self, index, item, verdicts):
        i, h = item
        got = "".join(LETTER[verdicts[f].outcome] for f in FAMILIES)
        self.verdicts += len(got)
        self.unknowns += got.count("u")
        for f in FAMILIES:
            v = verdicts[f]
            if v.outcome is classify.Outcome.YES and v.certificate is not None:
                self.pending.append((index, h, f, v.certificate))
        key, want, _ = self.reference[i]
        if key != regex_key(h.regex):
            return [f"corpus language {i} is not the one in the reference"]
        return [f"{f.value}: reference {w}, got {g} for {key}"
                for f, w, g in zip(FAMILIES, want, got) if w != "u" and w != g]

    def finish(self):
        problems: dict[int, list[str]] = {}
        for index, h, family, cert in self.pending:
            try:
                ok = classify.verify_certificate(h, family, cert,
                                                 hierarchy.CORPUS_CONFIG)
            except Exception as exc:  # a certificate that crashes the checker
                ok = False
                cert = f"{cert!r}: {exc!r}"
            if not ok:
                problems.setdefault(index, []).append(
                    f"{family.value} certificate rejected: {cert}")
        self.pending = []
        return problems


def balanced_order(reference, rng) -> list[int]:
    """A seeded order of the population in which every prefix holds each
    recorded cost bin in its population share.

    Op cost is heavy-tailed (an ORD search that exhausts its budget costs
    ~50x the median op), the median sits where the distribution is thin,
    and a run's p99 rests on a handful of ops, so under a plain shuffle a
    run's throughput and percentiles would follow how many costly
    languages its prefix happened to draw.  Within a bin the order is
    shuffled, and its members are spread evenly over the run from a
    random phase.
    """
    strata: dict[int, list[int]] = {}
    for i, (_, _, cost_bin) in enumerate(reference):
        strata.setdefault(cost_bin, []).append(i)
    positions = []
    for members in strata.values():
        rng.shuffle(members)
        phase = rng.random()
        positions += [((rank + phase) / len(members), i)
                      for rank, i in enumerate(members)]
    positions.sort()
    return [i for _, i in positions]


def load_reference(path=REFERENCE) -> list[tuple[str, str, int]]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if data["families"] != [f.value for f in FAMILIES]:
        raise ValueError("reference lists other families than subreg")
    return [tuple(entry) for entry in data["verdicts"]]


# ---------------------------------------------------------------------------


class RegexDfa(Workload):
    """render -> parse -> handle (cross-checked) -> DFA -> union normal form
    -> DFA of the union -> equivalence, over the criterion-5 regex set."""

    name = "regex_dfa"
    default_seed = 20240813
    held_out_seed = 20250813
    pool_nodes = 8
    draws = 10 ** 4
    draw_seed = 20240813
    draw_depth = 5

    def setup(self):
        # The set is fixed and the seed orders it: a 30 s run reaches most
        # of it, so which few union-normal-form blow-ups among the draws a
        # run meets (they set its peak memory) does not depend on the seed.
        rng = random.Random(self.draw_seed)
        self.regexes = regex_pool(self.pool_nodes) + [
            hierarchy.random_regex(rng, AB, self.draw_depth)
            for _ in range(self.draws)]
        self.first_pass = self._build_pass(0)

    def _build_pass(self, k):
        order = list(self.regexes)
        random.Random(f"{self.seed}:{k}").shuffle(order)
        return order

    def pass_items(self, k):
        return self.first_pass if k == 0 else self._build_pass(k)

    def describe(self, r):
        return regex_key(r)

    def op(self, r):
        parsed = rx.parse_regex(rx.render(r), AB)
        dfa = LanguageHandle(AB, parsed).dfa
        components = rx.union_normal_form(parsed)
        union = rx.EMPTY
        for c in components:
            union = rx.union(union, c)
        same = automata.equivalent(automata.dfa_of(union, AB), dfa)
        return dfa, components, same

    def check(self, index, r, output):
        dfa, components, same = output
        problems = []
        if not same:
            problems.append("union normal form is not equivalent to the source")
        if not all(rx.is_syntactically_union_free(c) for c in components):
            problems.append("a union normal form component contains a union")
        if automata.dfa_of(r, AB) != dfa:
            problems.append("parse(render(r)) has another minimal DFA than r")
        return [f"{p}: {regex_key(r)}" for p in problems]


# ---------------------------------------------------------------------------

# Fixtures whose selections are all definite, so def2sydef applies (exit 0);
# on the others it is a domain-precondition violation (exit 3).
DEFINITE_FIXTURES = {"nil_o_star", "comb_o_pre_star"}
TRANSFORMS = ("rcom", "lcom", "elimlambda", "def2sydef")
ORACLE_LENGTH = 8


class CliSession(Workload):
    """In-process `subreg` commands, a seeded deck of every command kind."""

    name = "cli_session"
    default_seed = 20240812
    held_out_seed = 20250812
    # One deck holds every kind of command.  Registry classifications of
    # 'abc|bca|cab' take about 300x the median command, so throughput is
    # counted over whole decks: a partial deck would make it depend on
    # where that command fell.
    whole_passes = True
    enum_per_fixture = 2
    member_per_fixture = 4
    nf2com_per_deck = 40
    queries_per_graph = 15
    comet_pool_nodes = 6

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        self.fixtures = grammar.fixtures()
        self.paths = {}
        self.words = {}
        self.n_components = {}
        for name, g in self.fixtures.items():
            path = os.path.join(self.workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(g.to_json(), fh)
            self.paths[name] = path
            self.words[name] = grammar.fixture_words(name, ORACLE_LENGTH)
            self.n_components[name] = len(g.components)
        self.comet_pool = regex_pool(self.comet_pool_nodes)
        self.registry = [e for e in hierarchy.registry() if e.kind == "language"]
        self.relations = {g: graph_relations(graph)
                          for g, graph in hierarchy.GRAPHS.items()}
        self.first_deck = self._build_deck(0)

    def pass_items(self, k):
        return self.first_deck if k == 0 else self._build_deck(k)

    def _build_deck(self, k):
        rng = random.Random(f"{self.seed}:{k}")
        deck = []
        for name, path in self.paths.items():
            alphabet = self.fixtures[name].alphabet
            members = length_lex(w for w in self.words[name]
                                 if len(w) < ORACLE_LENGTH)
            for _ in range(self.enum_per_fixture):
                n = rng.randint(4, ORACLE_LENGTH)
                deck.append(("enum", name, n, ["grammar", "enum", path, "-n",
                                               str(n), "--format", "json"]))
            for j in range(self.member_per_fixture):
                if j % 2 == 0 and members:
                    word = rng.choice(members)
                else:
                    word = "".join(rng.choice(alphabet) for _ in
                                   range(rng.randint(0, ORACLE_LENGTH - 1)))
                deck.append(("member", name, word,
                             ["grammar", "member", path, word or "ε",
                              "--format", "json"]))
            deck.append(("gclassify", name, None,
                         ["grammar", "classify", path, "--format", "json"]))
            for kind in TRANSFORMS:
                deck.append(("transform", name, kind,
                             ["grammar", "transform", path, kind]))
        for _ in range(self.nf2com_per_deck):
            e, g, h = (rng.choice(self.comet_pool) for _ in range(3))
            side = rng.choice(("left", "right"))
            trivial = rx.language_class(g) in (rx.LanguageClass.EMPTY,
                                               rx.LanguageClass.LAMBDA)
            deck.append(("nf2com", None, trivial,
                         ["nf2com", rx.render(e), rx.render(g), rx.render(h),
                          "--alphabet", "ab", "--side", side,
                          "--format", "json"]))
        for entry in self.registry:
            deck.append(("classify", entry.id, entry,
                         ["classify", entry.regex, "--alphabet",
                          entry.alphabet, "--format", "json"]))
        for graph_name, graph in hierarchy.GRAPHS.items():
            for _ in range(self.queries_per_graph):
                x, y = rng.choice(graph.nodes), rng.choice(graph.nodes)
                deck.append(("query", graph_name, (x, y),
                             ["hierarchy", "query", x, y, "--graph",
                              graph_name, "--format", "json"]))
        rng.shuffle(deck)
        return deck

    def describe(self, cmd):
        return " ".join(os.path.basename(a) for a in cmd[3])

    def op(self, cmd):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(cmd[3])
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, index, cmd, output):
        kind, name, arg, argv = cmd
        code, out, err = output
        want_code = 0
        if kind == "transform" and arg == "def2sydef" \
                and name not in DEFINITE_FIXTURES:
            want_code = 3
        if kind == "nf2com" and arg:
            want_code = 3
        if code != want_code:
            return [f"exit {code}, expected {want_code}: {err.strip()[:200]}"]
        if want_code:
            return []
        try:
            data = json.loads(out)
        except ValueError:
            return ["output is not JSON"]
        return [f"{kind} {name}: {p}" for p in
                getattr(self, "_check_" + kind)(name, arg, data)]

    def _check_enum(self, name, n, data):
        want = length_lex(w for w in self.words[name] if len(w) <= n)
        if data["words"] != want:
            yield f"enum -n {n} differs from the closed form"

    def _check_member(self, name, word, data):
        if data["member"] != (word in self.words[name]):
            yield f"member {word!r} disagrees with the closed form"

    def _check_gclassify(self, name, _, data):
        if len(data) != self.n_components[name]:
            yield "one report per component expected"
        for comp in data:
            yield from self._count_verdicts(comp["verdicts"])

    def _check_transform(self, name, kind, data):
        try:
            g = grammar.grammar_from_json(data)
            got = set(grammar.enumerate_language(g, 6))
        except (grammar.GrammarError, rx.RegexError) as exc:
            yield f"{kind} output does not load: {exc}"
            return
        if got != {w for w in self.words[name] if len(w) <= 6}:
            yield f"{kind} changed the generated language"

    def _check_nf2com(self, name, trivial, data):
        if data["verified"] is not True:
            yield "normal form not verified"

    def _check_classify(self, name, entry, data):
        outcomes = {v["family"]: v["outcome"] for v in data["verdicts"]}
        yield from self._count_verdicts(data["verdicts"])
        for claim in entry.claims:
            if not claim.verifiable or claim.family not in outcomes:
                continue
            got = outcomes[claim.family]
            supplied = claim.certificate is not None and got == "unknown"
            if got != claim.expected and not supplied:
                yield f"{claim.family} = {got}, registry says {claim.expected}"

    def _check_query(self, graph, pair, data):
        if data["relation"] != self.relations[graph](*pair):
            yield f"{pair} relation {data['relation']}"

    def _count_verdicts(self, verdicts):
        if len(verdicts) != len(FAMILIES):
            yield "one verdict per family expected"
        self.verdicts += len(verdicts)
        self.unknowns += sum(v["outcome"] == "unknown" for v in verdicts)

    def cleanup(self):
        for path in getattr(self, "paths", {}).values():
            if os.path.exists(path):
                os.remove(path)
        if os.path.isdir(self.workdir) and not os.listdir(self.workdir):
            os.rmdir(self.workdir)


def graph_relations(graph):
    """Relation oracle from a graph's edge and equality lists."""
    canon = {n: n for n in graph.nodes}
    for group in graph.equalities:
        rep = min(group)
        for n in group:
            canon[n] = rep
    succ: dict[str, set[str]] = {}
    for e in graph.edges:
        succ.setdefault(canon[e.src], set()).add(canon[e.dst])

    def below(x, y):
        seen, todo = set(), [x]
        while todo:
            for z in succ.get(todo.pop(), ()):
                if z == y:
                    return True
                if z not in seen:
                    seen.add(z)
                    todo.append(z)
        return False

    def relation(x, y):
        x, y = canon[x], canon[y]
        if x == y:
            return "equal"
        if below(x, y):
            return "proper-subset"
        if below(y, x):
            return "proper-superset"
        return "incomparable"

    return relation


WORKLOADS = {w.name: w for w in (Corpus, RegexDfa, CliSession)}
