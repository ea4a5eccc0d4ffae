"""Membership deciders for the subregular language families.

Each decider evaluates a language relative to its declared alphabet and
returns a three-valued verdict.  Every decider reads L through one
`_Analysis`, which builds each fact that deciders share once per call.
SYDEF and 2COM are decided exactly by a search over the closed state
sets of the minimal DFA (`_comet_set`).  UF, and ORD beyond its bounded
split search, have no complete decision procedure here and may answer
Unknown, as may any decider whose search exceeds a resource cap.  Yes
answers carry a certificate that re-verifies against the defining
equation.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace

from . import automata, regex as rx
from .automata import (
    CardinalityClass,
    Dfa,
    ResourceCapExceeded,
    cardinality_class,
    compile_regex,
    complement,
    determinize,
    dfa_to_regex,
    enumerate_words,
    equivalent,
    minimize,
    residual,
    subset,
    to_nfa,
    transition_monoid,
)
from .language import LanguageHandle


class Family(enum.Enum):
    MON = "MON"
    FIN = "FIN"
    NIL = "NIL"
    COMB = "COMB"
    DEF = "DEF"
    SYDEF = "SYDEF"
    SUF = "SUF"
    ORD = "ORD"
    COMM = "COMM"
    CIRC = "CIRC"
    NC = "NC"
    SF = "SF"
    PS = "PS"
    UF = "UF"
    STAR = "STAR"
    LCOM = "LCOM"
    RCOM = "RCOM"
    TWOCOM = "2COM"

    def __str__(self) -> str:
        return self.value


def family_from_name(name: str) -> Family:
    for f in Family:
        if f.value == name or f.name == name:
            return f
    raise ValueError(f"unknown family {name!r}")


class Outcome(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass
class Verdict:
    """A family verdict.  Certificates that depend only on the minimal
    DFA (NC, SF, PS, ORD, DEF, COMB) are shared between verdicts, so a
    certificate is read-only: copy it before changing it."""

    family: Family
    outcome: Outcome
    certificate: dict | None = None
    reason: str | None = None

    def to_json(self) -> dict:
        out = {"family": self.family.value, "outcome": self.outcome.value}
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.reason is not None:
            out["reason"] = self.reason
        return out


@dataclass
class ClassifierConfig:
    # branching decisions (a move's choice of copy, or the bit of a pair
    # component) over the whole order search on one language
    ord_search_budget: int = 60000
    monoid_cap: int = 10 ** 6        # most transition-monoid elements


DEFAULT_CONFIG = ClassifierConfig()
ORD_STATE_CAP = 10          # no order search on larger minimal DFAs
ORD_SPLIT_EXTRA = 2         # most extra states in a split automaton
# most closed state sets, images of one set, pairs of each cover walk and
# states of K's subset construction in the SYDEF and 2COM search
COMET_STATE_CAP = 4096
DEF_WORD_CAP = 1 << 16      # most words a DEF certificate lists
_SUBSET_CAP = 10 ** 6       # most sets LCOM visits (RCOM visits singletons)


class CertificateError(Exception):
    pass


class ConsistencyError(Exception):
    """A family implication required by the hierarchy was violated."""


def _yes(family, certificate=None):
    return Verdict(family, Outcome.YES, certificate)


def _no(family, reason=None):
    return Verdict(family, Outcome.NO, None, reason)


def _unknown(family, reason):
    return Verdict(family, Outcome.UNKNOWN, None, reason)


def _holds(family, ok: bool) -> Verdict:
    return _yes(family) if ok else _no(family)


class _fact:
    """A fact of `_Analysis`, built on first read and kept.  A build that
    hits a cap keeps that cap: every later read raises it again, without
    building again, so each reader answers Unknown alike."""

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __get__(self, analysis, owner=None):
        if analysis is None:
            return self
        facts = analysis.facts
        if self.build not in facts:
            try:
                facts[self.build] = self.build(analysis), None
            except ResourceCapExceeded as exc:
                facts[self.build] = None, str(exc)
        value, cap = facts[self.build]
        if cap is not None:
            raise ResourceCapExceeded(cap)
        return value


class _Analysis:
    """L, its minimal DFA and the config for one `classify` or
    `classify_all` call, with the verdicts decided so far and the facts
    that several deciders share, each built on first use (`_fact`)."""

    def __init__(self, l: LanguageHandle, config: ClassifierConfig):
        self.l = l
        self.dfa = l.dfa
        self.config = config
        self.verdicts: dict[Family, Verdict] = {}
        self.facts: dict = {}  # build -> (value, cap hit)

    def decide(self, family: Family) -> Verdict:
        """`family`'s verdict, decided once; a cap hit is Unknown."""
        if family not in self.verdicts:
            try:
                self.verdicts[family] = _DECIDERS[family](self)
            except ResourceCapExceeded as exc:
                self.verdicts[family] = _unknown(family, str(exc))
        return self.verdicts[family]

    def read(self, family: Family) -> Verdict:
        """The verdict that one decider reads of another.  An Unknown one
        raises the cap that its decider hit, as deciding afresh would."""
        verdict = self.decide(family)
        if verdict.outcome is Outcome.UNKNOWN:
            raise ResourceCapExceeded(verdict.reason)
        return verdict

    @_fact
    def monoid(self) -> list:
        """The transition monoid (NC, PS, and ORD through `aperiodicity`)."""
        return transition_monoid(self.dfa, self.config.monoid_cap)

    @_fact
    def aperiodicity(self) -> int | None:
        """`aperiodicity_bound` of the monoid (NC and ORD)."""
        return aperiodicity_bound(self.monoid)

    @_fact
    def cardinality(self) -> CardinalityClass:
        """How many words L has (FIN, NIL, SYDEF and 2COM)."""
        return cardinality_class(self.dfa)

    @_fact
    def columns(self) -> list:
        """The letter columns of the DFA: column i maps each state to its
        move on letter i (RCOM, LCOM, SYDEF and 2COM)."""
        return list(zip(*self.dfa.transitions))

    @_fact
    def outside(self) -> list[int]:
        """`_outside` of the DFA (SUF, STAR and RCOM)."""
        return _outside(self.dfa)

    @_fact
    def comet_sets(self) -> list[int]:
        """The closed state sets for `_comet_set` (SYDEF and 2COM) that hold
        no state with an empty residual, which no P covering a non-empty L
        holds (for an empty L the empty set comes first and covers)."""
        useful = sum(1 << q for q in automata.distance_to_final(self.dfa))
        closed = _closed_state_sets(self.dfa, self.columns, COMET_STATE_CAP)
        return [p for p in closed if not p & ~useful]


# ---------------------------------------------------------------------------
# Individual deciders; each takes the `_Analysis` of L.  Each state of
# the minimal DFA is reachable, and is a residual of L (Myhill-Nerode), so
# MON, SUF, COMM, CIRC and STAR are checks over its states.


def _classify_mon(an):
    # L = V* exactly when every residual holds the empty word
    return _holds(Family.MON, len(an.dfa.finals) == an.dfa.n_states)


def _classify_fin(an):
    return _holds(Family.FIN, an.cardinality is not CardinalityClass.INFINITE)


def _classify_nil(an):
    infinite = CardinalityClass.INFINITE
    return _holds(Family.NIL, an.cardinality is not infinite or
                  cardinality_class(complement(an.dfa)) is not infinite)


def _classify_comb(an):
    # V* X with X the letters in L is the only candidate
    cert = {"X": [a for a in an.l.alphabet if an.l.accepts(a)]}
    if verify_certificate(an.l, Family.COMB, cert, an.config):
        return _yes(Family.COMB, cert)
    return _no(Family.COMB)


def _def_window(dfa: Dfa):
    """The least k such that every word of length k takes all states to
    one state, or None if there is none; for a minimal DFA, L is
    k-definite exactly from that k on (Perles, Rabin & Shamir 1963).
    Round j merges the states that every word of length j takes to one
    state: p and q merge when each letter takes them into one class of the
    round before, as in `minimize`.  A round that merges nothing is a
    fixpoint."""
    columns = list(zip(*dfa.transitions))
    label = list(range(dfa.n_states))
    count, k = dfa.n_states, 0
    while count > 1:
        sigs = {}
        label = [sigs.setdefault(sig, len(sigs)) for sig in
                 zip(*[list(map(label.__getitem__, c)) for c in columns])]
        if len(sigs) == count:
            return None
        count, k = len(sigs), k + 1
    return k


def _classify_def(an):
    dfa = an.dfa
    k = _def_window(dfa)
    if k is None:
        return _no(Family.DEF)
    cert = {"window": k}
    if len(dfa.alphabet) ** k <= DEF_WORD_CAP:
        # each word w of length k takes all states to start.w, so Q.w is
        # inside F exactly when w is in L: B is L's words of length k
        words = enumerate_words(dfa, k)
        cert["A"] = [w for w in words if len(w) < k]
        cert["B"] = [w for w in words if len(w) == k]
    return _yes(Family.DEF, cert)


def _classify_suf(an):
    # L is suffix-closed when every residual lies inside L = L_start
    start = an.dfa.start
    return _holds(Family.SUF, not any(m >> start & 1 for m in an.outside))


def _tick(budget) -> None:
    """Spend one node of the shared search budget (a single-element list);
    an overdrawn budget is a cap like any other: ORD answers Unknown."""
    budget[0] -= 1
    if budget[0] < 0:
        raise ResourceCapExceeded("order search budget exceeded")


class _PairParity:
    """Parity union-find, with rollback, over the unordered state pairs of
    an n-state automaton.

    The pair {p, q}, p < q, is node p*n + q, and its bit says whether p
    precedes q.  In a monotone order a letter that sends p and q to
    distinct states u and v orients {u, v} as it does {p, q}, in both
    directions, so it ties the two bits with a known parity; a component
    whose parities disagree refutes every order.  A constant 0 node, the
    anchor, fixes orientations; `fix` assumes that it comes before any tie
    and that each pair is fixed once, so the pair is still its own root.
    Unions hang the smaller tree under the larger (the second root on a
    tie) and log the hung root on `trail`; there is no path compression,
    so `undo` restores any earlier state exactly.
    """

    def __init__(self, n: int):
        self.n = n
        self.anchor = n * n
        self.parent = list(range(n * n + 1))
        self.parity = [0] * (n * n + 1)
        self.size = [1] * (n * n + 1)
        self.trail = []

    def find(self, x: int) -> tuple[int, int]:
        """The root of x and the parity of x relative to it."""
        par = 0
        while self.parent[x] != x:
            par ^= self.parity[x]
            x = self.parent[x]
        return x, par

    def fix(self, p: int, q: int) -> None:
        """p precedes q, p < q: the pair, still its own root, hangs under
        the anchor with parity 1."""
        x = p * self.n + q
        self.parent[x], self.parity[x] = self.anchor, 1
        self.size[self.anchor] += 1
        self.trail.append(x)

    def tie_moves(self, rows, s: int, a: int) -> bool:
        """Tie {s, s2} to {t, t2} for every state s2, in order, whose move
        t2 on letter a is fixed (not -1) and differs from s's move t;
        False at the first contradiction.

        The union-find is inlined into one loop, since the split search
        spends most of its time here.
        """
        n = self.n
        parent, parity, size, trail = (self.parent, self.parity, self.size,
                                       self.trail)
        t = rows[s][a]
        for s2, row in enumerate(rows):
            t2 = row[a]
            if t2 == -1 or t2 == t:  # also s2 == s
                continue
            if s < s2:
                x, par = s * n + s2, 0
            else:
                x, par = s2 * n + s, 1
            if t < t2:
                y = t * n + t2
            else:
                y, par = t2 * n + t, par ^ 1
            while parent[x] != x:
                par ^= parity[x]
                x = parent[x]
            while parent[y] != y:
                par ^= parity[y]
                y = parent[y]
            # par is now the parity x's root must have relative to y's
            if x == y:
                if par:
                    return False
                continue
            if size[x] > size[y]:
                x, y = y, x
            parent[x] = y
            parity[x] = par
            size[y] += size[x]
            trail.append(x)
        return True

    def undo(self, mark: int) -> None:
        """Undo every union made since the trail had length `mark`."""
        while len(self.trail) > mark:
            root = self.trail.pop()
            self.size[self.parent[root]] -= self.size[root]
            self.parent[root] = root
            self.parity[root] = 0


def _order_from(pairs: _PairParity, budget):
    """A total order that agrees with every parity in `pairs`, smallest
    state first, or None.

    Depth-first search over one bit per component; each bit orients the
    whole component, and transitivity (p < q and q < r force p < r)
    orients further pairs, whose components follow in turn.  The search
    is complete: it prunes only on contradictions.
    """
    n = pairs.n
    where = {}
    members = {}
    for p in range(n):
        for q in range(p + 1, n):
            root, par = pairs.find(p * n + q)
            where[p, q] = root, par
            members.setdefault(root, []).append((p, q, par))
    roots = sorted(members, key=lambda r: -len(members[r]))

    def settle(value, succ, root, bit):
        # succ[s] is the bitmask of the states known to follow s
        queue = [(root, bit)]
        while queue:
            r, b = queue.pop()
            if r in value:
                if value[r] != b:
                    return False
                continue
            value[r] = b
            for p, q, par in members[r]:
                if not b ^ par:
                    p, q = q, p  # now p precedes q
                if succ[q] >> p & 1:
                    return False
                if succ[p] >> q & 1:
                    continue
                after = succ[q] | 1 << q
                for s in range(n):
                    if s != p and not succ[s] >> p & 1:
                        continue
                    new = after & ~succ[s]
                    succ[s] |= new
                    while new:
                        t = (new & -new).bit_length() - 1
                        new &= new - 1
                        r2, par2 = where[min(s, t), max(s, t)]
                        queue.append((r2, int(s < t) ^ par2))
        return True

    value, succ = {}, [0] * n
    anchor_root, anchor_par = pairs.find(pairs.anchor)
    if anchor_root in members and not settle(value, succ, anchor_root,
                                             anchor_par):
        return None
    stack = [(value, succ)]
    while stack:
        value, succ = stack.pop()
        root = next((r for r in roots if r not in value), None)
        if root is None:
            return sorted(range(n), key=lambda s: -succ[s].bit_count())
        for bit in (1, 0):
            value2, succ2 = dict(value), list(succ)
            if settle(value2, succ2, root, bit):
                _tick(budget)
                stack.append((value2, succ2))
    return None


def _split_order(dfa: Dfa, extra_cap: int, budget):
    """An ordered automaton for L with at most `extra_cap` states more
    than its minimal DFA: (order, rows, owner), or None.

    Every complete DFA for L whose states are reachable sends each state
    to its residual, so it splits the minimal DFA's states into copies;
    conversely any choice of copy for each move accepts L, because copies
    share their residual.  The splits are tried by number of extra states,
    starting with the minimal DFA itself, then by which residuals get the
    extra copies.

    A split is skipped, and spends no budget, when some residual d has
    more copies than the start and the moves into d can enter,
    mult[d] > [d = start] + Σ_c mult[c]·|{a : δ(c, a) = d}|: a copy of d
    is then unreachable, and without it the automaton is ordered on a
    split with one extra state less, which was searched to the end before.

    `_Split.order` searches each split once, with two single-copy states
    fixed in order: its orders come in mirror pairs that swap them.

    The split found has no unreachable copy: the copies the start copy
    reaches are closed under moves, keep a copy of each residual and stay
    ordered, so a split with fewer copies is ordered and the search would
    have stopped earlier.  A budget that runs out raises instead.
    """
    m = dfa.n_states
    into = [[row.count(d) for row in dfa.transitions] for d in range(m)]
    for extra in range(extra_cap + 1):
        for dup in itertools.combinations_with_replacement(range(m), extra):
            mult = [1 + dup.count(c) for c in range(m)]
            if any(mult[d] > (d == dfa.start)
                   + sum(k * i for k, i in zip(mult, into[d]))
                   for d in set(dup)):
                continue
            split = _Split(dfa, mult)
            order = split.order(budget)
            if order is not None:
                return order, split.rows, split.owner
    return None


class _Split:
    """The automata with mult[c] copies of each residual c of a minimal
    DFA, searched for one with a monotone order.

    Numbering the copies of a residual along a monotone order makes each
    letter's choice of copy nondecreasing along them, so copies are fixed
    to precede by index and their choices only grow, which loses no
    solution.  Moves into a residual with one copy are forced; the search
    branches on the others and ties each state pair as soon as both of
    its moves are fixed, pruning on a contradiction.  Placing a move makes
    all of its ties in one `_PairParity.tie_moves` loop, in state order;
    `tests/golden/ord_search.jsonl` pins the search tree this gives
    through the budget it leaves and the first order it finds.  A split
    that `_split_order` skips is never built, so it spends no budget.

    Reversing a monotone order keeps every letter monotone, and numbering
    each residual's copies backwards then restores the copy order, while
    a residual with one copy keeps its number.  So a split, the minimal
    DFA included, has an order exactly when it has one with p before q,
    its first two single-copy states (`mirror`), and `order` searches
    with that pair fixed.
    """

    def __init__(self, dfa: Dfa, mult):
        self.dfa = dfa
        self.mult = mult
        self.first = list(itertools.accumulate([0] + mult[:-1]))
        self.owner = [c for c, k in enumerate(mult) for _ in range(k)]
        single = [self.first[c] for c, k in enumerate(mult) if k == 1]
        self.mirror = single[:2] if len(single) >= 2 else None

    def _place(self, s, a, t) -> bool:
        self.rows[s][a] = t
        return self.pairs.tie_moves(self.rows, s, a)

    def order(self, budget):
        """The first monotone order over all the copies that the search
        meets, with the `mirror` pair in order when there is one, or None."""
        self.rows = [[-1] * len(self.dfa.alphabet) for _ in self.owner]
        self.pairs = _PairParity(len(self.owner))
        for c, k in enumerate(self.mult):
            for i, j in itertools.combinations(range(self.first[c],
                                                     self.first[c] + k), 2):
                self.pairs.fix(i, j)
        if self.mirror:
            self.pairs.fix(*self.mirror)
        branch = []
        for s, c in enumerate(self.owner):
            for a, d in enumerate(self.dfa.transitions[c]):
                if self.mult[d] > 1:
                    branch.append((s, a))
                elif not self._place(s, a, self.first[d]):
                    return None
        return self._descend(branch, budget)

    def _descend(self, branch, budget):
        """Depth first over `branch`, one level per entry (s, a) trying the
        targets of its move in turn.  The levels are on a stack, since a
        large alphabet makes the branch deeper than the recursion limit."""
        if not branch:
            return _order_from(self.pairs, budget)
        trail, undo = self.pairs.trail, self.pairs.undo
        stack = []  # the levels above this one: s, a, targets left, mark
        while True:
            s, a = branch[len(stack)]
            d = self.dfa.transitions[self.owner[s]][a]
            low = (self.rows[s - 1][a] if s > self.first[self.owner[s]]
                   else self.first[d])
            targets = iter(range(low, self.first[d] + self.mult[d]))
            mark = len(trail)
            while True:  # place this level's next target, or back off
                for t in targets:
                    if self._place(s, a, t):
                        _tick(budget)
                        if len(stack) + 1 < len(branch):
                            break
                        order = _order_from(self.pairs, budget)
                        if order is not None:
                            return order
                    undo(mark)
                else:
                    self.rows[s][a] = -1
                    if not stack:
                        return None
                    s, a, targets, mark = stack.pop()
                    undo(mark)
                    continue
                break
            stack.append((s, a, targets, mark))


def _classify_ord(an):
    dfa = an.dfa
    # an ordered automaton has an aperiodic transition monoid (ORD within
    # NC), so a counting language is out at any size
    if an.aperiodicity is None:
        return _no(Family.ORD, "transition monoid is not aperiodic")
    if dfa.n_states > ORD_STATE_CAP:
        return _unknown(Family.ORD, f"state cap {ORD_STATE_CAP} exceeded")
    found = _split_order(dfa, ORD_SPLIT_EXTRA, [an.config.ord_search_budget])
    if found is None:
        # no bound on the extra states an ordered automaton may need is
        # known, so an empty bounded search decides nothing
        return _unknown(Family.ORD, "no ordered automaton with at most "
                        f"{ORD_SPLIT_EXTRA} extra states")
    order, rows, owner = found
    if len(owner) == dfa.n_states:  # the minimal DFA is ordered
        return _yes(Family.ORD, {"order": order})
    split = Dfa(dfa.alphabet, tuple(map(tuple, rows)), owner.index(dfa.start),
                frozenset(s for s, c in enumerate(owner) if c in dfa.finals))
    return _yes(Family.ORD, {"order": order,
                             "automaton": automata.dfa_to_text(split)})


def _classify_comm(an):
    # u a b v and u b a v agree on L exactly when ab and ba take every
    # state to the same residual
    rows = an.dfa.transitions
    return _holds(Family.COMM, all(
        rows[row[a]][b] == rows[row[b]][a]
        for row in rows for a, b in itertools.combinations(range(len(row)), 2)))


def _classify_circ(an):
    # a x in L must give x a in L: the residual at delta(start, a) lies
    # inside {x : x a in L}, read from the start with the states that a
    # takes into F as finals
    dfa = an.dfa
    return _holds(Family.CIRC, all(
        subset(residual(dfa, dfa.transitions[dfa.start][i]),
               Dfa(dfa.alphabet, dfa.transitions, dfa.start,
                   frozenset(q for q, row in enumerate(dfa.transitions)
                             if row[i] in dfa.finals)))
        for i in range(len(dfa.alphabet))))


def aperiodicity_bound(monoid) -> int | None:
    """Smallest k >= 1 with t^k = t^(k+1) for every state map t of a
    transition monoid, or None if the monoid is not aperiodic.  t^k =
    t^(k+1) exactly when t^k sends every state to a fixed point of t, so
    one walk over t's functional graph finds the most steps any state
    takes to reach one, and a cycle through two or more states means no
    k works."""
    bound = 1
    for t in monoid:
        # steps to a fixed point; -1 not yet known, -2 on the current walk
        steps = [0 if p == q else -1 for q, p in enumerate(t)]
        for q in range(len(t)):
            if steps[q] >= 0:
                continue
            walk = []
            while steps[q] < 0:
                if steps[q] == -2:  # a cycle through two or more states
                    return None
                steps[q] = -2
                walk.append(q)
                q = t[q]
            d = steps[q]
            for p in reversed(walk):
                d += 1
                steps[p] = d
        bound = max(bound, max(steps))
    return bound


def _classify_nc(an):
    if an.aperiodicity is None:
        return _no(Family.NC)
    return _yes(Family.NC, {"bound": an.aperiodicity})


def _start_orbit(t, start):
    """The states t^j(start) for j = 0, 1, ... up to the first repeat,
    and the j at which the cycle that the repeat closes begins."""
    orbit, index = [], {}
    q = start
    while q not in index:
        index[q] = len(orbit)
        orbit.append(q)
        q = t[q]
    return orbit, index[q]


def _classify_ps(an):
    # w^j in L reads t^j(start) in F for the map t of w: its cycle must
    # lie inside F or outside it, and the bound is the longest tail
    dfa = an.dfa
    worst = 1
    for t in an.monoid:
        orbit, tail = _start_orbit(t, dfa.start)
        if len({q in dfa.finals for q in orbit[tail:]}) > 1:
            return _no(Family.PS)
        worst = max(worst, tail)
    return _yes(Family.PS, {"bound": worst})


def _classify_star(an):
    # L = L* exactly when L holds the empty word and L L <= L, that is
    # L <= L_f for each final state f, which some word of L reaches
    dfa = an.dfa
    finals = sum(1 << q for q in dfa.finals)
    if dfa.start in dfa.finals and not finals & an.outside[dfa.start]:
        return _yes(Family.STAR, {"H": an.l.text})
    return _no(Family.STAR)


def _classify_rcom(an):
    # g.L <= L iff L <= g^-1 L, the residual at the state g reaches
    outside = an.outside[an.dfa.start]
    g = _stable_word(an, _image, 1 << an.dfa.start,
                     lambda s: not s & outside, _SUBSET_CAP)
    if g is None:
        return _no(Family.RCOM)
    # render(word_regex(g)) is g itself
    return _yes(Family.RCOM, {"g": g, "G": g, "H": an.l.text})


def _classify_lcom(an):
    # L.g <= L iff F.g <= F, that is iff F lies inside the preimage of F
    # under g; the search reads g backwards, from F by letter preimages
    finals = sum(1 << q for q in an.dfa.finals)
    g = _stable_word(an, _preimage, finals, lambda s: not finals & ~s,
                     _SUBSET_CAP)
    if g is None:
        return _no(Family.LCOM)
    g = g[::-1]  # orient for L = E G^*: L.g <= L
    return _yes(Family.LCOM, {"g": g, "E": an.l.text, "G": g})


def _image(states: int, column) -> int:
    """The bitmask of the states that the states in `states` move to."""
    out = 0
    for q, t in enumerate(column):
        if states >> q & 1:
            out |= 1 << t
    return out


def _preimage(states: int, column) -> int:
    """The bitmask of the states that move into `states`."""
    return sum(1 << q for q, t in enumerate(column) if states >> t & 1)


def _outside(dfa: Dfa) -> list[int]:
    """For each state p, the bitmask of the states q with L_p not inside
    L_q, found backwards from F x (Q - F) by letter preimages, each pair
    once: the one-sided table filling for distinguishable pairs."""
    n = dfa.n_states
    rejects = (1 << n) - 1 - sum(1 << q for q in dfa.finals)
    pre = [[0] * n for _ in dfa.alphabet]  # pre[i][t]: the states i takes to t
    for s, row in enumerate(dfa.transitions):
        for column, t in zip(pre, row):
            column[t] |= 1 << s
    outside = [rejects if p in dfa.finals else 0 for p in range(n)]
    fresh = dict(enumerate(outside))  # the pairs not yet walked back
    while fresh:
        p, qs = fresh.popitem()
        for column in pre:  # the preimages of distinct states are disjoint
            into = sum(column[q] for q in automata._bits(qs))
            for s in automata._bits(column[p]):
                new = into & ~outside[s]
                if new:
                    outside[s] |= new
                    fresh[s] = fresh.get(s, 0) | new
    return outside


def _walk(alphabet, columns, move, states: int, cap: int):
    """Breadth-first walk over the state sets that letter moves (`_image`
    or `_preimage` under one letter's column) reach from `states`: yields
    (u, a, S) for every move, S being where u then a takes `states`, in
    length-lex order of u a, and moves on from each set once.  More than
    `cap` sets raise ResourceCapExceeded."""
    seen = {states}
    frontier = [("", states)]
    while frontier:
        nxt = []
        for u, s in frontier:
            for a, column in zip(alphabet, columns):
                t = move(s, column)
                yield u, a, t
                if t not in seen:
                    if len(seen) >= cap:
                        raise ResourceCapExceeded(
                            f"subset construction exceeds cap {cap}")
                    seen.add(t)
                    nxt.append((u + a, t))
        frontier = nxt


def _closed_state_sets(dfa: Dfa, columns, cap: int) -> list[int]:
    """The closed state sets of a minimal DFA as bitmasks, ascending.

    For P a set of states let K_P be the intersection of the residuals
    L_p, p in P; P is closed when P = {q : K_P <= L_q}.  The closed sets
    are the intersections of the sets S_w = {q : w in L_q} (Q for none),
    the Galois closure behind Ganter's NextClosure.  S_w is {q : t(q) in F}
    for the transition-monoid element t of w, and S_aw is the preimage of
    S_w under a, so the sets S_w are F and those `_walk` reaches from it.
    """
    finals = sum(1 << q for q in dfa.finals)
    family = {finals, *(s for _, _, s in _walk(dfa.alphabet, columns,
                                               _preimage, finals, cap))}
    closed = {(1 << dfa.n_states) - 1}
    for s in family:
        closed |= {c & s for c in closed}
        if len(closed) > cap:
            raise ResourceCapExceeded
    return sorted(closed)


def _stable_word(an: _Analysis, move, states: int, accept, cap: int):
    """Shortest non-empty word w, length-lex first, whose `move` (`_image`
    or `_preimage` under one letter) takes the state set `states` to a set
    that `accept` holds for, or None: the first such move of `_walk`."""
    for u, a, s in _walk(an.dfa.alphabet, an.columns, move, states, cap):
        if accept(s):
            return u + a
    return None


def _covers(dfa: Dfa, columns, p: int, cap: int) -> bool:
    """Whether L <= E_P K_P for the state set P: every accepted word
    splits as u v with delta(u) in P and P.v inside F.  A depth-first walk
    over the pairs (q, S), q the state a word reaches and S the images of
    P under the suffixes read since each visit to P, refutes at a final q
    whose every image meets Q - F.  More than `cap` pairs raise
    ResourceCapExceeded."""
    rejects = (1 << dfa.n_states) - 1 - sum(1 << q for q in dfa.finals)
    images = {}  # (image, letter) -> its image under the letter
    start = (dfa.start, frozenset([p] if p >> dfa.start & 1 else []))
    seen = {start}
    stack = [start]
    while stack:
        q, s = stack.pop()
        if q in dfa.finals and all(t & rejects for t in s):
            return False
        for a, column in enumerate(columns):
            moved = set()
            for t in s:
                if (t, a) not in images:
                    images[t, a] = _image(t, column)
                moved.add(images[t, a])
            r = column[q]
            if p >> r & 1:
                moved.add(p)
            pair = (r, frozenset(moved))
            if pair not in seen:
                if len(seen) >= cap:
                    raise ResourceCapExceeded
                seen.add(pair)
                stack.append(pair)
    return True


def _comet_set(an: _Analysis, every_letter: bool):
    """(P, g, K) for the first closed state set P that is stable and covers
    L, with K the DFA of K_P; None when no closed set is both.

    With E_P = {u : delta(u) in P}, always E_P K_P <= L; P covers L when
    L <= E_P K_P (`_covers`).  If P.g <= P for a non-empty word g, then
    g K_P <= K_P, so a covering P gives L = E_P g* K_P.  Conversely, if
    L = E G* H and g is a non-empty word of G, the g-orbit P of the states
    E reaches is stable and covers, because G* H <= K_P; its closure keeps
    both properties.  For 2COM, g is the shortest non-empty word,
    length-lex first, that `_stable_word` finds from P by images,
    accepting the sets inside P; SYDEF (G = V*) is the case with P stable
    under every letter (g is None).  Stability is tested first, as the
    cheaper test, and K's DFA is built only for the P returned.  The
    closed sets, the images of P, the pairs of each cover walk and K's
    subset construction are bounded by `COMET_STATE_CAP`.
    """
    dfa, cap = an.dfa, COMET_STATE_CAP
    try:
        columns = an.columns
        for p in an.comet_sets:
            if every_letter:
                g = None
                if any(_image(p, column) & ~p for column in columns):
                    continue
            else:
                g = _stable_word(an, _image, p, lambda s: not s & ~p, cap)
                if g is None:
                    continue
            if _covers(dfa, columns, p, cap):
                members = frozenset(q for q in range(dfa.n_states)
                                    if p >> q & 1)
                # K_P, the complement of what some state of P rejects
                rejects = replace(to_nfa(complement(dfa)), initials=members)
                return members, g, complement(determinize(rejects, cap))
    except ResourceCapExceeded:
        raise ResourceCapExceeded(f"comet state cap {cap} exceeded") from None
    return None


def _regex_text(l, dfa: Dfa) -> str:
    """Regex text for L(dfa): L's own text when the languages are equal,
    since state elimination can yield a regex far longer than L's."""
    dfa = minimize(dfa)
    return l.text if dfa == l.dfa else rx.render(dfa_to_regex(dfa))


def _classify_twocom(an):
    """E G* H: exact for empty and finite L, a one-sided comet's
    certificate when there is one, else the closed state set search."""
    l, dfa = an.l, an.dfa
    if an.cardinality is CardinalityClass.EMPTY:
        return _yes(Family.TWOCOM, {"E": "0", "G": l.alphabet[0], "H": "1"})
    if an.cardinality is CardinalityClass.FINITE_NONEMPTY:
        return _no(Family.TWOCOM, "finite non-empty languages are not comets")
    r = an.read(Family.RCOM)
    if r.outcome is Outcome.YES:
        return _yes(Family.TWOCOM, {"E": "1", "G": r.certificate["g"],
                                    "H": l.text})
    lv = an.read(Family.LCOM)
    if lv.outcome is Outcome.YES:
        return _yes(Family.TWOCOM, {"E": l.text, "G": lv.certificate["g"],
                                    "H": "1"})
    found = _comet_set(an, every_letter=False)
    if found is None:
        return _no(Family.TWOCOM, "no closed state set stable under a "
                                  "non-empty word covers L")
    members, g, k_dfa = found
    e_dfa = Dfa(dfa.alphabet, dfa.transitions, dfa.start, members)
    return _yes(Family.TWOCOM, {"E": _regex_text(l, e_dfa), "G": g,
                                "H": _regex_text(l, k_dfa)})


def _classify_sydef(an):
    dfa = an.dfa
    if an.cardinality is CardinalityClass.FINITE_NONEMPTY:
        return _no(Family.SYDEF, "E V* H is either empty or infinite")
    if an.read(Family.PS).outcome is Outcome.NO:
        return _no(Family.SYDEF, "not power-separating")
    found = _comet_set(an, every_letter=True)
    if found is None:
        return _no(Family.SYDEF, "no closed state set stable under every "
                                 "letter covers L")
    members, _, k_dfa = found
    # P is closed under every letter, so E_P = E V* for E the words that
    # reach P first; that E is the certificate's
    sink = (dfa.n_states,) * len(dfa.alphabet)
    rows = [sink if s in members else row
            for s, row in enumerate(dfa.transitions)]
    first = Dfa(dfa.alphabet, (*rows, sink), dfa.start, members)
    return _yes(Family.SYDEF, {"E": _regex_text(an.l, first),
                               "H": _regex_text(an.l, k_dfa)})


def _classify_uf(an):
    if rx.is_syntactically_union_free(an.l.regex):
        return _yes(Family.UF, {"regex": an.l.text})
    components = rx.union_normal_form(an.l.regex)
    if len(components) == 1:
        return _yes(Family.UF, {"regex": rx.render(components[0])})
    return _unknown(Family.UF, "source regex contains unions")


_DECIDERS = {
    Family.MON: _classify_mon,
    Family.FIN: _classify_fin,
    Family.NIL: _classify_nil,
    Family.COMB: _classify_comb,
    Family.DEF: _classify_def,
    Family.SYDEF: _classify_sydef,
    Family.SUF: _classify_suf,
    Family.ORD: _classify_ord,
    Family.COMM: _classify_comm,
    Family.CIRC: _classify_circ,
    Family.NC: _classify_nc,
    # SF = NC (Schützenberger; McNaughton & Papert)
    Family.SF: lambda an: replace(an.read(Family.NC), family=Family.SF),
    Family.PS: _classify_ps,
    Family.UF: _classify_uf,
    Family.STAR: _classify_star,
    Family.LCOM: _classify_lcom,
    Family.RCOM: _classify_rcom,
    Family.TWOCOM: _classify_twocom,
}


# Certificates that depend only on the minimal DFA are shared, as
# `automata._shared` shares minimal DFAs and their rows: few distinct ones
# occur (1410 over the 5000 languages of `hierarchy.random_corpus(5000)`:
# 1033 ORD, 364 DEF, 9 NC and PS, 4 COMB), and a caller that keeps its
# verdicts then keeps one dict for each.  Certificates that quote L's
# regex text are not shared; the text they quote is, since
# `LanguageHandle.text` interns it.  The table stops growing at
# _SHARED_CAP entries.
_DFA_ONLY = frozenset({Family.NC, Family.SF, Family.PS, Family.ORD,
                       Family.DEF, Family.COMB})
_SHARED: dict = {}
_SHARED_CAP = 1 << 12


def _shared(cert: dict) -> dict:
    """A certificate equal to `cert`: the first one the table holds, if
    any."""
    key = tuple((k, tuple(v) if isinstance(v, list) else v)
                for k, v in cert.items())
    got = _SHARED.get(key)
    if got is not None:
        return got
    if len(_SHARED) < _SHARED_CAP:
        _SHARED[key] = cert
    return cert


def classify(l: LanguageHandle, family: Family,
             config: ClassifierConfig = DEFAULT_CONFIG,
             _analysis: _Analysis | None = None) -> Verdict:
    """The family verdict; a search that exceeds a resource cap answers
    Unknown with the cap as the reason.  `classify_all` passes the one
    analysis of L that all its calls share."""
    verdict = (_analysis or _Analysis(l, config)).decide(family)
    if verdict.certificate is not None and family in _DFA_ONLY:
        verdict.certificate = _shared(verdict.certificate)
    return verdict


# The proper inclusions X ⊂ Y of Figure 1, as (X, Y, provenance): either
# "witness:<id>", a registry language in Y but not in X, or "literature".
# `hierarchy.FIG1` draws them; `classify_all` checks those whose Y is a
# family, since a Yes for X forces a Yes for Y.
FIG1_EDGES = (
    ("MON", "STAR", "witness:even_a"),
    ("MON", "SYDEF", "witness:sydef_not_sf"),
    ("MON", "NIL", "witness:lambda_a"),
    ("MON", "SUF", "witness:lambda_a"),
    ("MON", "COMM", "witness:lambda_a"),
    ("FIN", "NIL", "witness:a_star"),
    ("NIL", "DEF", "witness:ends_b"),
    ("COMB", "DEF", "witness:lambda_a"),
    ("COMB", "SYDEF", "witness:sydef_not_sf"),
    ("DEF", "ORD", "witness:ab_star"),
    ("ORD", "NC", "literature"),
    ("NC", "PS", "witness:even_a_b"),
    ("SUF", "PS", "witness:ends_b"),
    ("SYDEF", "LCOM", "witness:even_a"),
    ("SYDEF", "RCOM", "witness:even_a"),
    ("SYDEF", "PS", "witness:lambda_a"),
    ("LCOM", "2COM", "witness:a_star_b"),
    ("RCOM", "2COM", "witness:b_a_star"),
    ("2COM", "REG", "witness:lambda_a"),
    ("STAR", "UF", "witness:single_a"),
    ("UF", "REG", "literature"),
    ("COMM", "CIRC", "witness:rotations_abc"),
    ("CIRC", "REG", "witness:ab_star"),
    ("PS", "REG", "witness:even_a"),
)
_FAMILY_EDGES = [(Family(x), Family(y)) for x, y, _ in FIG1_EDGES
                 if y != "REG"]


def classify_all(l: LanguageHandle,
                 config: ClassifierConfig = DEFAULT_CONFIG) -> dict[Family, Verdict]:
    analysis = _Analysis(l, config)
    # SYDEF reads PS, and 2COM reads RCOM and LCOM: deciding the readers
    # last keeps each decider's work inside its own family's call
    for f in sorted(Family, key=lambda f: f in (Family.SYDEF, Family.TWOCOM)):
        classify(l, f, config, analysis)
    verdicts = {f: analysis.verdicts[f] for f in Family}
    for x, y in _FAMILY_EDGES:
        if (verdicts[x].outcome is Outcome.YES
                and verdicts[y].outcome is Outcome.NO):
            raise ConsistencyError(
                f"{x} = yes but {y} = no for {rx.render(l.regex)}")
    if verdicts[Family.UF].outcome is Outcome.NO:
        raise ConsistencyError("UF can never be decided negatively")
    return verdicts


# ---------------------------------------------------------------------------
# Certificate verification


def _lang_regex(value, alphabet) -> rx.Regex:
    """The regex of a certificate language value (regex text or an
    explicit word list)."""
    if isinstance(value, str):
        return rx.parse_regex(value, alphabet)
    if isinstance(value, (list, tuple, set, frozenset)):
        return rx.finite_language_regex(value)
    raise CertificateError(f"cannot interpret language value {value!r}")


def _word_list(cert: dict, key: str) -> list:
    """A certificate's word list; text is refused, not split into letters."""
    if not isinstance(cert[key], list):
        raise TypeError(f"{key} must be a list")
    return cert[key]


def _comet_parts(l: LanguageHandle, family: Family, cert: dict):
    """The parts (A, E, G, H) of L = A | E G* H that a rational
    certificate states, or None for a family it does not fit."""
    V = l.alphabet
    one, sigma = rx.EPSILON, rx.finite_language_regex(V)

    def lang(key):
        return _lang_regex(cert[key], V)

    if family is Family.COMB:
        x = _word_list(cert, "X")
        if any(a not in V for a in x):
            raise CertificateError("X must contain alphabet letters")
        return rx.EMPTY, one, sigma, rx.finite_language_regex(x)
    if family is Family.DEF:
        return (rx.finite_language_regex(cert["A"]), one, sigma,
                rx.finite_language_regex(cert["B"]))
    if family is Family.SYDEF:
        return rx.EMPTY, lang("E"), sigma, lang("H")
    if family is Family.STAR:
        return rx.EMPTY, one, lang("H"), one
    if family in (Family.RCOM, Family.LCOM):
        g = _lang_regex(cert.get("G", cert.get("g")), V)
        if family is Family.RCOM:
            return rx.EMPTY, one, g, lang("H") if "H" in cert else l.regex
        return rx.EMPTY, lang("E") if "E" in cert else l.regex, g, one
    if family is Family.TWOCOM:
        return rx.EMPTY, lang("E"), lang("G"), lang("H")
    if family is Family.UF:
        if not isinstance(cert["regex"], str):
            raise CertificateError("UF regex must be text")
        return rx.EMPTY, rx.parse_regex(cert["regex"], V), rx.EMPTY, one
    return None


def verify_certificate(l: LanguageHandle, family: Family, cert: dict,
                       config: ClassifierConfig = DEFAULT_CONFIG) -> bool:
    """Re-derive the family's defining equation from the certificate and
    check it against L."""
    if not isinstance(cert, dict):
        raise CertificateError("certificate must be a mapping")
    V = l.alphabet
    dfa = l.dfa
    try:
        if family is Family.DEF:
            k = cert["window"]
            if not isinstance(k, int) or k < 0:
                raise CertificateError("window must be a natural number")
            if "A" not in cert and "B" not in cert:
                # a minimal DFA is k-definite exactly from its window on
                window = _def_window(dfa)
                return window is not None and window <= k
            # A is L's words shorter than k and B its words of length k
            a, b = _word_list(cert, "A"), _word_list(cert, "B")
            if any(len(w) >= k for w in a) or any(len(w) != k for w in b):
                return False
        parts = _comet_parts(l, family, cert)
        if parts is not None:
            a, e, g, h = parts
            # a comet's middle is neither empty nor {lambda}
            if (family in (Family.RCOM, Family.LCOM, Family.TWOCOM)
                    and rx.language_class(g) in (rx.LanguageClass.EMPTY,
                                                 rx.LanguageClass.LAMBDA)):
                return False
            if family is Family.UF and not rx.is_syntactically_union_free(e):
                return False
            expr = rx.union(a, rx.cat(e, rx.cat(rx.star(g), h)))
            return equivalent(determinize(compile_regex(expr, V)), dfa)
        if family is Family.ORD:
            if "automaton" in cert:
                try:
                    machine = automata.dfa_from_text(cert["automaton"])
                except automata.AutomataError as exc:
                    raise CertificateError(f"automaton: {exc}") from exc
                if machine.alphabet != V or not equivalent(machine, dfa):
                    return False
            else:
                machine = dfa
            order = cert["order"]
            if sorted(order) != list(range(machine.n_states)):
                raise CertificateError("order must list every state once")
            # <= is transitive, so consecutive states suffice
            pos = {s: i for i, s in enumerate(order)}
            rows = machine.transitions
            return all(pos[rows[p][i]] <= pos[rows[q][i]]
                       for p, q in zip(order, order[1:])
                       for i in range(len(V)))
        if family not in (Family.NC, Family.SF, Family.PS):
            raise CertificateError(f"family {family} carries no certificate")
        k = cert["bound"]  # the deciders give k >= 1
        if not isinstance(k, int) or k < 1:
            raise CertificateError("bound must be a positive integer")
        monoid = transition_monoid(dfa, config.monoid_cap)
        if family is Family.PS:
            for t in monoid:  # the states t^j(start), j >= k, agree on F
                orbit, tail = _start_orbit(t, dfa.start)
                if len({q in dfa.finals for q in orbit[min(k, tail):]}) > 1:
                    return False
            return True
        bound = aperiodicity_bound(monoid)  # t^k = t^(k+1) for every t
        return bound is not None and bound <= k
    except KeyError as exc:
        raise CertificateError(f"missing certificate field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise CertificateError(f"ill-typed certificate field: {exc}") from exc
    except ResourceCapExceeded as exc:
        raise CertificateError(f"cannot check certificate: {exc}") from exc
    except (rx.RegexError, automata.AlphabetMismatchError) as exc:
        raise CertificateError(f"bad certificate language: {exc}") from exc
