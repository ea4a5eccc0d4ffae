"""Finite automata: construction, boolean algebra, minimization, queries.

A regex becomes its position automaton (``compile_regex``), an NFA with
one state per letter occurrence plus a start state.  An NFA keeps its
moves as one list of int bitmasks per letter: bit t of
``moves[i][p]`` is set when p reads ``alphabet[i]`` into t, so the
successors of a whole state set are one OR of masks.  No automaton here
has empty moves, and no rational operation (union, concatenation,
star) is built on automata: the deciders read the minimal DFA's states
instead.  No automaton is reversed: the deciders that read a word
backwards take letter preimages of state sets of the minimal DFA.
``determinize`` is the one subset construction, over int subsets, and
``distance_to_final`` the one reachability helper.

DFAs are always complete (an explicit sink is added where needed) and,
after ``minimize``, canonically numbered by breadth-first order over the
sorted alphabet, so equal languages yield structurally identical values.
Every DFA that ``determinize`` or ``minimize`` returns is accessible (each
state is reachable from the start), and so is one that keeps such a DFA's
moves and start, as ``complement`` does; so nothing re-checks that.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from .regex import EMPTY, EPSILON, Empty, Regex, Sym, cat, fold, star, union


class AutomataError(Exception):
    pass


class AlphabetMismatchError(AutomataError):
    pass


class ResourceCapExceeded(AutomataError):
    pass


def _check_same_alphabet(a, b):
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(f"{a.alphabet} != {b.alphabet}")


# ---------------------------------------------------------------------------
# NFA


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of `mask`, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask(states) -> int:
    return sum(1 << s for s in states)


@dataclass
class Nfa:
    """Nondeterministic automaton without empty moves.

    States are dense integers 0..n_states-1; several states may be
    initial.  ``moves[i][p]`` is the bitmask of the states that p reaches
    on ``alphabet[i]``, one list of n_states masks per letter.  The empty
    word is accepted exactly when an initial state is final.
    """

    n_states: int
    alphabet: tuple[str, ...]
    moves: list[list[int]]
    initials: frozenset[int]
    finals: frozenset[int]


def compile_regex(r: Regex, alphabet: tuple[str, ...]) -> Nfa:
    """Position automaton (Glushkov; Berry & Sethi 1986) of a regex.

    State 0 is the start and state p >= 1 is the p-th letter occurrence,
    counted from the left; every move into p reads p's letter, so the
    moves on a letter are the follow masks cut to that letter's
    positions.  Nullable, first (a mask), last (a tuple of positions) and
    follow masks are computed bottom-up by one `regex.fold`.
    """
    positions = dict.fromkeys(alphabet, 0)  # the mask of each letter's positions
    follow = [0]  # follow[0] is filled with the first mask at the end
    missing = set()

    def leaf(node):  # each value is a subtree's (nullable, first, last)
        if type(node) is Empty:
            return False, 0, ()
        p = len(follow)
        follow.append(0)
        if node.letter in positions:
            positions[node.letter] |= 1 << p
        else:
            missing.add(node.letter)
        return False, 1 << p, (p,)

    def starred(node, inner):
        _, first, last = inner
        for p in last:
            follow[p] |= first
        return True, first, last

    def joined(node, left, right):
        (nl, fl, ll), (nr, fr, lr) = left, right
        for p in ll:
            follow[p] |= fr
        return nl and nr, fl | fr if nl else fl, ll + lr if nr else lr

    def either(node, left, right):
        (nl, fl, ll), (nr, fr, lr) = left, right
        return nl or nr, fl | fr, ll + lr

    nullable, first, last = fold(r, leaf, starred, joined, either)
    if missing:
        raise AlphabetMismatchError(f"letters {sorted(missing)} not in alphabet")
    follow[0] = first
    return Nfa(len(follow), alphabet,
               [[f & m for f in follow] for m in positions.values()],
               frozenset({0}), frozenset(last + (0,) if nullable else last))


# ---------------------------------------------------------------------------
# DFA


@dataclass(frozen=True, slots=True)
class Dfa:
    """Complete deterministic automaton over dense integer states."""

    alphabet: tuple[str, ...]
    transitions: tuple[tuple[int, ...], ...]  # transitions[state][letter_index]
    start: int
    finals: frozenset[int]

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def run(self, word: str) -> int:
        state = self.start
        idx = {a: i for i, a in enumerate(self.alphabet)}
        for a in word:
            state = self.transitions[state][idx[a]]
        return state

    def accepts(self, word: str) -> bool:
        if any(a not in self.alphabet for a in word):
            return False
        return self.run(word) in self.finals


def to_nfa(dfa: Dfa) -> Nfa:
    return Nfa(dfa.n_states, dfa.alphabet,
               [[1 << t for t in column] for column in zip(*dfa.transitions)],
               frozenset({dfa.start}), dfa.finals)


def determinize(nfa: Nfa, cap: int = 10 ** 6) -> Dfa:
    """Subset construction over the reachable subsets, each an int mask;
    the result is complete (the empty subset acts as the sink).  Raises
    ResourceCapExceeded when it would exceed `cap` states."""
    start = _mask(nfa.initials)
    ids = {start: 0}
    order = [start]
    rows = []
    for cur in order:  # grows while it is read: breadth-first numbering
        states = _bits(cur)
        row = []
        for column in nfa.moves:
            nxt = 0
            for p in states:
                nxt |= column[p]
            j = ids.get(nxt)
            if j is None:
                if len(ids) >= cap:
                    raise ResourceCapExceeded(f"subset construction exceeds cap {cap}")
                j = ids[nxt] = len(order)
                order.append(nxt)
            row.append(j)
        rows.append(tuple(row))
    finals = _mask(nfa.finals)
    return Dfa(nfa.alphabet, tuple(rows), 0,
               frozenset(i for i, subset in enumerate(order) if subset & finals))


def minimize(dfa: Dfa) -> Dfa:
    """Moore partition refinement plus canonical BFS renumbering.  Moore
    blocks are Nerode classes, so unreachable states cannot regroup the
    reachable ones, and the BFS numbers only the reachable blocks."""
    trans, finals, start = dfa.transitions, dfa.finals, dfa.start
    n = len(trans)
    columns = list(zip(*trans))

    # Moore refinement: a state's signature is its block and its
    # successors' blocks; refining only splits blocks, so the partition is
    # stable once their count stops growing
    block = [s in finals for s in range(n)]
    count = len(set(block))
    while count < n:
        sigs = {}
        block = [sigs.setdefault(sig, len(sigs)) for sig in
                 zip(block, *[list(map(block.__getitem__, c)) for c in columns])]
        if len(sigs) == count:
            break
        count = len(sigs)

    reps = {}
    for s, b in enumerate(block):
        reps.setdefault(b, s)
    # canonical numbering: BFS from the start block over sorted letters
    ids = {block[start]: 0}
    order = [block[start]]
    rows = []
    for b in order:
        row = []
        for t in trans[reps[b]]:
            i = ids.get(block[t])
            if i is None:
                i = ids[block[t]] = len(order)
                order.append(block[t])
            row.append(i)
        rows.append(_shared(tuple(row)))
    return _shared(Dfa(dfa.alphabet, tuple(rows), 0, _shared(frozenset(
        i for i, b in enumerate(order) if reps[b] in finals))))


# Equal minimal DFAs are one object, as interned strings are, and so are
# their equal rows and final sets: a language handle keeps its DFA, and
# few distinct rows occur (624 over the 5000 languages of
# `hierarchy.random_corpus(5000)`).  The table stops growing at
# _SHARED_CAP entries.
_SHARED: dict = {}
_SHARED_CAP = 1 << 14


def _shared(value):
    """An object equal to `value`: the first one the table holds, if any."""
    got = _SHARED.get(value)
    if got is not None:
        return got
    if len(_SHARED) < _SHARED_CAP:
        _SHARED[value] = value
    return value


def dfa_of(r: Regex, alphabet: tuple[str, ...]) -> Dfa:
    """Minimal canonical DFA of a regex."""
    return minimize(determinize(compile_regex(r, alphabet)))


# ---------------------------------------------------------------------------
# Comparisons


def _product_walk(a: Dfa, b: Dfa):
    """Yield all reachable state pairs of the synchronized product."""
    _check_same_alphabet(a, b)
    seen = {(a.start, b.start)}
    queue = deque(seen)
    while queue:
        p, q = queue.popleft()
        yield p, q
        for i in range(len(a.alphabet)):
            nxt = (a.transitions[p][i], b.transitions[q][i])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)


def subset(a: Dfa, b: Dfa) -> bool:
    """L(a) <= L(b)."""
    for p, q in _product_walk(a, b):
        if p in a.finals and q not in b.finals:
            return False
    return True


def equivalent(a: Dfa, b: Dfa) -> bool:
    for p, q in _product_walk(a, b):
        if (p in a.finals) != (q in b.finals):
            return False
    return True


class CardinalityClass(enum.Enum):
    EMPTY = "empty"
    FINITE_NONEMPTY = "finite-nonempty"
    INFINITE = "infinite"


def distance_to_final(dfa: Dfa) -> dict[int, int]:
    """The length of a shortest word from each state into F, for every
    state that has one: the one backward reachability helper."""
    preds: dict[int, set[int]] = {}
    for s in range(dfa.n_states):
        for t in dfa.transitions[s]:
            preds.setdefault(t, set()).add(s)
    dist = dict.fromkeys(dfa.finals, 0)
    queue = deque(dfa.finals)
    while queue:
        s = queue.popleft()
        for p in preds.get(s, ()):
            if p not in dist:
                dist[p] = dist[s] + 1
                queue.append(p)
    return dist


def cardinality_class(dfa: Dfa) -> CardinalityClass:
    """How many words L(dfa) holds; `dfa` is accessible, so the states
    that reach F are the useful ones."""
    useful = set(distance_to_final(dfa))
    if dfa.start not in useful:
        return CardinalityClass.EMPTY
    # L is infinite iff the useful states carry a cycle, that is iff a
    # topological sort of them (Kahn) cannot remove them all
    indegree = dict.fromkeys(useful, 0)
    for s in useful:
        for t in dfa.transitions[s]:
            if t in useful:
                indegree[t] += 1
    ready = [s for s, d in indegree.items() if d == 0]
    removed = 0
    while ready:
        s = ready.pop()
        removed += 1
        for t in dfa.transitions[s]:
            if t in useful:
                indegree[t] -= 1
                if indegree[t] == 0:
                    ready.append(t)
    if removed < len(useful):
        return CardinalityClass.INFINITE
    return CardinalityClass.FINITE_NONEMPTY


# ---------------------------------------------------------------------------
# Boolean operations


def complement(dfa: Dfa) -> Dfa:
    return Dfa(dfa.alphabet, dfa.transitions, dfa.start,
               frozenset(range(dfa.n_states)) - dfa.finals)


# ---------------------------------------------------------------------------
# Enumeration and quotients


def enumerate_words(dfa: Dfa, n: int) -> list[str]:
    """Exactly L(dfa) up to length n, length-lex; the caller bounds n."""
    dist = distance_to_final(dfa)  # for pruning
    out = []
    frontier = [("", dfa.start)]
    for length in range(n + 1):
        nxt = []
        for word, state in frontier:
            if state in dfa.finals:
                out.append(word)
            if length < n:
                for i, a in enumerate(dfa.alphabet):
                    t = dfa.transitions[state][i]
                    if dist.get(t, n + 2) <= n - length - 1:
                        nxt.append((word + a, t))
        frontier = nxt
    return out


def residual(dfa: Dfa, state: int) -> Dfa:
    """The language read from the given state onwards."""
    if not 0 <= state < dfa.n_states:
        raise AutomataError(f"unknown state {state}")
    return Dfa(dfa.alphabet, dfa.transitions, state, dfa.finals)


# ---------------------------------------------------------------------------
# Transition monoid


def transition_monoid(dfa: Dfa, cap: int = 10 ** 6) -> list[tuple[int, ...]]:
    """The distinct state maps that words induce, each a tuple sending
    state q to its image, in breadth-first order from the identity (the
    empty word's map) by one letter at a time."""
    letter_maps = list(zip(*dfa.transitions))
    maps = [tuple(range(dfa.n_states))]
    seen = set(maps)
    for m in maps:  # grows while it is read: breadth-first order
        for lm in letter_maps:
            comp = tuple(lm[q] for q in m)
            if comp not in seen:
                if len(maps) >= cap:
                    raise ResourceCapExceeded(f"transition monoid exceeds cap {cap}")
                seen.add(comp)
                maps.append(comp)
    return maps


# ---------------------------------------------------------------------------
# Regex extraction (state elimination)


def dfa_to_regex(dfa: Dfa) -> Regex:
    """A regex for L(dfa), by state elimination over a generalized NFA;
    `dfa` is accessible, so the states that reach F are the useful ones."""
    useful = set(distance_to_final(dfa))  # set order fixes the edge order
    if dfa.start not in useful:
        return EMPTY
    START, END = -1, -2
    edges: dict[tuple[int, int], Regex] = {}
    # the other ends of each state's in- and out-edges, loops left out,
    # in the order the edges were made (which is their order in `edges`)
    ins, outs = {}, {}

    def add(i, j, r):
        if r == EMPTY:
            return
        if (i, j) not in edges and i != j:
            outs.setdefault(i, {})[j] = ins.setdefault(j, {})[i] = None
        edges[(i, j)] = union(edges.get((i, j), EMPTY), r)

    for s in useful:
        for i, t in enumerate(dfa.transitions[s]):
            if t in useful:
                add(s, t, Sym(dfa.alphabet[i]))
    add(START, dfa.start, EPSILON)
    for f in dfa.finals & useful:
        add(f, END, EPSILON)

    remaining = set(useful)
    while remaining:
        # eliminate the state with the fewest in*out edges first
        s = min(remaining,
                key=lambda s: len(ins.get(s, ())) * len(outs.get(s, ())))
        remaining.discard(s)
        mid = star(edges.pop((s, s), EMPTY))
        into = [(i, edges.pop((i, s))) for i in ins.pop(s, ())]
        out_of = [(j, edges.pop((s, j))) for j in outs.pop(s, ())]
        for i, _ in into:
            del outs[i][s]
        for j, _ in out_of:
            del ins[j][s]
        for i, ri in into:
            for j, rj in out_of:
                add(i, j, cat(cat(ri, mid), rj))
    return edges.get((START, END), EMPTY)


# ---------------------------------------------------------------------------
# Serialization


def dfa_to_text(dfa: Dfa) -> str:
    """Line-oriented fixture format: header then one transition per line."""
    lines = [
        "alphabet " + "".join(dfa.alphabet),
        f"states {dfa.n_states}",
        f"initial {dfa.start}",
        "accepting " + " ".join(str(s) for s in sorted(dfa.finals)),
    ]
    for s, row in enumerate(dfa.transitions):
        for i, t in enumerate(row):
            lines.append(f"{s} {dfa.alphabet[i]} {t}")
    return "\n".join(lines) + "\n"


def dfa_from_text(text: str) -> Dfa:
    """The DFA that `dfa_to_text` wrote; AutomataError for other text."""
    lines = [l.split() for l in text.strip().splitlines() if l.strip()]
    if len(lines) < 4:
        raise AutomataError("truncated DFA text")
    try:
        alphabet = tuple(sorted(lines[0][1]))
        states = range(int(lines[1][1]))  # .index rejects other numbers
        if len(states) * len(alphabet) > len(lines) - 4:
            raise AutomataError("truncated DFA text")
        start = states.index(int(lines[2][1]))
        finals = frozenset(states.index(int(x)) for x in lines[3][1:])
        rows = [[None] * len(alphabet) for _ in states]
        for s, a, t in lines[4:]:
            row = rows[states.index(int(s))]
            row[alphabet.index(a)] = states.index(int(t))
    except (IndexError, ValueError) as exc:
        raise AutomataError(f"malformed DFA text: {exc}") from None
    for s, row in enumerate(rows):
        if any(t is None for t in row):
            raise AutomataError(f"state {s} has missing transitions")
    return Dfa(alphabet, tuple(tuple(r) for r in rows), start, finals)
