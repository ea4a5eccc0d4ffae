"""Regular-expression syntax trees, parsing, printing, and rewriting.

Concrete syntax:

    union  := concat ("|" concat)*
    concat := piece piece*
    piece  := atom "*"*
    atom   := letter | "0" | "1" | "(" union ")"

``0`` denotes the empty set and ``1`` abbreviates ``0*`` (the language
containing only the empty word).  Concatenation is left-associative and
binds tighter than ``|``; star binds tightest.  There is no dedicated
epsilon node: the empty word is representable only as ``Star(Empty)``.

``fold`` is the one walk over a tree: printing, the queries, the
rewrites and ``automata.compile_regex`` are folds, equality walks without
recursion and the parser keeps one frame per open parenthesis, so tree
depth is not limited by the interpreter's recursion limit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RegexError(Exception):
    """Base class for regex construction and parsing errors."""


class RegexSyntaxError(RegexError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(RegexError):
    def __init__(self, letter: str):
        super().__init__(f"symbol {letter!r} is not in the declared alphabet")
        self.letter = letter


class AlphabetError(Exception):
    """Raised for empty or malformed alphabets."""


def make_alphabet(letters) -> tuple[str, ...]:
    """Normalize an iterable of letters into a sorted, duplicate-free tuple."""
    seen = []
    for a in letters:
        if not isinstance(a, str) or len(a) != 1:
            raise AlphabetError(f"letters must be single symbols, got {a!r}")
        if a in "01|*()":
            raise AlphabetError(f"letter {a!r} collides with regex syntax")
        if a not in seen:
            seen.append(a)
    if not seen:
        raise AlphabetError("alphabet must be non-empty")
    out = tuple(sorted(seen))
    # an already normal tuple is returned itself, so handles share it
    return letters if letters == out else out


class Regex:
    """Base class of all syntax-tree nodes.  Equality and hashing are
    structural and, like every other walk here, need no recursion."""

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        # the dataclass text, built by a fold so that depth does not matter
        def leaf(node):
            return (f"Sym(letter={node.letter!r})" if type(node) is Sym
                    else "Empty()")

        def pair(node, left, right):
            return f"{type(node).__name__}(left={left}, right={right})"
        return fold(self, leaf, lambda node, inner: f"Star(inner={inner})",
                    pair, pair)

    def __eq__(self, other):
        if type(other) is not type(self):
            return False if isinstance(other, Regex) else NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            kind = type(a)
            if kind is not type(b):
                return False
            if kind is Star:
                pairs.append((a.inner, b.inner))
            elif kind is Cat or kind is Union:
                pairs += ((a.right, b.right), (a.left, b.left))
            elif kind is Sym and a.letter != b.letter:
                return False
        return True

    def __hash__(self) -> int:
        return hash(render(self))  # equal trees print equally


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Empty(Regex):
    pass


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Sym(Regex):
    letter: str


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Cat(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Union(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Star(Regex):
    inner: Regex


EMPTY = Empty()
EPSILON = Star(EMPTY)  # the only spelling of {lambda}


# ---------------------------------------------------------------------------
# The tree walk


def fold(r: Regex, leaf, star, cat, union):
    """Evaluate a tree bottom-up over an explicit stack: ``leaf(node)``
    for Empty and Sym nodes, ``star(node, inner)``, ``cat(node, left,
    right)`` and ``union(node, left, right)``, each given the values of
    the node's subtrees.  Leaves are visited left to right."""
    done = []  # the values of the finished subtrees, leftmost first
    todo = [r]  # a None marks that the node below it has finished subtrees
    while todo:
        node = todo.pop()
        if node is None:
            node = todo.pop()
            if type(node) is Star:
                done[-1] = star(node, done[-1])
            else:
                right = done.pop()
                done[-1] = (cat if type(node) is Cat else union)(
                    node, done[-1], right)
            continue
        kind = type(node)
        if kind is Cat or kind is Union:
            # right first, so the left subtree is finished first
            todo += (node, None, node.right, node.left)
        elif kind is Star:
            todo += (node, None, node.inner)
        elif kind is Sym or kind is Empty:
            done.append(leaf(node))
        else:
            raise TypeError(f"not a regex node: {node!r}")
    return done[0]


# ---------------------------------------------------------------------------
# Smart constructors.  They apply only language-preserving simplifications
# around the constants 0 and 1 so that derived expressions stay readable.

def cat(left: Regex, right: Regex) -> Regex:
    if left == EMPTY or right == EMPTY:
        return EMPTY
    if left == EPSILON:
        return right
    if right == EPSILON:
        return left
    return Cat(left, right)


def union(left: Regex, right: Regex) -> Regex:
    if left == EMPTY:
        return right
    if right == EMPTY:
        return left
    if left == right:
        return left
    return Union(left, right)


def star(inner: Regex) -> Regex:
    if inner == EMPTY or inner == EPSILON:
        return EPSILON
    if isinstance(inner, Star):
        return inner
    return Star(inner)


def word_regex(word: str) -> Regex:
    """The regex for the singleton language {word}; lambda is written ""."""
    return _chain(Cat, [Sym(a) for a in word]) if word else EPSILON


def finite_language_regex(words) -> Regex:
    """A regex for an explicit finite set of words (length-lex union order)."""
    ordered = sorted(set(words), key=lambda w: (len(w), w))
    r: Regex = EMPTY
    for w in ordered:
        r = union(r, word_regex(w))
    return r


# ---------------------------------------------------------------------------
# Parsing and printing


def parse_regex(text: str, alphabet: tuple[str, ...]) -> Regex:
    """Parse the concrete syntax into a tree; letters are checked against
    the declared alphabet.  Each ``(`` pushes a frame with the enclosing
    alternatives and concatenation so far, and its ``)`` pops it."""
    frames = []
    alts = seq = None  # this level's finished alternatives, concatenation
    pos, end = 0, len(text)
    while True:
        if pos >= end:
            raise RegexSyntaxError("unexpected end of input", pos)
        c = text[pos]
        pos += 1
        if c == "(":
            frames.append((alts, seq))
            alts = seq = None
            continue
        if c == "0":
            node = EMPTY
        elif c == "1":
            node = EPSILON
        elif c in "|*)":
            raise RegexSyntaxError(f"unexpected {c!r}", pos - 1)
        elif c not in alphabet:
            raise UnknownSymbolError(c)
        else:
            node = Sym(c)
        while True:  # node is a finished atom: a letter, 0, 1 or (...)
            while pos < end and text[pos] == "*":
                node, pos = Star(node), pos + 1
            seq = node if seq is None else Cat(seq, node)
            if pos < end and text[pos] != ")":
                if text[pos] == "|":
                    alts = seq if alts is None else Union(alts, seq)
                    seq, pos = None, pos + 1
                break  # an atom follows
            node = seq if alts is None else Union(alts, seq)
            if not frames:
                if pos < end:
                    raise RegexSyntaxError(f"unexpected {text[pos]!r}", pos)
                return node
            if pos >= end:
                raise RegexSyntaxError("expected ')'", pos)
            alts, seq = frames.pop()
            pos += 1


def render(r: Regex) -> str:
    """Deterministic pretty-printer with minimal parentheses."""
    def starred(node, inner):
        if type(node.inner) is Empty:
            return "1"
        return f"({inner})*" if type(node.inner) in (Cat, Union) else inner + "*"

    def joined(node, left, right):
        # concatenation is associative, so a nested Cat on the right may
        # print without parentheses; reparsing then matches the
        # left-reassociated canonical form
        if type(node.left) is Union:
            left = f"({left})"
        return left + (f"({right})" if type(node.right) is Union else right)

    return fold(r, lambda node: node.letter if type(node) is Sym else "0",
                starred, joined, lambda node, left, right: f"{left}|{right}")


def canonical(r: Regex) -> Regex:
    """Left-reassociate concatenation and union chains.

    parse_regex(render(r)) is structurally equal to canonical(r).
    """
    # a subtree's value is its chain type and the chain's operands, or
    # None and the subtree itself
    def chained(node, left, right):
        kind = type(node)
        parts = left[1] if left[0] is kind else [_chain(*left)]
        parts += right[1] if right[0] is kind else [_chain(*right)]
        return kind, parts

    def starred(node, inner):
        inner = _chain(*inner)
        return None, [node if inner == node.inner else Star(inner)]

    return _chain(*fold(r, lambda node: (None, [node]), starred,
                        chained, chained))


def _chain(kind, parts: list[Regex]) -> Regex:
    node = parts[0]
    for p in parts[1:]:
        node = kind(node, p)
    return node


# ---------------------------------------------------------------------------
# Structural queries


def is_syntactically_union_free(r: Regex) -> bool:
    """True iff no Union node occurs in the tree."""
    return fold(r, lambda node: True, lambda node, inner: inner,
                lambda node, left, right: left and right,
                lambda node, left, right: False)


def letters_of(r: Regex) -> frozenset[str]:
    def leaf(node):
        return frozenset(node.letter if type(node) is Sym else "")

    return fold(r, leaf, lambda node, inner: inner,
                lambda node, left, right: left | right,
                lambda node, left, right: left | right)


def reverse_regex(r: Regex) -> Regex:
    """Regex for the reversed language (swaps concatenation operands)."""
    return fold(r, lambda node: node, lambda node, inner: Star(inner),
                lambda node, left, right: Cat(right, left),
                lambda node, left, right: Union(left, right))


class LanguageClass(enum.Enum):
    EMPTY = "empty"
    LAMBDA = "lambda"          # exactly {lambda}
    FINITE = "finite"          # finite with at least one non-empty word
    INFINITE = "infinite"


_LC_ORDER = [LanguageClass.EMPTY, LanguageClass.LAMBDA,
             LanguageClass.FINITE, LanguageClass.INFINITE]
_INFINITE = 3

# leaf, star, cat and union for `fold`, over indices into _LC_ORDER
_LC_FOLD = (lambda node: 2 if type(node) is Sym else 0,
            lambda node, inner: 1 if inner < 2 else _INFINITE,
            lambda node, left, right: left and right and max(left, right),
            lambda node, left, right: left if left > right else right)


def language_class(r: Regex) -> LanguageClass:
    """Exact syntactic classification of L(r) into empty / {lambda} /
    finite / infinite."""
    return _LC_ORDER[fold(r, *_LC_FOLD)]


def words_up_to(r: Regex, n: int) -> frozenset[str]:
    """Brute-force evaluation of L(r) restricted to words of length <= n.

    Independent of the automata pipeline; used as a semantic oracle.
    """
    def leaf(node):
        return frozenset({node.letter} if type(node) is Sym and n >= 1 else ())

    def starred(node, inner):
        base = inner - {""}
        acc = frontier = {""}
        while frontier:
            frontier = {w for u in frontier for v in base
                        if len(w := u + v) <= n} - acc
            acc = acc | frontier
        return frozenset(acc)

    def joined(node, left, right):
        by_length = [[] for _ in range(n + 1)]
        for v in right:
            by_length[len(v)].append(v)
        return frozenset(u + v for u in left
                         for k in range(n + 1 - len(u)) for v in by_length[k])

    return fold(r, leaf, starred, joined, lambda node, left, right: left | right)


# ---------------------------------------------------------------------------
# Rewriting


def union_normal_form(r: Regex) -> list[Regex]:
    """Rewrite r into a finite list of syntactically union-free regexes
    whose language union equals L(r).

    Uses distributivity of concatenation over union and the identity
    (R|S)* = (R*S*)*; structurally equal duplicates are dropped.
    """
    def starred(node, comps):
        body = star(comps[0])
        for c in comps[1:]:
            body = cat(body, star(c))
        return [star(body)]

    comps = fold(r, lambda node: [node], starred,
                 lambda node, left, right: [cat(l, rr) for l in left
                                            for rr in right],
                 lambda node, left, right: left + right)
    return list(dict.fromkeys(comps)) if len(comps) > 1 else comps


class DecompositionError(RegexError):
    """Raised when star_decomposition preconditions are violated."""


def star_decomposition(r: Regex) -> tuple[Regex, Regex, Regex]:
    """Split an infinite union-free language into left * middle^* * right
    with a finite left part and a middle that is neither empty nor {lambda}.

    Follows the inductive construction over the regex structure: a star
    yields ({lambda}, inner, {lambda}); a concatenation splits on whichever
    factor is infinite (the left one if both are).
    """
    if not is_syntactically_union_free(r):
        raise DecompositionError("regex contains a union operator")
    infinite_left = set()  # the ids of the Cat nodes with an infinite left
    leaf, starred, joined, either = _LC_FOLD

    def noted(node, left, right):
        if left == _INFINITE:
            infinite_left.add(id(node))
        return joined(node, left, right)

    if fold(r, leaf, starred, noted, either) != _INFINITE:
        raise DecompositionError("language is finite")
    # walk down the infinite factors to a star, outermost factors first
    lefts, rights = [], []
    while type(r) is Cat:
        if id(r) in infinite_left:
            rights.append(r.right)
            r = r.left
        else:
            lefts.append(r.left)
            r = r.right
    left = right = EPSILON
    for x in reversed(lefts):
        left = cat(x, left)
    for x in reversed(rights):
        right = cat(right, x)
    return left, r.inner, right
