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
    """Base class of all syntax-tree nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True, slots=True)
class Empty(Regex):
    pass


@dataclass(frozen=True, slots=True)
class Sym(Regex):
    letter: str


@dataclass(frozen=True, slots=True)
class Cat(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True, slots=True)
class Union(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True, slots=True)
class Star(Regex):
    inner: Regex


EMPTY = Empty()
EPSILON = Star(EMPTY)  # the only spelling of {lambda}


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
    if word == "":
        return EPSILON
    r: Regex = Sym(word[0])
    for a in word[1:]:
        r = Cat(r, Sym(a))
    return r


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
    the declared alphabet."""
    node, pos = _parse_union(text, 0, alphabet)
    if pos != len(text):
        raise RegexSyntaxError(f"unexpected {text[pos]!r}", pos)
    return node


# Recursive descent: each rule takes the text and a position and returns
# the parsed node with the position after it.

def _parse_union(text, pos, alphabet):
    node, pos = _parse_concat(text, pos, alphabet)
    while pos < len(text) and text[pos] == "|":
        right, pos = _parse_concat(text, pos + 1, alphabet)
        node = Union(node, right)
    return node, pos


def _parse_concat(text, pos, alphabet):
    node, pos = _parse_piece(text, pos, alphabet)
    while pos < len(text) and text[pos] not in "|)":
        right, pos = _parse_piece(text, pos, alphabet)
        node = Cat(node, right)
    return node, pos


def _parse_piece(text, pos, alphabet):
    node, pos = _parse_atom(text, pos, alphabet)
    while pos < len(text) and text[pos] == "*":
        node, pos = Star(node), pos + 1
    return node, pos


def _parse_atom(text, pos, alphabet):
    if pos >= len(text):
        raise RegexSyntaxError("unexpected end of input", pos)
    c = text[pos]
    if c == "(":
        node, pos = _parse_union(text, pos + 1, alphabet)
        if pos >= len(text) or text[pos] != ")":
            raise RegexSyntaxError("expected ')'", pos)
        return node, pos + 1
    if c == "0":
        return EMPTY, pos + 1
    if c == "1":
        return EPSILON, pos + 1
    if c in "|*)":
        raise RegexSyntaxError(f"unexpected {c!r}", pos)
    if c not in alphabet:
        raise UnknownSymbolError(c)
    return Sym(c), pos + 1


_PREC_UNION, _PREC_CAT, _PREC_ATOM = 0, 1, 2


def render(r: Regex) -> str:
    """Deterministic pretty-printer with minimal parentheses."""
    return _render(r, _PREC_UNION)


def _render(node, prec):
    if node == EPSILON:
        return "1"
    if isinstance(node, Empty):
        return "0"
    if isinstance(node, Sym):
        return node.letter
    if isinstance(node, Star):
        return _render(node.inner, _PREC_ATOM) + "*"
    if isinstance(node, Cat):
        # concatenation is associative, so a nested Cat on the right may
        # print without parentheses; reparsing then matches the
        # left-reassociated canonical form
        s = _render(node.left, _PREC_CAT) + _render(node.right, _PREC_CAT)
        return f"({s})" if prec > _PREC_CAT else s
    if isinstance(node, Union):
        s = (_render(node.left, _PREC_UNION) + "|"
             + _render(node.right, _PREC_UNION))
        return f"({s})" if prec > _PREC_UNION else s
    raise TypeError(f"not a regex node: {node!r}")


def canonical(r: Regex) -> Regex:
    """Left-reassociate concatenation and union chains.

    parse_regex(render(r)) is structurally equal to canonical(r).
    """
    if isinstance(r, Star):
        inner = canonical(r.inner)
        return r if inner == r.inner else Star(inner)
    if isinstance(r, (Cat, Union)):
        ctor = type(r)
        parts, stack = [], [r]
        while stack:
            node = stack.pop()
            if isinstance(node, ctor):
                stack += (node.right, node.left)
            else:
                parts.append(canonical(node))
        node = parts[0]
        for p in parts[1:]:
            node = ctor(node, p)
        return node
    return r


# ---------------------------------------------------------------------------
# Structural queries


def is_syntactically_union_free(r: Regex) -> bool:
    """True iff no Union node occurs in the tree."""
    if isinstance(r, Union):
        return False
    if isinstance(r, Cat):
        return is_syntactically_union_free(r.left) and is_syntactically_union_free(r.right)
    if isinstance(r, Star):
        return is_syntactically_union_free(r.inner)
    return True


def letters_of(r: Regex) -> frozenset[str]:
    if isinstance(r, Sym):
        return frozenset(r.letter)
    if isinstance(r, (Cat, Union)):
        return letters_of(r.left) | letters_of(r.right)
    if isinstance(r, Star):
        return letters_of(r.inner)
    return frozenset()


def reverse_regex(r: Regex) -> Regex:
    """Regex for the reversed language (swaps concatenation operands)."""
    if isinstance(r, Cat):
        return Cat(reverse_regex(r.right), reverse_regex(r.left))
    if isinstance(r, Union):
        return Union(reverse_regex(r.left), reverse_regex(r.right))
    if isinstance(r, Star):
        return Star(reverse_regex(r.inner))
    return r


class LanguageClass(enum.Enum):
    EMPTY = "empty"
    LAMBDA = "lambda"          # exactly {lambda}
    FINITE = "finite"          # finite with at least one non-empty word
    INFINITE = "infinite"


_LC_ORDER = [LanguageClass.EMPTY, LanguageClass.LAMBDA,
             LanguageClass.FINITE, LanguageClass.INFINITE]


def language_class(r: Regex) -> LanguageClass:
    """Exact syntactic classification of L(r) into empty / {lambda} /
    finite / infinite."""
    if isinstance(r, Empty):
        return LanguageClass.EMPTY
    if isinstance(r, Sym):
        return LanguageClass.FINITE
    if isinstance(r, Union):
        a, b = language_class(r.left), language_class(r.right)
        return max(a, b, key=_LC_ORDER.index)
    if isinstance(r, Cat):
        a, b = language_class(r.left), language_class(r.right)
        if LanguageClass.EMPTY in (a, b):
            return LanguageClass.EMPTY
        return max(a, b, key=_LC_ORDER.index)
    if isinstance(r, Star):
        inner = language_class(r.inner)
        if inner in (LanguageClass.EMPTY, LanguageClass.LAMBDA):
            return LanguageClass.LAMBDA
        return LanguageClass.INFINITE
    raise TypeError(f"not a regex node: {r!r}")


def words_up_to(r: Regex, n: int) -> frozenset[str]:
    """Brute-force evaluation of L(r) restricted to words of length <= n.

    Independent of the automata pipeline; used as a semantic oracle.
    """
    return _words(r, n, {})


def _words(node, limit, memo) -> frozenset[str]:
    key = (node, limit)
    if key in memo:
        return memo[key]
    if isinstance(node, Empty):
        out = frozenset()
    elif isinstance(node, Sym):
        out = frozenset({node.letter}) if limit >= 1 else frozenset()
    elif isinstance(node, Union):
        out = _words(node.left, limit, memo) | _words(node.right, limit, memo)
    elif isinstance(node, Cat):
        left = _words(node.left, limit, memo)
        acc = set()
        for u in left:
            rest = limit - len(u)
            for v in _words(node.right, rest, memo):
                acc.add(u + v)
        out = frozenset(acc)
    elif isinstance(node, Star):
        base = _words(node.inner, limit, memo) - {""}
        acc = {""}
        frontier = {""}
        while frontier:
            new = set()
            for u in frontier:
                for v in base:
                    w = u + v
                    if len(w) <= limit and w not in acc:
                        new.add(w)
            acc |= new
            frontier = new
        out = frozenset(acc)
    else:
        raise TypeError(f"not a regex node: {node!r}")
    memo[key] = out
    return out


# ---------------------------------------------------------------------------
# Rewriting


def union_normal_form(r: Regex) -> list[Regex]:
    """Rewrite r into a finite list of syntactically union-free regexes
    whose language union equals L(r).

    Uses distributivity of concatenation over union and the identity
    (R|S)* = (R*S*)*; structurally equal duplicates are dropped.
    """
    out: list[Regex] = []
    for comp in _union_components(r):
        if comp not in out:
            out.append(comp)
    return out


def _union_components(node) -> list[Regex]:
    if isinstance(node, Union):
        return _union_components(node.left) + _union_components(node.right)
    if isinstance(node, Cat):
        rights = _union_components(node.right)
        return [cat(l, rr) for l in _union_components(node.left)
                for rr in rights]
    if isinstance(node, Star):
        comps = _union_components(node.inner)
        if not comps:
            return [EPSILON]
        if len(comps) == 1:
            return [star(comps[0])]
        body = star(comps[0])
        for c in comps[1:]:
            body = cat(body, star(c))
        return [star(body)]
    return [node]


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
    if language_class(r) is not LanguageClass.INFINITE:
        raise DecompositionError("language is finite")
    return _star_split(r)


def _star_split(node):
    if isinstance(node, Star):
        return (EPSILON, node.inner, EPSILON)
    if isinstance(node, Cat):
        if language_class(node.left) is LanguageClass.INFINITE:
            l, m, rr = _star_split(node.left)
            return (l, m, cat(rr, node.right))
        l, m, rr = _star_split(node.right)
        return (cat(node.left, l), m, rr)
    raise DecompositionError(f"cannot split {render(node)}")
