"""Quasi-shuffle products and the deconcatenation coalgebra.

Words over a coefficient algebra's letters are plain tuples; the empty
tuple is the unit word. ``TensorElement`` is an exact-rational combination
of words, in ``word_sort_key`` order (length, then letter by letter): one
sort ranks the element's distinct letters, and each word is sorted on one
``str``, its length and then its ranks as code points. Every operation
first checks that the letters of its arguments belong to the algebra; a
letter accepted once is kept in ``alg.cache["member"]`` and not checked
again, and an argument that ``freectd``'s fold built in the algebra (its
``_checked_in`` is the algebra) is not walked again. The quasi-shuffle
product is defined by the recursion

    (a x) * (b y) = (a.b)(x * y) + a(x * (b y)) + b((a x) * y),

with the empty word as unit, where a.b is the letter product in the
coefficient algebra. It recurses once per letter, so a pair of words of
more than ``MAX_SHUFFLE_LETTERS`` letters together is refused with
``DomainError`` before it recurses, and ``_check_budget`` refuses a normal
form or tensor square of more than ``MAX_OUTPUT_TERMS`` terms. Sums are
taken only where keys can collide: each branch puts its own head letter in
front of distinct tails, so a branch is inserted as it is unless its head
is already there (b is a, or a letter of a.b is a or b), and only such a
branch goes through ``add_into``. An independent evaluator expands the
same product as a sum over lattice paths with unit steps right, up, and
diagonal, where a diagonal step multiplies the two letters it consumes;
the two routes are cross-checked in the test suite. A call lays its pair
out in one table: u + v, then the (letter, coefficient) entries of each
letter product, padded with zero entries to the length t of the longest.
Each Delannoy path of the (p, q) shape, with one entry chosen per product
it crosses, is compiled once per (p, q, t) into two ``itemgetter``
gathers, of its word and of its coefficients; when every product is zero
(t = 0) the diagonal paths are dropped when compiled. The two routes share
only the letter product, which both read from the per-algebra memo
``_letter_product``: it is input data, not the rule under test. Neither
route calls the other's code, and the oracle calls neither ``add_into``
nor ``bilinear`` (a test reads this module's source to keep it so).

The product splits into three partial operations

    x < y  (left:  keep the head of x),
    x > y  (right: keep the head of y),
    x . y  (dot:   multiply the heads),

whose unit conventions are  1<x = 0, x<1 = x, 1>x = x, x>1 = 0 and
1.x = 0 = x.1, while 1<1, 1>1 and 1.1 are undefined: applying a partial
operation to two elements that both have a nonzero coefficient on the
empty word raises ``UnitPairingError``. No package code calls
``is_primitive`` or ``coradical_degree``: acceptance criteria 9 and 10 check
the primitives and the coradical filtration with them.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain, repeat
from math import prod
from operator import attrgetter, itemgetter
from typing import Iterator, Mapping

from .coeff import CoeffAlgebraSpec, DomainError, Letter, _require_member, involute_letter
from .lincomb import LinearCombination, Scalar, add_into, bilinear

Word = tuple[Letter, ...]

EMPTY_WORD: Word = ()


class UnitPairingError(ValueError):
    """A partial operation was applied to a pair of units it is undefined on."""


def word_sort_key(word: Word):
    """Length-then-letterwise total order on words."""
    return (len(word), tuple([letter.sort_key for letter in word]))


def _rank_ordered(cls, terms: dict) -> list:
    """The ``_ordered`` of both tensor classes: ``terms.items()`` in ``sort_key``
    order, for keys that are words or, for pair elements, pairs of words.

    The distinct letters of all keys are ranked once by ``Letter.sort_key``.
    A word's sort key is one ``str``, its length and then its ranks, one
    code point each, so C compares the keys, and ``str`` order is
    ``(len, *ranks)`` order, which is ``word_sort_key`` order; a pair's key
    joins its two words' keys. A rank or a length above 1,114,111 has no
    code point, so ``chr`` raises ``ValueError``; ``sort_key`` then sorts.
    """
    pairs = issubclass(cls, TensorSquareElement)
    letters = set().union(*(chain.from_iterable(terms) if pairs else terms))
    ranked = sorted(letters, key=attrgetter("sort_key"))
    try:
        code = dict(zip(ranked, map(chr, range(len(ranked))))).__getitem__
        if pairs:
            def key(kv):
                u, v = kv[0]
                return chr(len(u)) + "".join(map(code, u)) + chr(len(v)) + "".join(map(code, v))
        else:
            def key(kv):
                return chr(len(kv[0])) + "".join(map(code, kv[0]))
        return sorted(terms.items(), key=key)
    except ValueError:  # a rank or a word length past the last code point
        return LinearCombination._ordered.__func__(cls, terms)


class TensorElement(LinearCombination):
    """Exact-rational combination of words over one coefficient algebra.

    Terms are ordered by ``word_sort_key``, computed from letter ranks.
    """

    _checked_in = None  # the algebra ``freectd``'s fold built it in, if any

    sort_key = staticmethod(word_sort_key)

    _ordered = classmethod(_rank_ordered)

    @classmethod
    def from_word(cls, word) -> "TensorElement":
        return cls.basis(tuple(word))

    @classmethod
    def from_letter(cls, letter: Letter) -> "TensorElement":
        return cls.basis((letter,))

    @classmethod
    def unit(cls) -> "TensorElement":
        return cls.basis(EMPTY_WORD)


class TensorSquareElement(LinearCombination):
    """Exact-rational combination of pairs of words (a two-fold tensor).

    Terms are ordered by ``sort_key``, computed from letter ranks.
    """

    _checked_in = None  # as on TensorElement

    @staticmethod
    def sort_key(key: tuple[Word, Word]):
        return (word_sort_key(key[0]), word_sort_key(key[1]))

    _ordered = classmethod(_rank_ordered)


def _check_words(alg: CoeffAlgebraSpec, words) -> None:
    """Refuse the first letter of ``words`` outside ``alg``'s basis family.

    Letters already accepted are in ``alg.cache["member"]``, so the usual
    guard is one set test; otherwise each letter is checked in order.
    """
    if iter(words) is words:  # an iterator: the set test would consume it
        words = list(words)
    known = alg.cache.get("member")
    try:
        if known is not None and known.issuperset(chain.from_iterable(words)):
            return
    except TypeError:  # an unhashable item, refused below
        pass
    for word in words:
        for letter in word:
            _require_member(alg, letter)


def _check_element(alg: CoeffAlgebraSpec, element: TensorElement) -> None:
    if not isinstance(element, TensorElement):
        raise TypeError(f"TensorElement expected, got {type(element).__name__}")
    if element._checked_in is not alg:
        _check_words(alg, element._terms)


# ---------------------------------------------------------------------------
# letter products, shared input of both routes


def _letter_product(
    alg: CoeffAlgebraSpec, a: Letter, b: Letter
) -> tuple[tuple[Letter, Scalar], ...]:
    """``alg.product_rule(a, b)`` as (letter, coefficient) pairs, memoised
    per algebra in ``alg.cache["letter"]``. Stored tuples are never mutated.
    """
    try:
        return alg.cache["letter"][a, b]
    except KeyError:
        pass
    pairs = tuple(alg.product_rule(a, b).items())
    alg.cache.setdefault("letter", {})[a, b] = pairs
    return pairs


# ---------------------------------------------------------------------------
# quasi-shuffle product: memoized recursion


def _prefixed(head, terms: Mapping[Word, Scalar], scale: Scalar = 1) -> dict[Word, Scalar]:
    """``scale * terms`` with ``head`` put in front of every word, as a new
    dict; distinct words stay distinct."""
    if scale == 1:
        return {(head,) + w: c for w, c in terms.items()}
    return {(head,) + w: scale * c for w, c in terms.items()}


# Most letters the two words of one product recursion may have together: it
# recurses once per letter, and its memo keeps the product of every pair of
# suffixes, so memory grows with the cube of the length (361 MB at 400).
MAX_SHUFFLE_LETTERS = 256

# Most terms a normal form or tensor square may have: the 9-generator chain's
# 545,835 combs pass, the 10-generator chain's 7,087,261 are refused.
MAX_OUTPUT_TERMS = 10**6


def _check_budget(count: int) -> None:
    if count > MAX_OUTPUT_TERMS:
        raise DomainError(f"the output would have more than {MAX_OUTPUT_TERMS} terms")


def _shuffle_words(alg: CoeffAlgebraSpec, u: Word, v: Word) -> Mapping[Word, Scalar]:
    """Word-level quasi-shuffle as a zero-free dict. Cached per algebra.
    A pair of more than ``MAX_SHUFFLE_LETTERS`` letters is refused.

    Cached dicts are shared and must never be mutated by callers.
    """
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    cache = alg.cache.get("shuffle")
    if cache is None:  # setdefault: two threads making the table keep one
        cache = alg.cache.setdefault("shuffle", {})
    key = (u, v)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if len(u) + len(v) > MAX_SHUFFLE_LETTERS:
        raise DomainError(
            f"the product of words of {len(u) + len(v)} letters together is over the "
            f"limit of {MAX_SHUFFLE_LETTERS}"
        )
    a, x = u[0], u[1:]
    b, y = v[0], v[1:]
    # Each branch puts its own head letter in front of distinct tails, so
    # words can collide only between branches with the same head: b is a,
    # or a letter of a.b is a or b. Only those are summed; the rest insert.
    acc = _prefixed(a, _shuffle_words(alg, x, v))
    branch = _prefixed(b, _shuffle_words(alg, u, y))
    if b is a:
        add_into(acc, branch.items())
    else:
        acc.update(branch)
    merged = _letter_product(alg, a, b)
    if merged:
        tails = _shuffle_words(alg, x, y)
        for letter, cl in merged:
            branch = _prefixed(letter, tails, cl)
            if letter is a or letter is b:
                add_into(acc, branch.items())
            else:
                acc.update(branch)
    cache[key] = acc
    return acc


def quasi_shuffle(alg: CoeffAlgebraSpec, x: TensorElement, y: TensorElement) -> TensorElement:
    """Quasi-shuffle product of two elements. Total; the empty word is a unit."""
    _check_element(alg, x)
    _check_element(alg, y)
    return bilinear(partial(_shuffle_words, alg), x, y)


# ---------------------------------------------------------------------------
# lattice-path oracle

_PATH_CACHE_LETTERS = 12  # longer pairs (up to D(9, 9) = 1,462,563 paths) stream
_NO_COEFFICIENTS = itemgetter(slice(0))


def _gather(indices: tuple[int, ...]) -> itemgetter:
    """An ``itemgetter`` that returns the tuple of items at ``indices``."""
    if len(indices) == 1:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices) if indices else _NO_COEFFICIENTS


def _compile_gathers(p: int, q: int, terms: int) -> Iterator[tuple]:
    """Each path to (p, q) by steps right, up and diagonal, in that order, with
    an entry of each letter product it crosses, as gathers of its word and
    coefficients from u + v, then ``terms`` entries of each u[i].v[j]."""
    todo = [(0, 0, (), ())]
    while todo:
        i, j, word, merged = todo.pop()
        if i < p and j < q:
            start = p + q + (i * q + j) * terms
            for entry in reversed(range(start, start + terms)):
                todo.append((i + 1, j + 1, word + (entry,), merged + (entry,)))
        if j < q:
            todo.append((i, j + 1, word + (p + j,), merged))
        if i < p:
            todo.append((i + 1, j, word + (i,), merged))
        elif j == q:
            yield _gather(word), _gather(merged)


@lru_cache(maxsize=273)
def _stored_gathers(p: int, q: int, terms: int) -> tuple[tuple, ...]:
    """``_compile_gathers`` for the 91 shapes of at most 12 letters and t <= 2,
    273 keys: t = 1 (the builtin algebras but zero) takes 20 MB, t = 2 75 MB."""
    return tuple(_compile_gathers(p, q, terms))


def quasi_shuffle_paths(alg: CoeffAlgebraSpec, u, v) -> TensorElement:
    """Independent quasi-shuffle of two words via lattice-path expansion."""
    u, v = tuple(u), tuple(v)
    _check_words(alg, (u, v))
    if not u and not v:
        return TensorElement.unit()
    columns = [_letter_product(alg, a, b) for a in u for b in v]
    p, q, terms = len(u), len(v), max(map(len, columns), default=0)
    padded = [column + ((None, 0),) * (terms - len(column)) for column in columns]
    letters, coefficients = zip(*chain(zip(u + v, repeat(1)), *padded))
    stored = p + q <= _PATH_CACHE_LETTERS and terms <= 2
    acc: dict[Word, Scalar] = {}
    for word_of, coefficients_of in (_stored_gathers if stored else _compile_gathers)(p, q, terms):
        word = word_of(letters)
        val = acc.get(word, 0) + prod(coefficients_of(coefficients))
        if val:
            acc[word] = val
        else:
            acc.pop(word, None)
    return TensorElement._raw(acc)


# ---------------------------------------------------------------------------
# the three partial operations


def _word_op_left(alg: CoeffAlgebraSpec, u: Word, v: Word) -> dict[Word, Scalar]:
    if not u:
        if not v:
            raise UnitPairingError("1 < 1 is not defined")
        return {}
    if not v:
        return {u: 1}
    return _prefixed(u[0], _shuffle_words(alg, u[1:], v))


def _word_op_right(alg: CoeffAlgebraSpec, u: Word, v: Word) -> dict[Word, Scalar]:
    if not v:
        return {}
    if not u:
        return {v: 1}
    return _prefixed(v[0], _shuffle_words(alg, u, v[1:]))


def _word_op_dot(alg: CoeffAlgebraSpec, u: Word, v: Word) -> dict[Word, Scalar]:
    if not u and not v:
        raise UnitPairingError("1 . 1 is not defined")
    if not u or not v:
        return {}
    merged = _letter_product(alg, u[0], v[0])
    if not merged:
        return {}
    tails = _shuffle_words(alg, u[1:], v[1:])
    # distinct (head letter, tail word) pairs give distinct words
    return {(letter,) + w: cl * c for letter, cl in merged for w, c in tails.items()}


def _bilinear(alg, word_op, x: TensorElement, y: TensorElement) -> TensorElement:
    _check_element(alg, x)
    _check_element(alg, y)
    if x.coefficient(EMPTY_WORD) and y.coefficient(EMPTY_WORD):
        raise UnitPairingError(
            "operation undefined: both arguments have a nonzero empty-word coefficient"
        )
    return bilinear(partial(word_op, alg), x, y)


def op_left(alg: CoeffAlgebraSpec, x: TensorElement, y: TensorElement) -> TensorElement:
    """x < y: the part of x * y whose first letter comes from x."""
    return _bilinear(alg, _word_op_left, x, y)


def op_right(alg: CoeffAlgebraSpec, x: TensorElement, y: TensorElement) -> TensorElement:
    """x > y: the part of x * y whose first letter comes from y."""
    return _bilinear(alg, _word_op_right, x, y)


def op_dot(alg: CoeffAlgebraSpec, x: TensorElement, y: TensorElement) -> TensorElement:
    """x . y: the part of x * y whose first letter merges both heads."""
    return _bilinear(alg, _word_op_dot, x, y)


OPERATIONS = {
    "left": op_left,
    "right": op_right,
    "dot": op_dot,
    "star": quasi_shuffle,
}


# ---------------------------------------------------------------------------
# deconcatenation coalgebra


def deconcatenate(x: TensorElement) -> TensorSquareElement:
    """Full deconcatenation coproduct, including the w (x) 1 and 1 (x) w ends."""
    # a split (w[:i], w[i:]) determines its word, so no two keys collide
    return TensorSquareElement._raw(
        {(w[:i], w[i:]): c for w, c in x.items() for i in range(len(w) + 1)}
    )


def reduced_coproduct(x: TensorElement) -> TensorSquareElement:
    """Deconcatenation with both trivial ends removed.

    Defined on the augmentation ideal only: a nonzero coefficient on the
    empty word raises ``DomainError``.
    """
    if x.coefficient(EMPTY_WORD):
        raise DomainError("reduced coproduct needs a zero empty-word coefficient")
    return TensorSquareElement._raw(
        {(w[:i], w[i:]): c for w, c in x.items() for i in range(1, len(w))}
    )


def is_primitive(x: TensorElement) -> bool:
    """True when the reduced coproduct vanishes (zero counts as primitive)."""
    return not reduced_coproduct(x)


def coradical_degree(x: TensorElement) -> int:
    """Least filtration stage containing x; equals the maximal word length.

    Stage 0 is the span of the empty word; stage r collects elements whose
    reduced coproduct lands in stage r-1 tensor stage r-1. For the word
    basis this is exactly the maximal length in the support.
    """
    return max(map(len, x._terms), default=0)


def involute_element(alg: CoeffAlgebraSpec, x: TensorElement) -> TensorElement:
    """Letterwise involution; tensor factor order is unchanged."""
    _check_element(alg, x)
    image = {a: involute_letter(alg, a) for a in set().union(*x._terms)}
    images = ((tuple([image[a] for a in w]), c) for w, c in x.items())
    # summed, since a user-supplied involution_rule is not checked to be injective
    return TensorElement._raw(add_into({}, images))

