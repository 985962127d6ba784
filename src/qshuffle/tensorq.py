"""Quasi-shuffle products and the deconcatenation coalgebra.

Words over a coefficient algebra's letters are plain tuples; the empty
tuple is the unit word. ``TensorElement`` is an exact-rational combination
of words, in ``word_sort_key`` order (length, then letter by letter): one
sort ranks the element's distinct letters, and each word compares as its
length followed by its ranks. Every operation first checks that the
letters of its arguments belong to the algebra; a letter accepted once is
kept in ``alg.cache["member"]`` and not checked again. The quasi-shuffle
product is defined by the recursion

    (a x) * (b y) = (a.b)(x * y) + a(x * (b y)) + b((a x) * y),

with the empty word as unit, where a.b is the letter product in the
coefficient algebra. An independent evaluator expands the same product as
a sum over lattice paths with unit steps right, up, and diagonal, where a
diagonal step multiplies the two letters it consumes; the two routes are
cross-checked in the test suite. The oracle takes the Delannoy paths of a
(p, q) pair from a cache (pairs with p + q <= 12; longer ones stream from
``enumerate_lattice_paths``), turns each step of a path into one column of
(letter, coefficient) choices, and expands the columns once into the
path's words. The two routes share only the letter product, which both
read from the per-algebra memo ``_letter_product``: it is input data, not
the rule under test. Neither route calls the other's code, and the oracle
calls neither ``add_into`` nor ``bilinear`` (a test reads this module's
source to keep it so).

The product splits into three partial operations

    x < y  (left:  keep the head of x),
    x > y  (right: keep the head of y),
    x . y  (dot:   multiply the heads),

whose unit conventions are  1<x = 0, x<1 = x, 1>x = x, x>1 = 0 and
1.x = 0 = x.1, while 1<1, 1>1 and 1.1 are undefined: applying a partial
operation to two elements that both have a nonzero coefficient on the
empty word raises ``UnitPairingError``.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain, product
from math import prod
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

from .coeff import (
    CoeffAlgebraSpec,
    CoeffCombination,
    Letter,
    _require_member,
    involute_letter,
)
from .coeff import DomainError
from .lincomb import LinearCombination, Scalar, add_into, bilinear

Word = tuple[Letter, ...]

EMPTY_WORD: Word = ()

# A path step consumes one letter of the first word, the second, or both.
LatticePath = tuple[tuple[int, int], ...]


class UnitPairingError(ValueError):
    """A partial operation was applied to a pair of units it is undefined on."""


def word_degree(word: Word) -> int:
    """Total degree: the sum of the letter degrees."""
    return sum(letter.degree for letter in word)


def word_sort_key(word: Word):
    """Length-then-letterwise total order on words."""
    return (len(word), tuple([letter.sort_key for letter in word]))


def _rank_ordered(terms: dict, pairs: bool) -> list:
    """``terms.items()`` in ``sort_key`` order, for keys that are words or,
    with ``pairs``, pairs of words.

    The distinct letters of all keys are ranked once by ``Letter.sort_key``,
    and a word compares as ``(len, *ranks)``, which orders words as
    ``word_sort_key`` does.
    """
    ranked = sorted(
        set().union(*(chain.from_iterable(terms) if pairs else terms)),
        key=attrgetter("sort_key"),
    )
    rank = dict(zip(ranked, range(len(ranked)))).__getitem__
    if pairs:
        def key(kv):
            u, v = kv[0]
            return (len(u), *map(rank, u), len(v), *map(rank, v))
    else:
        def key(kv):
            return (len(kv[0]), *map(rank, kv[0]))
    return sorted(terms.items(), key=key)


class TensorElement(LinearCombination):
    """Exact-rational combination of words over one coefficient algebra.

    Terms are ordered by ``word_sort_key``, computed from letter ranks.
    """

    sort_key = staticmethod(word_sort_key)

    @classmethod
    def _ordered(cls, terms: dict) -> list:
        return _rank_ordered(terms, pairs=False)

    @classmethod
    def from_word(cls, word, coeff: Scalar = 1) -> "TensorElement":
        return cls.basis(tuple(word), coeff)

    @classmethod
    def from_letter(cls, letter: Letter, coeff: Scalar = 1) -> "TensorElement":
        return cls.basis((letter,), coeff)

    @classmethod
    def unit(cls) -> "TensorElement":
        return cls.basis(EMPTY_WORD)

    def max_word_length(self) -> int:
        return max((len(w) for w in self._terms), default=0)


class TensorSquareElement(LinearCombination):
    """Exact-rational combination of pairs of words (a two-fold tensor).

    Terms are ordered by ``sort_key``, computed from letter ranks.
    """

    @staticmethod
    def sort_key(key: tuple[Word, Word]):
        return (word_sort_key(key[0]), word_sort_key(key[1]))

    @classmethod
    def _ordered(cls, terms: dict) -> list:
        return _rank_ordered(terms, pairs=True)

    @classmethod
    def from_pair(cls, left, right, coeff: Scalar = 1) -> "TensorSquareElement":
        return cls.basis((tuple(left), tuple(right)), coeff)


def _check_words(alg: CoeffAlgebraSpec, words) -> None:
    """Refuse the first letter of ``words`` outside ``alg``'s basis family.

    Letters already accepted are in ``alg.cache["member"]``, so the usual
    guard is one set test; otherwise each letter is checked in order.
    """
    known = alg.cache.setdefault("member", set())
    try:
        if known.issuperset(chain.from_iterable(words)):
            return
    except TypeError:  # an unhashable item, refused below
        pass
    for word in words:
        for letter in word:
            _require_member(alg, letter)


def _check_element(alg: CoeffAlgebraSpec, element: TensorElement) -> None:
    if not isinstance(element, TensorElement):
        raise TypeError(f"TensorElement expected, got {type(element).__name__}")
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


def _prefixed(head, terms: Mapping[tuple, Scalar]) -> Iterable[tuple[tuple, Scalar]]:
    """``terms`` with ``head`` put in front of every key, as pairs for
    ``add_into`` (a small dict is built faster by a comprehension)."""
    return zip(map((head,).__add__, terms), terms.values())


def _shuffle_words(alg: CoeffAlgebraSpec, u: Word, v: Word) -> Mapping[Word, Scalar]:
    """Word-level quasi-shuffle as a zero-free dict. Cached per algebra.

    Cached dicts are shared and must never be mutated by callers.
    """
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    cache = alg.cache.setdefault("shuffle", {})
    key = (u, v)
    hit = cache.get(key)
    if hit is not None:
        return hit
    a, x = u[0], u[1:]
    b, y = v[0], v[1:]
    # distinct tails give distinct words, so the a-branch needs no sums
    acc = {(a,) + w: c for w, c in _shuffle_words(alg, x, v).items()}
    add_into(acc, _prefixed(b, _shuffle_words(alg, u, y)))
    merged = _letter_product(alg, a, b)
    if merged:
        tails = _shuffle_words(alg, x, y)
        for letter, cl in merged:
            add_into(acc, _prefixed(letter, tails), cl)
    cache[key] = acc
    return acc


def quasi_shuffle(alg: CoeffAlgebraSpec, x: TensorElement, y: TensorElement) -> TensorElement:
    """Quasi-shuffle product of two elements. Total; the empty word is a unit."""
    _check_element(alg, x)
    _check_element(alg, y)
    return bilinear(partial(_shuffle_words, alg), x, y)


# ---------------------------------------------------------------------------
# lattice-path oracle

_STEP_FIRST = (1, 0)
_STEP_SECOND = (0, 1)
_STEP_BOTH = (1, 1)


def enumerate_lattice_paths(p: int, q: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All step sequences from (0,0) to (p,q) over right, up and diagonal.

    A (1,0) step consumes a letter of the first word, (0,1) one of the
    second, (1,1) one of each. Path counts are the Delannoy numbers.
    """
    if p < 0 or q < 0:
        raise ValueError("path endpoints need nonnegative coordinates")
    if p == 0 and q == 0:
        yield ()
        return
    if p > 0:
        for rest in enumerate_lattice_paths(p - 1, q):
            yield (_STEP_FIRST,) + rest
    if q > 0:
        for rest in enumerate_lattice_paths(p, q - 1):
            yield (_STEP_SECOND,) + rest
    if p > 0 and q > 0:
        for rest in enumerate_lattice_paths(p - 1, q - 1):
            yield (_STEP_BOTH,) + rest


# Paths of a pair with p + q <= _PATH_CACHE_LETTERS are kept as tuples: at
# most D(6, 6) = 8,989 paths for one pair, and 91 pairs. Longer pairs (up to
# D(9, 9) = 1,462,563 paths) stream from the generator instead.
_PATH_CACHE_LETTERS = 12


@lru_cache(maxsize=None)
def _cached_paths(p: int, q: int) -> tuple[LatticePath, ...]:
    return tuple(enumerate_lattice_paths(p, q))


def _lattice_paths(p: int, q: int) -> Iterable[LatticePath]:
    if p + q > _PATH_CACHE_LETTERS:
        return enumerate_lattice_paths(p, q)
    return _cached_paths(p, q)


def _path_word_terms(
    alg: CoeffAlgebraSpec, steps, u: Word, v: Word
) -> dict[Word, Scalar]:
    """Words contributed by one path; a zero letter product kills the path.

    Each step gives one column of (letter, coefficient) choices, and the
    path's words are the choices of one entry per column.
    """
    columns = []
    i = j = 0
    for step in steps:
        if step == _STEP_FIRST:
            columns.append(((u[i], 1),))
            i += 1
        elif step == _STEP_SECOND:
            columns.append(((v[j], 1),))
            j += 1
        else:
            merged = _letter_product(alg, u[i], v[j])
            if not merged:
                return {}
            columns.append(merged)
            i += 1
            j += 1
    # distinct choices give distinct words
    return {
        tuple([letter for letter, _ in choice]): prod([c for _, c in choice])
        for choice in product(*columns)
    }


def quasi_shuffle_paths(alg: CoeffAlgebraSpec, u, v) -> TensorElement:
    """Independent quasi-shuffle of two words via lattice-path expansion."""
    u = tuple(u)
    v = tuple(v)
    _check_words(alg, (u, v))
    acc: dict[Word, Scalar] = {}
    for steps in _lattice_paths(len(u), len(v)):
        for w, c in _path_word_terms(alg, steps, u, v).items():
            val = acc.get(w, 0) + c
            if val:
                acc[w] = val
            else:
                del acc[w]
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
    head, tail = u[0], u[1:]
    return {(head,) + w: c for w, c in _shuffle_words(alg, tail, v).items()}


def _word_op_right(alg: CoeffAlgebraSpec, u: Word, v: Word) -> dict[Word, Scalar]:
    if not v:
        if not u:
            raise UnitPairingError("1 > 1 is not defined")
        return {}
    if not u:
        return {v: 1}
    head, tail = v[0], v[1:]
    return {(head,) + w: c for w, c in _shuffle_words(alg, u, tail).items()}


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
    return reduced_coproduct(x).is_zero


def coradical_degree(x: TensorElement) -> int:
    """Least filtration stage containing x; equals the maximal word length.

    Stage 0 is the span of the empty word; stage r collects elements whose
    reduced coproduct lands in stage r-1 tensor stage r-1. For the word
    basis this is exactly the maximal length in the support.
    """
    return x.max_word_length()


def project_to_letters(x: TensorElement) -> CoeffCombination:
    """Corestriction onto the letter component (length-one words)."""
    return CoeffCombination(
        (w[0], c) for w, c in x.items() if len(w) == 1
    )


def involute_element(alg: CoeffAlgebraSpec, x: TensorElement) -> TensorElement:
    """Letterwise involution; tensor factor order is unchanged."""
    _check_element(alg, x)
    image = {a: involute_letter(alg, a) for a in set().union(*x._terms)}
    images = ((tuple([image[a] for a in w]), c) for w, c in x.items())
    # summed, since a user-supplied involution_rule is not checked to be injective
    return TensorElement._raw(add_into({}, images))

