"""Nonunital coefficient algebras and their basis letters.

A coefficient algebra is a rational algebra, not required to be unital,
given by a distinguished basis of graded "letters" and a bilinear product
described on that basis. Words over these letters span the tensor module
on which the quasi-shuffle product lives (see ``tensorq``).

Builtin families:

* ``zero``       - atoms a..z with the zero product (shuffle regime),
* ``stuffle-y``  - one letter y_k per degree k >= 1, y_k * y_l = y_{k+l},
* ``sym(n)``     - nonempty monomials (multisets) in n generators, product
                   is multiset union (free commutative nonunital algebra),
* ``word(n)``    - nonempty words in n generators, product is concatenation
                   (free associative nonunital algebra), reversal involution.

A letter of ``sym(n)`` is a sorted nonempty tuple over 1..n, one of
``word(n)`` any such tuple, and the rest follows, so one cached builder,
keyed by letter kind and n, makes both: one algebra object per family and n.

No package code calls ``builtin_algebras`` or ``multiply_letters``: the tests
sweep the first, and check ``laws.LETTER_PRODUCT`` with the second.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement, product as iter_product
from typing import Callable

from .lincomb import LinearCombination


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class LetterDomainError(DomainError):
    """A letter does not belong to the algebra's basis family."""


class MissingInvolutionError(ValueError):
    """The algebra does not declare an involution."""


def _positive_int(value) -> bool:
    """An ``int`` of at least 1. ``bool`` is refused: ``True == 1``, so an
    interned letter or cached algebra keyed on it would print ``True``."""
    return type(value) is int and value >= 1


def _validate(kind: str, payload) -> None:
    if kind == "atom":
        if not isinstance(payload, str) or not payload:
            raise ValueError("atom letter needs a nonempty name")
    elif kind == "weight":
        if not _positive_int(payload):
            raise ValueError("weight letter needs a positive integer")
    elif kind in ("mono", "word"):
        ok = isinstance(payload, tuple) and payload and all(map(_positive_int, payload))
        if not ok:
            raise ValueError(f"{kind} letter needs a nonempty tuple of positive ints")
        if kind == "mono" and tuple(sorted(payload)) != payload:
            raise ValueError("mono letter payload must be sorted ascending")
    else:
        raise ValueError(f"unknown letter kind {kind!r}")


def _derived(kind: str, payload) -> tuple[int, tuple, str]:
    """``(degree, sort_key, text)`` of a valid letter."""
    if kind == "weight":
        degree, text = payload, f"y{payload}"
    elif kind == "atom":
        degree, text = 1, payload
    elif len(payload) == 1:
        degree, text = 1, f"x{payload[0]}"
    else:
        body = " ".join(f"x{i}" for i in payload)
        degree, text = len(payload), f"[{body}]" if kind == "mono" else f"({body})"
    key_payload = payload if isinstance(payload, tuple) else (payload,)
    return degree, (degree, kind, key_payload), text


class _Frozen:
    """Base of the immutable classes: a subclass fills its own ``__slots__``
    once, in ``__init__`` or ``__new__`` (``_set_slots`` sets them in order),
    and every later assignment or deletion raises ``AttributeError``."""

    __slots__ = ()

    def _set_slots(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} objects are immutable")

    __delattr__ = __setattr__


# (kind, payload) -> the one Letter with that value; see Letter
_LETTERS: dict[tuple, "Letter"] = {}


class Letter(_Frozen):
    """One basis letter of a coefficient algebra.

    kind/payload combinations:
      atom    str name            degree 1
      mono    sorted int tuple    degree = multiset size
      word    int tuple           degree = length
      weight  int k >= 1          degree k

    Letters are interned: every construction returns the one shared object
    for its value, so equality and hashing are object identity's, which
    cost no Python call at a dict probe. The degree, the
    degree-lexicographic ``sort_key`` (a total order stable across kinds)
    and the rendered ``text`` are computed once, when a letter is first
    built. Pickling and copying go back through the constructor and so
    return the shared object of the receiving process.
    """

    __slots__ = ("kind", "payload", "degree", "sort_key", "text")

    def __new__(cls, kind: str, payload: str | int | tuple[int, ...]) -> "Letter":
        _validate(kind, payload)
        letter = _LETTERS.get((kind, payload))
        if letter is None:
            degree, sort_key, text = _derived(kind, payload)
            letter = object.__new__(cls)
            letter._set_slots(kind, payload, degree, sort_key, text)
            # Threads may build the same new letter at once; setdefault is
            # atomic, so all of them return whichever copy was stored first.
            letter = _LETTERS.setdefault((kind, payload), letter)
        return letter

    def __reduce__(self):
        return (Letter, (self.kind, self.payload))

    def __lt__(self, other) -> bool:
        if not isinstance(other, Letter):
            return NotImplemented
        return self.sort_key < other.sort_key

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Letter(kind={self.kind!r}, payload={self.payload!r})"


def _interned_letter(kind: str, payload) -> Letter:
    """``Letter(kind, payload)`` for a payload the caller has already
    validated: the interned letter is looked up, and the constructor runs
    only on a miss. ``Letter`` itself validates before its lookup, since a
    bool payload hashes equal to its int twin, so a lookup first would
    accept ``weight_letter(True)`` once ``y1`` exists."""
    letter = _LETTERS.get((kind, payload))
    return Letter(kind, payload) if letter is None else letter


def atom_letter(name: str) -> Letter:
    return Letter("atom", name)


def mono_letter(indices) -> Letter:
    """Multiset letter; the payload is sorted into canonical form."""
    return Letter("mono", tuple(sorted(indices)))


def word_letter(indices) -> Letter:
    return Letter("word", tuple(indices))


def weight_letter(k: int) -> Letter:
    return Letter("weight", k)


class CoeffCombination(LinearCombination):
    """Exact-rational combination of letters (an element of the algebra)."""

    @staticmethod
    def sort_key(key: Letter):
        return key.sort_key


# The memo tables of an algebra's ``cache``, by name, with their types.
_TABLES = {"member": set, "letter": dict, "shuffle": dict, "generator": dict, "primitive": dict}


@dataclass(frozen=True, eq=False)
class CoeffAlgebraSpec:
    """A coefficient algebra described on its distinguished basis.

    ``product_rule`` gives the bilinear product on basis letters,
    ``member_rule`` the basis-family membership test, ``degree_slice`` the
    finite list of basis letters of one degree (used by samplers and by
    exhaustive checks; the builtin algebras build each degree once, since
    samplers ask for it at every letter they draw). ``involution_rule`` is
    optional; when present it must be a degree-preserving anti-automorphism
    with square one.

    ``product_rule`` and ``member_rule`` must be pure functions of their
    letters: their results are memoised. ``cache`` holds one memo table per
    name of ``_TABLES``, made when the spec is built: ``"member"`` is the
    set of letters ``member_rule`` has accepted, so it runs once per
    distinct letter and a guard over many letters is one set test;
    ``"shuffle"`` maps a word pair to its quasi-shuffle and ``"letter"`` a
    letter pair to its product as (letter, coefficient) pairs;
    ``"generator"`` and ``"primitive"`` map a generator index to the image
    ``freectd``'s fold gives it, marked as built in this algebra. A copy
    made with ``dataclasses.replace(spec, cache={})`` is cold, with tables
    of its own; a copy that does not pass ``cache`` shares the original's,
    and walks the images marked for the original. Results stored there are
    never mutated, so concurrent readers at worst recompute an identical
    value.
    """

    name: str
    letter_style: str  # which Letter kind this algebra's basis uses
    product_rule: Callable[[Letter, Letter], CoeffCombination]
    member_rule: Callable[[Letter], bool]
    degree_slice: Callable[[int], tuple[Letter, ...]]
    involution_rule: Callable[[Letter], Letter] | None = None
    cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for name, table in _TABLES.items():
            self.cache.setdefault(name, table())

    def __contains__(self, letter: Letter) -> bool:
        if not isinstance(letter, Letter):
            return False
        known = self.cache["member"]
        if letter not in known and self.member_rule(letter):
            known.add(letter)
        return letter in known

    def __repr__(self) -> str:
        return f"CoeffAlgebraSpec({self.name!r})"


def _require_member(alg: CoeffAlgebraSpec, letter: Letter) -> None:
    if letter not in alg:
        raise LetterDomainError(f"letter {letter} is not in the basis family of {alg.name}")


def multiply_letters(alg: CoeffAlgebraSpec, a: Letter, b: Letter) -> CoeffCombination:
    """Product of two basis letters as a combination of letters."""
    _require_member(alg, a)
    _require_member(alg, b)
    return alg.product_rule(a, b)


def involute_letter(alg: CoeffAlgebraSpec, a: Letter) -> Letter:
    """Apply the algebra's involution to one letter."""
    if alg.involution_rule is None:
        raise MissingInvolutionError(f"algebra {alg.name} declares no involution")
    _require_member(alg, a)
    return alg.involution_rule(a)


_ATOM_NAMES = tuple("abcdefghijklmnopqrstuvwxyz")


@lru_cache(maxsize=None)
def zero_algebra() -> CoeffAlgebraSpec:
    """Atoms a..z with identically zero product.

    With a zero product every diagonal path contribution dies, so the
    quasi-shuffle product collapses to the plain shuffle product.
    """

    def product(a: Letter, b: Letter) -> CoeffCombination:
        return CoeffCombination()

    def member(letter: Letter) -> bool:
        return letter.kind == "atom" and letter.payload in _ATOM_NAMES

    @lru_cache(maxsize=None)
    def slice_(degree: int) -> tuple[Letter, ...]:
        if degree != 1:
            return ()
        return tuple(atom_letter(c) for c in _ATOM_NAMES)

    return CoeffAlgebraSpec(
        name="zero",
        letter_style="atom",
        product_rule=product,
        member_rule=member,
        degree_slice=slice_,
        involution_rule=None,
    )


@lru_cache(maxsize=None)
def stuffle_y_algebra() -> CoeffAlgebraSpec:
    """One letter y_k per degree k >= 1 with y_k * y_l = y_{k+l}."""

    def product(a: Letter, b: Letter) -> CoeffCombination:
        return CoeffCombination.basis(weight_letter(a.payload + b.payload))

    def member(letter: Letter) -> bool:
        return letter.kind == "weight"

    @lru_cache(maxsize=None)
    def slice_(degree: int) -> tuple[Letter, ...]:
        return (weight_letter(degree),)

    return CoeffAlgebraSpec(
        name="stuffle-y",
        letter_style="weight",
        product_rule=product,
        member_rule=member,
        degree_slice=slice_,
        involution_rule=lambda letter: letter,
    )


def sym_algebra(n: int) -> CoeffAlgebraSpec:
    """Nonempty monomials in n generators; product is multiset union."""
    return _generated_algebra("mono", n)


def word_algebra(n: int) -> CoeffAlgebraSpec:
    """Nonempty words in n generators; product is concatenation.

    Commutative only in the single-generator case. The involution reverses
    each word letter.
    """
    return _generated_algebra("word", n)


@lru_cache(maxsize=None, typed=True)
def _generated_algebra(kind: str, n: int) -> CoeffAlgebraSpec:
    """sym(n) for ``kind`` "mono", word(n) for "word". The cache is typed:
    ``True == 1`` and ``2.0 == 2``, so an untyped key would hand out a
    cached algebra for an argument the check below refuses."""
    sym = kind == "mono"
    family, make = ("sym", mono_letter) if sym else ("word", word_letter)
    if not _positive_int(n):
        raise ValueError(f"{family} algebra needs at least one generator")

    def product(a: Letter, b: Letter) -> CoeffCombination:
        return CoeffCombination.basis(make(a.payload + b.payload))

    def member(letter: Letter) -> bool:
        return letter.kind == kind and all(1 <= i <= n for i in letter.payload)

    @lru_cache(maxsize=None)
    def slice_(degree: int) -> tuple[Letter, ...]:
        generators = range(1, n + 1)
        if sym:
            return tuple(map(make, combinations_with_replacement(generators, degree)))
        return tuple(map(make, iter_product(generators, repeat=degree)))

    return CoeffAlgebraSpec(
        name=f"{family}{n}",
        letter_style=kind,
        product_rule=product,
        member_rule=member,
        degree_slice=slice_,
        involution_rule=(lambda a: a) if sym else (lambda a: word_letter(a.payload[::-1])),
    )


def builtin_algebras() -> list[CoeffAlgebraSpec]:
    """Representative builtin algebras, one spec object per name."""
    return [
        zero_algebra(),
        stuffle_y_algebra(),
        sym_algebra(2),
        sym_algebra(3),
        word_algebra(2),
        word_algebra(3),
    ]


_NAME_RE = re.compile(r"^(sym|word)([1-9]\d*)$", re.ASCII)  # \d alone takes any Unicode digit

# Samplers and exhaustive checks build every letter of degree <= 2 first,
# about n**2 of them, so a named symN or wordN has at most this many
# generators (word32: 1,056 letters).
MAX_GENERATORS = 32


def algebra_by_name(name: str) -> CoeffAlgebraSpec:
    """Resolve a CLI-style algebra name: zero, stuffle-y, symN, wordN."""
    if name == "zero":
        return zero_algebra()
    if name == "stuffle-y":
        return stuffle_y_algebra()
    m = _NAME_RE.match(name)
    if m:
        family, n = m.group(1), int(m.group(2))
        if n > MAX_GENERATORS:
            raise ValueError(
                f"algebra {name!r} has {n} generators; at most {MAX_GENERATORS} are supported"
            )
        return sym_algebra(n) if family == "sym" else word_algebra(n)
    raise ValueError(
        f"unknown algebra {name!r}; expected zero, stuffle-y, sym<n> or word<n>"
    )
