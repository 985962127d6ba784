"""Exact-rational formal linear combinations over hashable basis keys.

Every algebraic object in this package (letter combinations, tensor
elements, tensor squares, normal forms, the vectors of ``rota``) is a
finite formal sum with exact coefficients: ``int`` where integral,
``fractions.Fraction`` otherwise, never ``float``. ``as_scalar`` turns an integral ``Fraction`` into an
``int`` on the way in; a ``Fraction`` is made only where something
divides (rational input, Gauss-Jordan, series arithmetic), and sums and
products of such coefficients may leave a ``Fraction`` with denominator
one, which compares and hashes equal to its ``int``. Zero coefficients are
never stored, so two combinations are equal exactly when their backing
dicts are equal; there is no float tolerance anywhere. A combination is
never changed once built (arithmetic returns a new one), so its canonical
order is computed once, by the first ``terms()`` call, and kept: text and
JSON rendering of one element share one sort. Tensor elements and squares
sort by letter ranks: the distinct letters of one combination are ranked
once by ``Letter.sort_key``, and a word compares as its length followed by
its ranks, the same order as ``tensorq.word_sort_key``. ``add_into`` is the
one sparse accumulator the kernels share, and ``bilinear`` the one
extension of a rule on basis pairs to whole combinations, which every
product of tensor elements, of tensor squares and of finite-algebra
vectors goes through.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping


Scalar = int | Fraction


def add_into(acc: dict, items: Iterable[tuple], scale: Scalar = 1) -> dict:
    """``acc += scale * items`` in place, for (key, coefficient) pairs.

    A key whose sum is 0 is removed, so a zero-free ``acc`` stays
    zero-free, and adding 0 to a missing key leaves it missing.
    Returns ``acc``.
    """
    get = acc.get
    for key, value in items:
        total = get(key, 0) + scale * value
        if total:
            acc[key] = total
        else:
            acc.pop(key, None)
    return acc


def bilinear(rule, x: LinearCombination, y: LinearCombination) -> LinearCombination:
    """The bilinear extension of ``rule``: the sum of ``cu * cv * rule(u, v)``.

    ``rule(u, v)`` maps a pair of basis keys to a zero-free mapping of
    keys to coefficients; the result has ``x``'s type.
    """
    acc: dict = {}
    pairs = y._terms.items()
    for u, cu in x._terms.items():
        for v, cv in pairs:
            add_into(acc, rule(u, v).items(), cu * cv)
    return type(x)._raw(acc)


def as_scalar(value: object) -> Scalar:
    """Keep an int, reduce an integral Fraction to int; reject anything inexact."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"exact rational scalar required, got {type(value).__name__}")


class LinearCombination:
    """A finite formal sum ``sum(c_k * k)`` with exact rational ``c_k``.

    Subclasses fix the total order on basis keys (``sort_key``) used for
    deterministic iteration and rendering. Arithmetic is defined between
    combinations of the same concrete type only; scalars multiply from
    either side.
    """

    __slots__ = ("_terms", "_sorted")

    def __init__(self, terms: Mapping | Iterable[tuple] = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms = add_into({}, ((key, as_scalar(value)) for key, value in items))
        self._sorted = None

    @classmethod
    def _raw(cls, data: dict) -> "LinearCombination":
        # internal fast path: data must already be zero-free with exact
        # values, and is owned by the new combination from then on
        out = cls.__new__(cls)
        out._terms = data
        out._sorted = None
        return out

    @staticmethod
    def sort_key(key):
        """Total order on basis keys; subclasses override."""
        return key

    @classmethod
    def _ordered(cls, terms: dict) -> list:
        """``terms.items()`` sorted by ``sort_key``; a subclass may sort
        into the same order by a cheaper key."""
        key = cls.sort_key
        return sorted(terms.items(), key=lambda kv: key(kv[0]))

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def basis(cls, key, coeff: Scalar = 1):
        c = as_scalar(coeff)
        return cls._raw({key: c} if c else {})

    def coefficient(self, key) -> Scalar:
        return self._terms.get(key, 0)

    def items(self):
        """Unordered (key, coefficient) view; use terms() for canonical order."""
        return self._terms.items()

    def terms(self) -> list:
        """Canonically ordered list of (key, coefficient) pairs, a new list
        per call; the order is computed on the first call only."""
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = type(self)._ordered(self._terms)
        return ordered.copy()

    def support(self) -> list:
        return [key for key, _ in self.terms()]

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.terms())

    def __contains__(self, key) -> bool:
        return key in self._terms

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # dict-backed, deliberately unhashable

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)._raw(add_into(dict(self._terms), other._terms.items()))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)._raw(add_into(dict(self._terms), other._terms.items(), -1))

    def __neg__(self):
        return type(self)._raw({k: -v for k, v in self._terms.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, LinearCombination):
            return NotImplemented
        c = as_scalar(scalar)
        if not c:
            return type(self)._raw({})
        return type(self)._raw({k: v * c for k, v in self._terms.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        body = ", ".join(f"{k!r}: {v}" for k, v in self.terms())
        return f"{type(self).__name__}({{{body}}})"
