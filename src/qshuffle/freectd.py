"""Free tridendriform terms, normal-form rewriting, and dimension counts.

Terms are binary trees over generators with node operations left (<),
right (>) and dot (.). The commutative signature (CTD) uses < and . only;
a term containing > is rejected by the CTD entry points with
``SignatureError``.

Rewriting orients the three commutative-tridendriform relations

    (x < y) < z  =  x < (y < z + z < y + y . z)
    (x . y) < z  =  x . (y < z)
    (x . y) . z  =  x . (y . z)

together with commutativity of the dot into a terminating procedure whose
output is an exact-rational combination of right combs

    m1 < (m2 < ( ... < mk))

in which every m_j is a dot-monomial with ascending generator indices.
Such a comb is recorded as its block sequence (m1, ..., mk), so a normal
form is a combination of ordered block sequences. The engine is purely
syntactic: it never evaluates into the tensor module, which keeps it an
independent cross-check against ``eval_ctd``.

Multilinear block sequences are the ordered set partitions counted by the
Fubini numbers 1, 3, 13, 75, 541, 4683, ...; the module also verifies
their exponential generating function (exp(x) - 1)/(2 - exp(x)) by exact
truncated series arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, combinations, permutations
from math import comb as binomial, factorial
from typing import Iterator

from .coeff import (
    CoeffAlgebraSpec,
    DomainError,
    Letter,
    mono_letter,
    multiply_letters,
    sym_algebra,
    word_algebra,
)
from .lincomb import LinearCombination, Scalar, add_into
from .tensorq import TensorElement, op_dot, op_left, op_right


class SignatureError(ValueError):
    """A term uses an operation its signature does not provide."""


_OP_SYMBOL = {"prec": "<", "succ": ">", "dot": "."}

# Deepest nesting a free term may have. Rewriting, evaluation and the
# coproduct recurse once per level, so a deeper term is refused when it is
# built, leaving room below the interpreter's recursion limit for the
# caller's own frames.
MAX_TERM_DEPTH = 500


@dataclass(frozen=True, eq=False, repr=False)
class FreeTerm:
    """A generator leaf or a binary operation node.

    ``depth`` is 0 for a generator and one more than the deeper child for
    a node; a term deeper than ``MAX_TERM_DEPTH`` cannot be built. ``text``
    is the term in the parser's grammar, built once from the children's
    text. The grammar is unambiguous, so equal text means equal trees, and
    equality, hashing and printing all use it without recursing.
    """

    op: str
    index: int = 0
    left: "FreeTerm | None" = None
    right: "FreeTerm | None" = None
    depth: int = field(init=False)
    text: str = field(init=False)

    def __post_init__(self) -> None:
        if self.op == "gen":
            if self.index < 1 or self.left is not None or self.right is not None:
                raise ValueError("generator leaf needs a positive index and no children")
            depth = 0
            text = chr(ord("a") + self.index - 1) if self.index <= 26 else f"g{self.index}"
        elif self.op in _OP_SYMBOL:
            if self.left is None or self.right is None:
                raise ValueError(f"{self.op} node needs two children")
            depth = 1 + max(self.left.depth, self.right.depth)
            if depth > MAX_TERM_DEPTH:
                raise ValueError(f"terms nest deeper than {MAX_TERM_DEPTH} levels")
            text = f"({self.left.text} {_OP_SYMBOL[self.op]} {self.right.text})"
        else:
            raise ValueError(f"unknown term operation {self.op!r}")
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "text", text)

    def __eq__(self, other):
        if not isinstance(other, FreeTerm):
            return NotImplemented
        return self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"FreeTerm({self.text!r})"

    @property
    def degree(self) -> int:
        if self.op == "gen":
            return 1
        return self.left.degree + self.right.degree

    @property
    def is_ctd(self) -> bool:
        """True when no right (>) node occurs anywhere in the tree."""
        if self.op == "gen":
            return True
        if self.op == "succ":
            return False
        return self.left.is_ctd and self.right.is_ctd

    def generators(self) -> tuple[int, ...]:
        """Generator indices in left-to-right leaf order."""
        if self.op == "gen":
            return (self.index,)
        return self.left.generators() + self.right.generators()


def gen(index: int) -> FreeTerm:
    return FreeTerm("gen", index=index)


def prec(left: FreeTerm, right: FreeTerm) -> FreeTerm:
    return FreeTerm("prec", left=left, right=right)


def succ(left: FreeTerm, right: FreeTerm) -> FreeTerm:
    return FreeTerm("succ", left=left, right=right)


def dot(left: FreeTerm, right: FreeTerm) -> FreeTerm:
    return FreeTerm("dot", left=left, right=right)


# ---------------------------------------------------------------------------
# normal forms

Block = tuple[int, ...]
BlockSequence = tuple[Block, ...]


class NormalForm(LinearCombination):
    """Combination of ordered block sequences (right combs of dot-monomials)."""

    @staticmethod
    def sort_key(key: BlockSequence):
        return (sum(len(block) for block in key), key)

    def to_element(self) -> TensorElement:
        """The tensor-module element the combs evaluate to: one word per comb."""
        blocks = dict.fromkeys(chain.from_iterable(self._terms))
        letter = {block: mono_letter(block) for block in blocks}
        return TensorElement(
            (tuple([letter[block] for block in seq]), c) for seq, c in self.items()
        )

    def to_free_terms(self) -> list[tuple[FreeTerm, Scalar]]:
        """Reconstruct each comb as a term tree, canonically ordered."""
        return [(comb_term(seq), c) for seq, c in self.terms()]


def _dot_monomial(block: Block) -> FreeTerm:
    return reduce(lambda acc, i: dot(gen(i), acc), reversed(block[:-1]), gen(block[-1]))


def comb_term(blocks: BlockSequence) -> FreeTerm:
    """The right comb m1 < (m2 < (... < mk)) over dot-monomial blocks."""
    if not blocks:
        raise ValueError("a comb needs at least one block")
    monomials = [_dot_monomial(block) for block in blocks]
    return reduce(lambda acc, m: prec(m, acc), reversed(monomials[:-1]), monomials[-1])


# Rewriting works on a canonicalized nested-tuple encoding:
#   ("b", block)        dot-monomial, block sorted ascending
#   ("p", left, right)  left operation node
#   ("d", factors)      dot product, factors flattened/sorted, blocks merged,
#                       at least one non-block factor present
# Dot associativity and commutativity are applied eagerly by _rdot, so a
# "d" node always has 2+ factors of which at most one is a block.


def _rdot(parts) -> tuple:
    block: tuple[int, ...] = ()
    rest: list[tuple] = []
    for part in parts:
        if part[0] == "b":
            block = tuple(sorted(block + part[1]))
        elif part[0] == "d":
            for sub in part[1]:
                if sub[0] == "b":
                    block = tuple(sorted(block + sub[1]))
                else:
                    rest.append(sub)
        else:
            rest.append(part)
    if not rest:
        return ("b", block)
    if block:
        rest.append(("b", block))
    rest.sort()
    if len(rest) == 1:
        return rest[0]
    return ("d", tuple(rest))


def _encode(term: FreeTerm) -> tuple:
    if term.op == "gen":
        return ("b", (term.index,))
    if term.op == "prec":
        return ("p", _encode(term.left), _encode(term.right))
    return _rdot((_encode(term.left), _encode(term.right)))


def _pull_prec(factors) -> tuple:
    """Pull one < factor of a dot product to the top:
    (w1 < w2) . rest = (w1 . rest) < w2."""
    w = next(f for f in factors if f[0] == "p")
    rest = list(factors)
    rest.remove(w)
    return ("p", _rdot([w[1]] + rest), w[2])


_NF_CACHE: dict[tuple, dict[BlockSequence, Scalar]] = {}


def _norm(rt: tuple) -> dict[BlockSequence, Scalar]:
    """Normal form of one encoded term. Cached; results are never mutated."""
    hit = _NF_CACHE.get(rt)
    if hit is not None:
        return hit
    tag = rt[0]
    if tag == "b":
        out = {(rt[1],): 1}
    elif tag == "d":
        out = _norm(_pull_prec(rt[1]))
    else:
        x, y = rt[1], rt[2]
        if x[0] == "b":
            # prepending a block keeps distinct sequences distinct
            block = x[1]
            out = {(block,) + seq: c for seq, c in _norm(y).items()}
        elif x[0] == "p":
            # (x1 < x2) < y = x1 < (x2 < y) + x1 < (y < x2) + x1 < (x2 . y)
            x1, x2 = x[1], x[2]
            out = {}
            add_into(out, _norm(("p", x1, ("p", x2, y))).items())
            add_into(out, _norm(("p", x1, ("p", y, x2))).items())
            add_into(out, _norm(("p", x1, _rdot([x2, y]))).items())
        else:
            # dot head with a < inside: rotate it, then the new head is a
            # < node and the branch above applies
            out = _norm(("p", _pull_prec(x[1]), y))
    _NF_CACHE[rt] = out
    return out


def normal_form(term: FreeTerm) -> NormalForm:
    """Rewrite a CTD term to its combination of right combs."""
    if not term.is_ctd:
        raise SignatureError("normal-form rewriting is defined for CTD terms only")
    return NormalForm(_norm(_encode(term)))


# ---------------------------------------------------------------------------
# evaluation into the tensor module

_CTD_OPS = {"prec": op_left, "dot": op_dot}
_ITD_OPS = {"prec": op_left, "succ": op_right, "dot": op_dot}


def _generator_letter(alg: CoeffAlgebraSpec, index: int) -> Letter:
    """Generator ``index`` as the degree-one letter of ``alg``'s own kind."""
    letter = Letter(alg.letter_style, (index,))
    if letter not in alg:
        raise DomainError(f"generator index {index} exceeds the generator count of {alg.name}")
    return letter


def fold_term(term: FreeTerm, alg: CoeffAlgebraSpec, leaf, ops):
    """The map out of the free algebra fixed by where the generators go.

    A generator goes to ``leaf(letter)``; a node applies
    ``ops[op](alg, left, right)`` to its children's images.
    """
    if term.op == "gen":
        return leaf(_generator_letter(alg, term.index))
    left = fold_term(term.left, alg, leaf, ops)
    return ops[term.op](alg, left, fold_term(term.right, alg, leaf, ops))


def eval_ctd(term: FreeTerm, n_generators: int) -> TensorElement:
    """Evaluate a CTD term in the quasi-shuffle algebra over sym(n).

    Generators map to the length-one words on the degree-one monomial
    letters; < and . map to the partial operations. Equality of free
    elements is defined as equality of these images.
    """
    if not term.is_ctd:
        raise SignatureError("eval_ctd is defined for CTD terms only")
    alg = sym_algebra(n_generators)
    return fold_term(term, alg, TensorElement.from_letter, _CTD_OPS)


def eval_itd(term: FreeTerm, n_generators: int) -> TensorElement:
    """Evaluate a tridendriform term in the quasi-shuffle algebra over word(n)."""
    alg = word_algebra(n_generators)
    return fold_term(term, alg, TensorElement.from_letter, _ITD_OPS)


def involute_term(term: FreeTerm) -> FreeTerm:
    """The anti-involution: fixes generators, swaps < with >, flips arguments."""
    if term.op == "gen":
        return term
    left = involute_term(term.left)
    right = involute_term(term.right)
    if term.op == "prec":
        return succ(right, left)
    if term.op == "succ":
        return prec(right, left)
    return dot(right, left)


# ---------------------------------------------------------------------------
# partition enumeration and counting

MAX_CTD_ENUMERATION = 8
MAX_ITD_ENUMERATION = 6


def ordered_unordered_partitions(n: int) -> list[BlockSequence]:
    """Ordered sequences of disjoint unordered blocks partitioning {1..n}."""
    if not 1 <= n <= MAX_CTD_ENUMERATION:
        raise ValueError(
            f"ordered-partition enumeration supports 1 <= n <= {MAX_CTD_ENUMERATION}, got {n}"
        )

    def rec(elems: tuple[int, ...]) -> Iterator[BlockSequence]:
        if not elems:
            yield ()
            return
        for k in range(1, len(elems) + 1):
            for block in combinations(elems, k):
                remaining = tuple(e for e in elems if e not in block)
                for rest in rec(remaining):
                    yield (block,) + rest

    return list(rec(tuple(range(1, n + 1))))


def ordered_ordered_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Ordered sequences of disjoint ordered blocks partitioning {1..n}.

    Every (permutation, cut set) pair gives exactly one such sequence, so
    there are 2**(n-1) * n! of them.
    """
    if not 1 <= n <= MAX_ITD_ENUMERATION:
        raise ValueError(
            f"ordered-block enumeration supports 1 <= n <= {MAX_ITD_ENUMERATION}, got {n}"
        )
    out = []
    for perm in permutations(range(1, n + 1)):
        for mask in range(1 << (n - 1)):
            blocks = []
            start = 0
            for gap in range(n - 1):
                if mask >> gap & 1:
                    blocks.append(perm[start : gap + 1])
                    start = gap + 1
            blocks.append(perm[start:])
            out.append(tuple(blocks))
    return out


@lru_cache(maxsize=None)
def fubini(n: int) -> int:
    """Number of ordered set partitions of an n-set, by the binomial recurrence."""
    if n < 0:
        raise ValueError("fubini is defined for n >= 0")
    if n == 0:
        return 1
    return sum(binomial(n, k) * fubini(n - k) for k in range(1, n + 1))


def itd_dimension(n: int) -> int:
    """Multilinear dimension of the free tridendriform-with-involution algebra."""
    if n < 1:
        raise ValueError("itd_dimension is defined for n >= 1")
    return (1 << (n - 1)) * factorial(n)


# ---------------------------------------------------------------------------
# exact generating-series cross-check

MAX_SERIES_ORDER = 12


def _series_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def _series_div(num: list[Fraction], den: list[Fraction], order: int) -> list[Fraction]:
    if den[0] != 1:
        raise ValueError("series division requires a denominator with constant term 1")
    out = [Fraction(0)] * (order + 1)
    for k in range(order + 1):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, k + 1):
            dj = den[j] if j < len(den) else Fraction(0)
            acc -= dj * out[k - j]
        out[k] = acc
    return out


def _series_compose(outer: list[Fraction], inner: list[Fraction], order: int) -> list[Fraction]:
    if inner[0] != 0:
        raise ValueError("series composition requires a zero constant term inside")
    acc = [Fraction(0)] * (order + 1)
    for k in range(order, -1, -1):
        acc = _series_mul(acc, inner, order)
        if k < len(outer):
            acc[0] += outer[k]
    return acc


def _exp_minus_one(order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    fact = 1
    for k in range(1, order + 1):
        fact *= k
        out[k] = Fraction(1, fact)
    return out


def fubini_egf_series(order: int) -> list[Fraction]:
    """Truncated series of (exp(x) - 1)/(2 - exp(x)) by exact division."""
    if not 1 <= order <= MAX_SERIES_ORDER:
        raise ValueError(f"series order must satisfy 1 <= order <= {MAX_SERIES_ORDER}")
    num = _exp_minus_one(order)
    den = [Fraction(1)] + [-c for c in num[1:]]  # 2 - exp(x) = 1 - (exp(x) - 1)
    return _series_div(num, den, order)


def generating_series_check(order: int) -> bool:
    """Three independent routes to the same coefficients.

    Compares the closed-form series, the composition of x/(1-x) with
    exp(x) - 1, and the binomial recurrence values divided by factorials.
    """
    closed = fubini_egf_series(order)
    geometric = [Fraction(0)] + [Fraction(1)] * order  # x/(1-x) truncated
    composed = _series_compose(geometric, _exp_minus_one(order), order)
    fact = 1
    recurrence = [Fraction(0)]
    for k in range(1, order + 1):
        fact *= k
        recurrence.append(Fraction(fubini(k), fact))
    return closed == composed == recurrence


# ---------------------------------------------------------------------------
# multilinear terms and the enveloping presentation


def multilinear_terms(n: int, include_succ: bool = False) -> Iterator[FreeTerm]:
    """All terms using each of the generators 1..n exactly once."""
    ops = ("prec", "succ", "dot") if include_succ else ("prec", "dot")

    def build(leaves: tuple[int, ...]) -> Iterator[FreeTerm]:
        if len(leaves) == 1:
            yield gen(leaves[0])
            return
        for i in range(1, len(leaves)):
            for left in build(leaves[:i]):
                for right in build(leaves[i:]):
                    for op in ops:
                        yield FreeTerm(op, left=left, right=right)

    for perm in permutations(range(1, n + 1)):
        yield from build(perm)


def uctd_identifies_letter_products(alg: CoeffAlgebraSpec, max_degree: int = 2) -> bool:
    """Dot of two embedded letters equals the embedded letter product."""
    letters = alg.letters_up_to_degree(max_degree)
    for a in letters:
        for b in letters:
            lhs = op_dot(alg, TensorElement.from_letter(a), TensorElement.from_letter(b))
            rhs = TensorElement(
                ((letter,), c) for letter, c in multiply_letters(alg, a, b).items()
            )
            if lhs != rhs:
                return False
    return True


# each flavour's enumeration limit, partition enumerator and closed-form count
DIMENSION_FLAVORS = {
    "ctd": (MAX_CTD_ENUMERATION, ordered_unordered_partitions, fubini),
    "itd": (MAX_ITD_ENUMERATION, ordered_ordered_partitions, itd_dimension),
}


def dimension_flavor(flavor: str):
    """The ``(limit, enumerator, closed_form)`` row of a flavour, any case."""
    row = DIMENSION_FLAVORS.get(flavor.lower())
    if row is None:
        raise ValueError(f"unknown flavor {flavor!r}; known: {', '.join(DIMENSION_FLAVORS)}")
    return row


def enumerate_ou_partitions(n: int, flavor: str = "ctd"):
    """Multilinear partition bases by flavor: unordered or ordered blocks."""
    return dimension_flavor(flavor)[1](n)
