"""Free tridendriform terms, the maps out of them, and dimension counts.

Terms are binary trees over generators with node operations left (<),
right (>) and dot (.); a node's depth, degree, signature and text are
built once, when it is built. Generator leaves are shared: ``gen`` returns
one leaf per index from a cache bounded by ``_GEN_CACHE_SIZE``, since a
term's text can name any ``g<i>``. The term algebra is free, so ``fold_term``,
fixed by where the generators go, is the one map out of it: evaluation,
the free coproduct, the involution and the generator list are folds.
Evaluation and the coproduct fold into sym(n) or word(n), and build each
generator's image there once per algebra: ``_fold_in`` keeps it in one of
the algebra's memo tables (see ``CoeffAlgebraSpec``), at most n images per
leaf kind.
The commutative signature (CTD) uses < and . only; a term containing > is
rejected by the CTD entry points with ``SignatureError``.

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
syntactic: it walks a term with its own encoder, not ``fold_term``, and
never evaluates into the tensor module, which keeps it an independent
cross-check against ``eval_ctd``.

CTD is an operad, so an injective relabelling of the generators commutes
with rewriting. The encoder therefore gives a term's shape: each generator
is replaced by its rank 1, 2, ... in first-occurrence leaf order. Shapes
are rewritten once each and kept in ``_NF_CACHE``, and ``normal_form`` maps
a cached form back to the term's own generators, each distinct block once.

No output may have more than ``tensorq.MAX_OUTPUT_TERMS`` terms. For a
term of distinct generators ``_comb_lengths`` counts its combs of each
length exactly, without rewriting, so ``normal_form`` (on a shape not cached
yet), ``eval_ctd`` and ``free_ctd_coproduct`` refuse an oversized result
with ``DomainError`` before any work. With a repeated generator the count can
overshoot by orders of magnitude, so rewriting and each tensor square stop
once their accumulator passes the budget.

Multilinear block sequences are the ordered set partitions counted by the
Fubini numbers 1, 3, 13, 75, 541, 4683, ...; the module also verifies
their exponential generating function (exp(x) - 1)/(2 - exp(x)) by exact
truncated series arithmetic. ``DIMENSION_FLAVORS`` gives each flavour's
partition enumerator and closed-form count. That ``eval_ctd`` of a dot of
generators is their letter product is the row ``laws.LETTER_PRODUCT``.

No package code calls ``eval_itd``, ``involute_term`` or ``multilinear_terms``:
they are the tridendriform side and the free-term involution law. Nor does
any call ``comb_term``: acceptance criterion 7 builds each comb's term with it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import chain, combinations, permutations, product
from math import comb as binomial, factorial
from operator import add

from .coeff import (
    CoeffAlgebraSpec,
    DomainError,
    Letter,
    _Frozen,
    _interned_letter,
    _positive_int,
    sym_algebra,
    word_algebra,
)
from .bialg import square_dot, square_left
from .lincomb import LinearCombination, Scalar, add_into
from .tensorq import (
    EMPTY_WORD,
    MAX_OUTPUT_TERMS,
    TensorElement,
    TensorSquareElement,
    _check_budget,
    op_dot,
    op_left,
    op_right,
)


class SignatureError(ValueError):
    """A term uses an operation its signature does not provide."""


_OP_SYMBOL = {"prec": "<", "succ": ">", "dot": "."}
_CONCATENATE = dict.fromkeys(_OP_SYMBOL, add)  # a node's generators are its children's

# Deepest nesting a free term may have; a deeper term is refused when it is
# built. ``fold_term`` (so every map out of a term) and ``_encode`` recurse
# once per level; rewriting that could recurse deeper is refused (``_norm_depth``).
MAX_TERM_DEPTH = 500


class FreeTerm(_Frozen):
    """A generator leaf or a binary operation node.

    Its facts are built once, from the children's, when the node is built:
    ``depth`` (0 for a generator, else one more than the deeper child; at
    most ``MAX_TERM_DEPTH``), ``degree`` (the number of leaves), ``is_ctd``
    (no > anywhere) and ``text`` in the parser's grammar. The grammar is
    unambiguous, so equal text means equal trees, and equality, hashing and
    printing all use it without recursing.
    """

    __slots__ = ("op", "index", "left", "right", "depth", "degree", "is_ctd", "text")

    def __init__(
        self, op: str, index: int = 0, left: FreeTerm | None = None, right: FreeTerm | None = None
    ) -> None:
        if op == "gen":
            if not _positive_int(index) or left is not None or right is not None:
                raise ValueError("generator leaf needs a positive index and no children")
            depth, degree, is_ctd = 0, 1, True
            text = chr(ord("a") + index - 1) if index <= 26 else f"g{index}"
        elif op in _OP_SYMBOL:
            if left is None or right is None:
                raise ValueError(f"{op} node needs two children")
            depth = 1 + max(left.depth, right.depth)
            if depth > MAX_TERM_DEPTH:
                raise ValueError(f"terms nest deeper than {MAX_TERM_DEPTH} levels")
            degree = left.degree + right.degree
            is_ctd = op != "succ" and left.is_ctd and right.is_ctd
            text = f"({left.text} {_OP_SYMBOL[op]} {right.text})"
        else:
            raise ValueError(f"unknown term operation {op!r}")
        # one call per slot, not ``_set_slots``'s loop: a parse builds a node per operator
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "is_ctd", is_ctd)
        object.__setattr__(self, "text", text)

    def __reduce__(self):
        return (FreeTerm, (self.op, self.index, self.left, self.right))

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

    def generators(self) -> tuple[int, ...]:
        """Generator indices in left-to-right leaf order."""
        return fold_term(self, lambda i: (i,), _CONCATENATE)


# Shared generator leaves, at most this many. Typed, so ``gen(True)`` and
# ``gen(2.0)`` still reach the constructor's refusal after ``gen(1)`` and
# ``gen(2)`` are cached: ``True == 1`` and ``2.0 == 2``.
_GEN_CACHE_SIZE = 1024


@lru_cache(maxsize=_GEN_CACHE_SIZE, typed=True)
def gen(index: int) -> FreeTerm:
    return FreeTerm("gen", index=index)


def prec(left: FreeTerm, right: FreeTerm) -> FreeTerm:
    return FreeTerm("prec", left=left, right=right)


def succ(left: FreeTerm, right: FreeTerm) -> FreeTerm:
    return FreeTerm("succ", left=left, right=right)


def dot(left: FreeTerm, right: FreeTerm) -> FreeTerm:
    return FreeTerm("dot", left=left, right=right)


def fold_term(term: FreeTerm, leaf, ops):
    """The map out of the free algebra fixed by where the generators go.

    Generator ``i`` goes to ``leaf(i)``; a node applies ``ops[op]`` to its
    children's images, left child first.
    """
    if term.op == "gen":
        return leaf(term.index)
    return ops[term.op](fold_term(term.left, leaf, ops), fold_term(term.right, leaf, ops))


# ---------------------------------------------------------------------------
# normal forms

Block = tuple[int, ...]
BlockSequence = tuple[Block, ...]


class NormalForm(LinearCombination):
    """Combination of ordered block sequences (right combs of dot-monomials).

    The constructor and ``basis`` sort each block, as ``mono_letter`` sorts
    its payload, and sum the sequences that then coincide. They refuse what
    no rewriting produces: no block, an empty block, an index not a positive int.
    """

    def __init__(self, terms: Mapping | Iterable[tuple] = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        super().__init__((_sorted_comb(seq), c) for seq, c in items)

    @classmethod
    def basis(cls, key: BlockSequence, coeff: Scalar = 1) -> "NormalForm":
        return cls([(key, coeff)])

    @staticmethod
    def sort_key(key: BlockSequence):
        return (sum(map(len, key)), key)

    def to_element(self) -> TensorElement:
        """The tensor-module element the combs evaluate to: one word per comb.
        Each distinct block's letter is looked up once; the constructor made
        every block a sorted tuple of positive ints, so distinct combs give
        distinct words and nothing is summed."""
        blocks = dict.fromkeys(chain.from_iterable(self._terms))
        letter = {block: _interned_letter("mono", block) for block in blocks}
        return TensorElement._raw(
            {tuple([letter[block] for block in seq]): c for seq, c in self.items()}
        )


def _sorted_comb(seq) -> BlockSequence:
    if seq and all(block and all(map(_positive_int, block)) for block in seq):
        return tuple([tuple(sorted(block)) for block in seq])
    raise ValueError(f"a comb needs nonempty blocks of positive ints, got {seq!r}")


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
        # a dot part contributes its factors, any other part itself
        for sub in part[1] if part[0] == "d" else (part,):
            if sub[0] == "b":
                block = tuple(sorted(block + sub[1]))
            else:
                rest.append(sub)
    if not rest:
        return ("b", block)
    if block:
        rest.append(("b", block))
    rest.sort()
    return ("d", tuple(rest))


# Its own walk, not ``fold_term``: rewriting is the independent check on
# evaluation, so the two must not share the code that visits a term.
def _encode(term: FreeTerm, labels: dict[int, int]) -> tuple:
    """The term's shape: each generator index is replaced by its rank
    1, 2, ... in first-occurrence leaf order, recorded in ``labels``."""
    if term.op == "gen":
        return ("b", (labels.setdefault(term.index, len(labels) + 1),))
    if term.op == "prec":
        return ("p", _encode(term.left, labels), _encode(term.right, labels))
    return _rdot((_encode(term.left, labels), _encode(term.right, labels)))


def _pull_prec(factors) -> tuple:
    """Pull one < factor of a dot product to the top:
    (w1 < w2) . rest = (w1 . rest) < w2."""
    w = next(f for f in factors if f[0] == "p")
    rest = list(factors)
    rest.remove(w)
    return ("p", _rdot([w[1]] + rest), w[2])


def _comb_lengths(rt: tuple) -> dict[int, int]:
    """How many combs of each length the normal form of ``rt`` has when its
    generators are distinct. Counted, not rewritten: a block is one comb of
    length 1, and x < y, resp. x . y, of combs of lengths p and q gives one
    head, then each quasi-shuffle of tails of lengths p - 1 and q, resp.
    q - 1. Distinct generators make every such word a distinct comb; a
    repeated one can make fewer. A part over the budget is refused at once,
    since the whole has at least as many combs."""
    if rt[0] == "b":
        return {1: 1}
    if rt[0] == "p":
        return _combine_lengths(_comb_lengths(rt[1]), _comb_lengths(rt[2]), 0)
    return reduce(partial(_combine_lengths, merged=1), map(_comb_lengths, rt[1]))


def _combine_lengths(left: dict[int, int], right: dict[int, int], merged: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for p, cp in left.items():
        for q, cq in right.items():
            a, b = p - 1, q - merged
            for k in range(min(a, b) + 1):  # k diagonal steps: a word of n letters
                n = a + b - k
                out[n + 1] = out.get(n + 1, 0) + cp * cq * binomial(n, k) * binomial(n - k, a - k)
    _check_budget(sum(out.values()))
    return out


# Keyed by shape: ``_encode`` labels generators by first-occurrence rank,
# so terms that differ by an injective relabelling share every entry. It is
# process-global and unbounded (ROADMAP item 1).
_NF_CACHE: dict[tuple, dict[BlockSequence, Scalar]] = {}


def _norm(rt: tuple) -> dict[BlockSequence, Scalar]:
    """Normal form of one encoded term. Cached; results are never mutated.
    A < pulled out of a dot stays on this level (``_norm_depth``)."""
    if (hit := _NF_CACHE.get(rt)) is not None:
        return hit
    key = rt
    if rt[0] == "d":  # (w1 < w2) . rest = (w1 . rest) < w2
        rt = _pull_prec(rt[1])
    if rt[0] == "p" and rt[1][0] == "d":  # the same for a dot heading a <
        rt = ("p", _pull_prec(rt[1][1]), rt[2])
    if rt[0] == "b":
        out = {(rt[1],): 1}
    elif rt[1][0] == "b":
        # prepending a block keeps distinct sequences distinct
        head = (rt[1][1],)
        out = {head + seq: c for seq, c in _norm(rt[2]).items()}
    else:
        # (x1 < x2) < y = x1 < (x2 < y) + x1 < (y < x2) + x1 < (x2 . y)
        (_, x1, x2), y = rt[1], rt[2]
        out = {}
        add_into(out, _norm(("p", x1, ("p", x2, y))).items())
        add_into(out, _norm(("p", x1, ("p", y, x2))).items())
        add_into(out, _norm(("p", x1, _rdot([x2, y]))).items())
        _check_budget(len(out))  # a repeated generator is not counted up front
    _NF_CACHE[key] = _NF_CACHE[rt] = out
    return out


def _norm_depth(rt: tuple) -> int:
    """A bound on ``_norm``'s recursion depth on ``rt``, cold cache: 1 + (<
    nodes) + (pairs of blocks) - (sum over < nodes of their right blocks),
    >= 1 + (< nodes). Each level lowers it: prepending a block drops a < node,
    x1 < (x2 < y) and x1 < (y < x2) add y's, resp. x2's, blocks to the sum,
    x1 < (x2 . y) drops a < node, and a pull raises nothing. A right comb
    costs 1 per block, a left chain of l blocks about l**2 / 2."""
    nodes = blocks = right = 0
    todo = [(rt, 0)]  # each subterm with the number of < nodes it is right of
    while todo:  # not recursive: the term may nest MAX_TERM_DEPTH deep
        node, r = todo.pop()
        if node[0] == "b":
            blocks, right = blocks + 1, right + r
        elif node[0] == "p":
            nodes += 1
            todo += ((node[1], r), (node[2], r + 1))
        else:
            todo += ((factor, r) for factor in node[1])
    return 1 + nodes + blocks * (blocks - 1) // 2 - right


def normal_form(term: FreeTerm) -> NormalForm:
    """Rewrite a CTD term to its combination of right combs, if shallow enough."""
    if not term.is_ctd:
        raise SignatureError("normal-form rewriting is defined for CTD terms only")
    labels: dict[int, int] = {}
    encoded = _encode(term, labels)
    shape = _NF_CACHE.get(encoded)  # one probe: a nested shape rehashes each time
    if shape is None:
        if (depth := _norm_depth(encoded)) > MAX_TERM_DEPTH + 1:
            raise ValueError(
                f"rewriting could recurse {depth} levels deep, over {MAX_TERM_DEPTH + 1}"
            )
        if len(labels) == term.degree:  # distinct generators: the count is exact
            _comb_lengths(encoded)
        shape = _norm(encoded)
    # each distinct block of the shape's form mapped back once, then every
    # comb, into a new dict: the cached one is shared
    back = (0, *labels)
    relabel = {
        block: tuple(sorted(map(back.__getitem__, block)))
        for block in set(chain.from_iterable(shape))
    }.__getitem__
    return NormalForm._raw({tuple(map(relabel, seq)): c for seq, c in shape.items()})


# ---------------------------------------------------------------------------
# evaluation into the tensor module

# the partial operations a node of a term maps to; a CTD term has no succ
_FOLD_OPS = {"prec": op_left, "succ": op_right, "dot": op_dot}


def _generator_letter(alg: CoeffAlgebraSpec, n: int, index: int) -> Letter:
    """Generator ``index`` as the degree-one letter of ``alg``, sym(n) or
    word(n), whose members it is exactly when ``index <= n``: a larger index
    is refused before its letter is built, so it interns nothing."""
    if index > n:
        raise DomainError(f"generator index {index} exceeds the generator count of {alg.name}")
    return _interned_letter(alg.letter_style, (index,))


def _primitive_square(letter) -> TensorSquareElement:
    word = (letter,)
    return TensorSquareElement._raw({(word, EMPTY_WORD): 1, (EMPTY_WORD, word): 1})


# the fold's leaf kinds, each by the name of its image table in ``alg.cache``:
# a generator's length-one word, and its primitive square
_LEAVES = {"generator": TensorElement.from_letter, "primitive": _primitive_square}


def _fold_in(term: FreeTerm, n: int, algebra, table: str, ops):
    """``fold_term`` into ``alg = algebra(n)``, sym(n) or word(n): generator
    ``i`` goes to ``_LEAVES[table]`` of its letter, and a node to
    ``ops[op](alg, left, right)``. ``ops`` is read when called, so a later
    rebinding takes effect.

    Each generator's image is built once per algebra, on first use, and kept
    in ``alg.cache[table]``: at most n entries, one per index. Every image
    the fold builds lies in alg: a leaf's letter has index <= n, and sym(n)
    and word(n) are closed under their letter products. So each is marked
    as checked in alg (``_checked_in``), and the operations do not walk its
    letters again. A copy sharing alg's cache finds images marked for alg,
    not for itself, and walks them. No cached image reaches a caller, and
    the result is returned unmarked, so a pickle or copy holds no algebra.
    """
    alg, leaf = algebra(n), _LEAVES[table]
    if term.op == "gen":  # a new image, not the cached one
        return leaf(_generator_letter(alg, n, term.index))
    images = alg.cache[table]

    def image(i):
        x = images.get(i)
        if x is None:
            x = leaf(_generator_letter(alg, n, i))
            x._checked_in = alg
            images[i] = x
        return x

    def marking(f):
        def node(x, y):
            z = f(alg, x, y)
            z._checked_in = alg
            return z
        return node

    result = fold_term(term, image, {op: marking(f) for op, f in ops.items()})
    del result._checked_in
    return result


def eval_ctd(term: FreeTerm, n_generators: int) -> TensorElement:
    """Evaluate a CTD term in the quasi-shuffle algebra over sym(n).

    Generators map to the length-one words on the degree-one monomial
    letters; < and . map to the partial operations. Equality of free
    elements is defined as equality of these images. The image has one word
    per comb of the normal form, so a term of distinct generators is refused
    up front when it has more than ``MAX_OUTPUT_TERMS`` combs.
    """
    if not term.is_ctd:
        raise SignatureError("eval_ctd is defined for CTD terms only")
    _distinct_comb_lengths(term)
    return _fold_in(term, n_generators, sym_algebra, "generator", _FOLD_OPS)


def eval_itd(term: FreeTerm, n_generators: int) -> TensorElement:
    """Evaluate a tridendriform term in the quasi-shuffle algebra over word(n).

    Its combs are not counted up front: ``_encode`` reads only < and ., so
    it would count a > node as a dot.
    """
    return _fold_in(term, n_generators, word_algebra, "generator", _FOLD_OPS)


_INVOLUTE = {
    "prec": lambda x, y: succ(y, x),
    "succ": lambda x, y: prec(y, x),
    "dot": lambda x, y: dot(y, x),
}


def involute_term(term: FreeTerm) -> FreeTerm:
    """The anti-involution: fixes generators, swaps < with >, flips arguments."""
    return fold_term(term, gen, _INVOLUTE)


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

    Every sequence of ``ordered_unordered_partitions(n)``, in its order,
    with each of its blocks put in every order: a sum of products of
    block-size factorials, which the closed form 2**(n-1) * n! checks.
    """
    if not 1 <= n <= MAX_ITD_ENUMERATION:
        raise ValueError(
            f"ordered-block enumeration supports 1 <= n <= {MAX_ITD_ENUMERATION}, got {n}"
        )
    return [
        ordered
        for blocks in ordered_unordered_partitions(n)
        for ordered in product(*map(permutations, blocks))
    ]


@lru_cache(maxsize=None)
def fubini(n: int) -> int:
    """Number of ordered set partitions of an n-set, by the binomial recurrence."""
    if n < 0:
        raise ValueError("fubini is defined for n >= 0")
    counts = [fubini(m) for m in range(n)]  # ascending: each call finds the smaller ones cached
    return sum(binomial(n, k) * counts[n - k] for k in range(1, n + 1)) if n else 1


def itd_dimension(n: int) -> int:
    """Multilinear dimension of the free tridendriform-with-involution algebra."""
    if n < 1:
        raise ValueError("itd_dimension is defined for n >= 1")
    return (1 << (n - 1)) * factorial(n)


# ---------------------------------------------------------------------------
# coproduct on free CTD terms

# d distinct generators give at most Fubini(d) combs of at most d blocks, so
# at most Fubini(d) * (d + 1) pairs: up to this degree no term is counted.
_UNCOUNTED_DEGREE = max(d for d in range(1, 16) if fubini(d) * (d + 1) <= MAX_OUTPUT_TERMS)


def _distinct_comb_lengths(term: FreeTerm) -> dict[int, int]:
    """``_comb_lengths`` of a CTD term of distinct generators above
    ``_UNCOUNTED_DEGREE``, which refuses an oversized count; ``{}`` for any
    other term, whose count is skipped."""
    if term.degree > _UNCOUNTED_DEGREE:
        labels: dict[int, int] = {}
        shape = _encode(term, labels)
        if len(labels) == term.degree:  # distinct generators: the count is exact
            return _comb_lengths(shape)
    return {}


def free_ctd_coproduct(term: FreeTerm, n_generators: int) -> TensorSquareElement:
    """Coproduct of a CTD term, with components as quasi-shuffle images.

    Generators are primitive; a node applies the matching tensor-square
    operation to its children's coproducts. Components are words over
    sym(n), the images of free elements in the tensor module, one word per
    comb. A term of distinct generators is refused up front when its comb
    count says the result would have more than ``MAX_OUTPUT_TERMS`` pairs:
    a comb of length l splits l + 1 ways. With a repeated generator each
    tensor square stops at the budget instead.
    """
    if not term.is_ctd:
        raise SignatureError("the free coproduct is defined for CTD terms only")
    lengths = _distinct_comb_lengths(term)
    _check_budget(sum(count * (length + 1) for length, count in lengths.items()))
    ops = {"prec": square_left, "dot": square_dot}
    return _fold_in(term, n_generators, sym_algebra, "primitive", ops)


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
    out = [Fraction(0)] * (order + 1)
    for k in range(order + 1):
        acc = num[k]
        for j in range(1, k + 1):
            acc -= den[j] * out[k - j]
        out[k] = acc
    return out


def _series_compose(outer: list[Fraction], inner: list[Fraction], order: int) -> list[Fraction]:
    acc = [Fraction(0)] * (order + 1)
    for k in range(order, -1, -1):
        acc = _series_mul(acc, inner, order)
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


# each flavour's enumeration limit, partition enumerator and closed-form count
DIMENSION_FLAVORS = {
    "ctd": (MAX_CTD_ENUMERATION, ordered_unordered_partitions, fubini),
    "itd": (MAX_ITD_ENUMERATION, ordered_ordered_partitions, itd_dimension),
}
