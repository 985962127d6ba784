"""Bialgebra structure: tensor-square operations, primitives, projection.

The two-fold tensor of the tensor module carries the componentwise
quasi-shuffle, and partial operations acting on the left factors with the
quasi-shuffle on the right factors:

    (a (x) b) * (a' (x) b')  =  (a * a') (x) (b * b')
    (a (x) b) < (a' (x) b')  =  (a < a') (x) (b * b')
    (a (x) b) . (a' (x) b')  =  (a . a') (x) (b * b')

completed by the unit-pairing convention: when a and a' are both the unit
the undefined head operation is pushed to the right factors,

    (1 (x) b) < (1 (x) b')  =  1 (x) (b < b')
    (1 (x) b) . (1 (x) b')  =  1 (x) (b . b')

and only the all-four-units pairing stays undefined. ``square_left`` and
``square_dot`` are one grouped pass, ``_square``. It checks both arguments
with the element operations' guard, ``tensorq._check_element``, which does
not walk one that ``freectd``'s fold built in ``alg``. Then the pairs of
the first argument are grouped by left word, each left word meets each
pair of the second argument once, in one head image (skipped when zero),
and each head times each quasi-shuffle of right words is summed straight
into one dict, refused once a left word's group takes it past
``tensorq.MAX_OUTPUT_TERMS`` pairs. With this structure the
deconcatenation coproduct is compatible with the partial operations:

    coproduct(x < y) = coproduct(x) < coproduct(y)
    coproduct(x . y) = coproduct(x) . coproduct(y)

stated once, as the two rows of the law table ``laws.COMPAT``. The
length-one words are exactly the primitives in each graded piece;
``reduced_coproduct_kernel`` recomputes that kernel as an independent
route, by exact sparse elimination of the words' reduced coproducts
(``lincomb.kernel``); no package code calls it, as acceptance criterion 9
checks ``is_primitive`` against it. The dot of primitives and the
splitting of ``generator_projection`` are checked by ``laws.PRIMITIVE_DOT``
and ``laws.PROJECTION``.
"""

from __future__ import annotations

from .coeff import CoeffAlgebraSpec, DomainError
from .lincomb import Scalar, kernel
from .tensorq import (
    EMPTY_WORD,
    TensorElement,
    TensorSquareElement,
    Word,
    _check_budget,
    _check_element,
    _shuffle_words,
    _word_op_dot,
    _word_op_left,
    reduced_coproduct,
)


def _square(alg, word_op, a, b) -> TensorSquareElement:
    """``word_op`` on left words, quasi-shuffle on right words, extended bilinearly."""
    _check_element(alg, a, TensorSquareElement)
    _check_element(alg, b, TensorSquareElement)
    rows: dict[Word, list] = {}
    for (u1, v1), c1 in a._terms.items():
        group = rows.get(u1)
        if group is None:  # only a row's first pair needs a list
            rows[u1] = [(v1, c1)]
        else:
            group.append((v1, c1))
    acc: dict[tuple[Word, Word], Scalar] = {}
    get = acc.get
    for u1, group in rows.items():
        for (u2, v2), c2 in b._terms.items():
            if u1 or u2:
                heads, tails_op = word_op(alg, u1, u2), _shuffle_words
            else:
                # both heads are the unit: the operation moves to the right
                # factors, raising UnitPairingError when all four are units
                heads, tails_op = {EMPTY_WORD: 1}, word_op
            if not heads:
                continue
            heads = heads.items()
            for v1, c1 in group:
                tails = tails_op(alg, v1, v2).items()
                c = c1 * c2
                for hw, hc in heads:
                    hc *= c
                    for tw, tc in tails:
                        key = (hw, tw)
                        total = get(key, 0) + hc * tc
                        if total:
                            acc[key] = total
                        else:
                            del acc[key]
        _check_budget(len(acc))
    return TensorSquareElement._raw(acc)


def square_left(
    alg: CoeffAlgebraSpec, a: TensorSquareElement, b: TensorSquareElement
) -> TensorSquareElement:
    """< on two-fold tensors; undefined only on the all-units pairing."""
    return _square(alg, _word_op_left, a, b)


def square_dot(
    alg: CoeffAlgebraSpec, a: TensorSquareElement, b: TensorSquareElement
) -> TensorSquareElement:
    """. on two-fold tensors; undefined only on the all-units pairing."""
    return _square(alg, _word_op_dot, a, b)


# ---------------------------------------------------------------------------
# graded pieces and the primitive kernel by linear solve


def graded_basis_words(alg: CoeffAlgebraSpec, degree: int) -> list[Word]:
    """All words of exact total degree, in canonical order."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")

    def rec(remaining: int) -> list[Word]:
        if remaining == 0:
            return [EMPTY_WORD]
        out: list[Word] = []
        for d in range(1, remaining + 1):
            for letter in alg.degree_slice(d):
                for rest in rec(remaining - d):
                    out.append((letter,) + rest)
        return out

    words = rec(degree)
    words.sort(key=TensorElement.sort_key)
    return words


def reduced_coproduct_kernel(alg: CoeffAlgebraSpec, degree: int) -> list[TensorElement]:
    """Kernel of the reduced coproduct on one graded piece, by linear solve.

    Independent of ``is_primitive``: eliminates the reduced coproducts of
    the degree-graded basis words exactly, with ``lincomb.kernel``.
    """
    if degree < 1:
        raise ValueError("graded primitive computation needs degree >= 1")
    words = graded_basis_words(alg, degree)
    images = [reduced_coproduct(TensorElement.from_word(w))._terms for w in words]
    return [TensorElement((words[j], c) for j, c in rel.items()) for rel in kernel(images)]


# ---------------------------------------------------------------------------
# projection onto generator words and its section


def generator_projection(x: TensorElement) -> TensorElement:
    """Keep words whose letters all have degree one; kill everything else.

    This is the coalgebra map cogenerated by the projection of letters onto
    the degree-one component.
    """
    return TensorElement._raw(
        {
            w: c
            for w, c in x.items()
            if all(letter.degree == 1 for letter in w)
        }
    )


def _has_fat_letter(x: TensorElement) -> bool:
    return any(letter.degree != 1 for word, _ in x.items() for letter in word)


def generator_inclusion(x: TensorElement) -> TensorElement:
    """Embed an element supported on pure generator words; a section of the
    projection, and a coalgebra map for deconcatenation."""
    if _has_fat_letter(x):
        raise DomainError("generator_inclusion expects words of degree-one letters only")
    return TensorElement._raw(dict(x.items()))
