"""Every law of the package as a table row, one checker, and seeded law suites.

A law is a row ``(name, sides)``: ``sides`` takes the table's operations and
then the elements, and returns both sides. Every table's operations start
with the four binary ones ``(L, R, D, S)`` (left ``<``, right ``>``, dot
``.`` and their sum ``*``); a table may take more after them. ``SEVEN``,
``CTD_THREE`` and ``SPLITTING`` need only the four; ``COMPAT`` also takes
deconcatenation and the tensor-square ``<`` and ``.``; the involution table
takes the anti-involution, and the weight-one tables of ``rota`` the
operator. ``failed_relations`` checks a table on given elements and
``first_failure`` checks it on every tuple of basis vectors, which is
complete for multilinear laws. It is the package's one exhaustive search:
it also searches ``PRIMITIVE_DOT``, ``LETTER_PRODUCT`` and ``PROJECTION``,
and ``splitting_failure`` runs it on ``PROJECTION`` over all short words.
No package code calls ``check_compatibility``: it stays while the benchmark's
``bialg.compat`` span wraps it by name.

Each suite draws seeded samples from the augmentation ideal (no empty-word
part, so the partial operations are total on them) and compares both sides
of every relation by exact equality. Case `i` of a run gets its own child
generator ``random.Random(f"{seed}:{i}")``, so a report depends only on the
suite, algebra, case count and seed.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import product

from .bialg import generator_inclusion, generator_projection, square_dot, square_left
from .coeff import CoeffAlgebraSpec, _Frozen
from .grammar import render_element, render_square_element
from .lincomb import add_into
from .sampling import random_element
from .tensorq import (
    TensorElement,
    TensorSquareElement,
    deconcatenate,
    involute_element,
    op_dot,
    op_left,
    op_right,
    quasi_shuffle,
    reduced_coproduct,
)


class LawViolation(_Frozen):
    __slots__ = ("law", "case_index", "inputs", "lhs", "rhs")

    def __init__(self, law: str, case_index: int, inputs: tuple[str, ...], lhs: str, rhs: str):
        self._set_slots(law, case_index, inputs, lhs, rhs)

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "case": self.case_index,
            "inputs": list(self.inputs),
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


class LawReport:
    __slots__ = ("suite", "algebra", "cases", "seed", "violations")

    def __init__(self, suite: str, algebra: str, cases: int, seed: int, violations=None):
        self.suite, self.algebra, self.cases, self.seed = suite, algebra, cases, seed
        self.violations: list[LawViolation] = [] if violations is None else violations

    def __eq__(self, other):
        return self.to_json() == other.to_json() if isinstance(other, LawReport) else NotImplemented

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "algebra": self.algebra,
            "cases": self.cases,
            "seed": self.seed,
            "ok": self.ok,
            "violations": [v.to_json() for v in self.violations],
        }


# Relation tables. The seven relations hold in every tridendriform algebra;
# the CTD three (with x>y = y<x) additionally need a commutative letter
# product. CTD_THREE shares SEVEN's two rows on a dot head.

SEVEN = (
    ("(x<y)<z = x<(y*z)", lambda L, R, D, S, x, y, z: (L(L(x, y), z), L(x, S(y, z)))),
    ("(x>y)<z = x>(y<z)", lambda L, R, D, S, x, y, z: (L(R(x, y), z), R(x, L(y, z)))),
    ("(x*y)>z = x>(y>z)", lambda L, R, D, S, x, y, z: (R(S(x, y), z), R(x, R(y, z)))),
    ("(x.y)<z = x.(y<z)", lambda L, R, D, S, x, y, z: (L(D(x, y), z), D(x, L(y, z)))),
    ("(x<y).z = x.(y>z)", lambda L, R, D, S, x, y, z: (D(L(x, y), z), D(x, R(y, z)))),
    ("(x>y).z = x>(y.z)", lambda L, R, D, S, x, y, z: (D(R(x, y), z), R(x, D(y, z)))),
    ("(x.y).z = x.(y.z)", lambda L, R, D, S, x, y, z: (D(D(x, y), z), D(x, D(y, z)))),
)

CTD_THREE = (
    (
        "(x<y)<z = x<(y<z + z<y + y.z)",
        lambda L, R, D, S, x, y, z: (L(L(x, y), z), L(x, L(y, z) + L(z, y) + D(y, z))),
    ),
    SEVEN[3],
    SEVEN[6],
    ("x>y = y<x", lambda L, R, D, S, x, y, z: (R(x, y), L(y, x))),
)

SPLITTING = (
    ("x*y = x<y + x>y + x.y", lambda L, R, D, S, x, y: (S(x, y), L(x, y) + R(x, y) + D(x, y))),
)

# the anti-involution s reverses every operation; rows take s after (L, R, D, S)
_INVOLUTION = (
    ("s(s(x)) = x", lambda L, R, D, S, s, x, y: (s(s(x)), x)),
    ("s(x*y) = s(y)*s(x)", lambda L, R, D, S, s, x, y: (s(S(x, y)), S(s(y), s(x)))),
    ("s(x<y) = s(y)>s(x)", lambda L, R, D, S, s, x, y: (s(L(x, y)), R(s(y), s(x)))),
    ("s(x>y) = s(y)<s(x)", lambda L, R, D, S, s, x, y: (s(R(x, y)), L(s(y), s(x)))),
    ("s(x.y) = s(y).s(x)", lambda L, R, D, S, s, x, y: (s(D(x, y)), D(s(y), s(x)))),
)

# deconcatenation C is a morphism for < and . into the tensor square, whose
# < and . are SL and SD; rows take (C, SL, SD) after (L, R, D, S)
COMPAT = (
    (
        "coproduct is a morphism for left",
        lambda L, R, D, S, C, SL, SD, x, y: (C(L(x, y)), SL(C(x), C(y))),
    ),
    (
        "coproduct is a morphism for dot",
        lambda L, R, D, S, C, SL, SD, x, y: (C(D(x, y)), SD(C(x), C(y))),
    ),
)


def _has_fat_letter(x: TensorElement) -> bool:
    return any(letter.degree != 1 for word, _ in x.items() for letter in word)


# Loday's exhaustive facts. PRIMITIVE_DOT takes the reduced coproduct Cbar
# and holds on pairs of length-one words. LETTER_PRODUCT takes the letter
# product M (``multiply_letters``: the rule afresh, not the dot's memo) and
# holds on pairs of letters. PROJECTION takes p onto generator words, its
# section i, deconcatenation C and p (x) p, PP, and holds on basis words;
# its first row, not linear, pins p on each word and applies i only in its domain.
PRIMITIVE_DOT = (
    ("Cbar(x.y) = 0", lambda L, R, D, S, Cbar, x, y: (Cbar(D(x, y)), TensorSquareElement())),
)

LETTER_PRODUCT = (
    (
        "a.b = ab",
        lambda L, R, D, S, M, a, b: (
            D(TensorElement.from_letter(a), TensorElement.from_letter(b)),
            TensorElement(((c,), k) for c, k in M(a, b).items()),
        ),
    ),
)

PROJECTION = (
    (
        "p(x) = 0 if a letter has degree >= 2, else p(i(x)) = x",
        lambda L, R, D, S, p, i, C, PP, x: (p(x), 0 * x) if _has_fat_letter(x) else (p(i(x)), x),
    ),
    ("C(p(x)) = (p (x) p)(C(x))", lambda L, R, D, S, p, i, C, PP, x: (C(p(x)), PP(C(x)))),
)


class _WordElements(list):
    """A list of words indexed as basis elements, each made then and not kept."""

    def __getitem__(self, index: int) -> TensorElement:
        return TensorElement.from_word(super().__getitem__(index))


def _square_map(images, square: TensorSquareElement) -> TensorSquareElement:
    """``(f (x) f)(square)``, where ``images`` maps each word to the items of its f-image."""
    pairs = (
        ((u, v), c * cu * cv)
        for (a, b), c in square.items()
        for u, cu in images[a]
        for v, cv in images[b]
    )
    return TensorSquareElement._raw(add_into({}, pairs))


def failed_relations(relations, ops, *elements):
    """Yield ``(name, lhs, rhs)`` for each relation whose sides differ on
    ``elements``, with the table's operations taken from ``ops``."""
    for name, sides in relations:
        lhs, rhs = sides(*ops, *elements)
        if lhs != rhs:
            yield name, lhs, rhs


def first_failure(relations, ops, basis, arity):
    """``(indices, name, lhs, rhs)`` for the first ``arity``-tuple of
    ``basis`` elements, in lexicographic index order, on which a relation
    fails, or None when every relation holds on every tuple."""
    for indices in product(range(len(basis)), repeat=arity):
        elements = [basis[i] for i in indices]
        for name, lhs, rhs in failed_relations(relations, ops, *elements):
            return indices, name, lhs, rhs
    return None


def tensor_ops(alg, *extra):
    """The operations ``(L, R, D, S)`` of ``alg``, followed by ``extra``."""
    # looked up when a case runs, not captured at import, so that rebinding
    # the module's op_left etc. (as a tracer does) reaches the suites
    return tuple(partial(op, alg) for op in (op_left, op_right, op_dot, quasi_shuffle)) + extra


def _involution_ops(alg):
    return tensor_ops(alg, partial(involute_element, alg))


def _compat_ops(alg):
    return tensor_ops(alg, deconcatenate, partial(square_left, alg), partial(square_dot, alg))


def check_compatibility(alg: CoeffAlgebraSpec, x, y) -> list:
    """``(name, lhs, rhs)`` for each ``COMPAT`` row failing on one pair.

    Arguments should lie in the augmentation ideal or be units; when both
    carry a unit component the operations themselves are undefined and the
    resulting ``UnitPairingError`` propagates.
    """
    return list(failed_relations(COMPAT, _compat_ops(alg), x, y))


# the most words ``splitting_failure`` checks: 18,279 is zero's count up to
# length 3, and the next length would be 475,255
MAX_SPLITTING_WORDS = 50_000


def splitting_failure(alg: CoeffAlgebraSpec, max_word_length: int):
    """``(word, name)`` for the first word on which a ``PROJECTION`` row
    fails, or None when every row holds on every word: the words up to the
    given length over the letters of degree <= 2, by length and then in the
    order of ``letters_up_to_degree(2)``. Refuses with ``ValueError``, before
    building any word, when there are more than ``MAX_SPLITTING_WORDS``.
    """
    if max_word_length < 0:
        raise ValueError(f"max word length must be nonnegative, got {max_word_length}")
    letters = alg.letters_up_to_degree(2)
    words = total = 1
    for _ in range(max_word_length):
        words *= len(letters)
        total += words
        if total > MAX_SPLITTING_WORDS:
            raise ValueError(
                f"splitting check up to word length {max_word_length} over "
                f"{len(letters)} letters exceeds {MAX_SPLITTING_WORDS} words"
            )
    words = [w for n in range(max_word_length + 1) for w in product(letters, repeat=n)]
    # each word's projection, made once for p (x) p on every coproduct with it
    images = {w: tuple(generator_projection(TensorElement.from_word(w)).items()) for w in words}
    pp = partial(_square_map, images)
    ops = tensor_ops(alg, generator_projection, generator_inclusion, deconcatenate, pp)
    failure = first_failure(PROJECTION, ops, _WordElements(words), 1)
    return failure and (words[failure[0][0]], failure[1])


def _render(element) -> str:
    # the renderers are looked up per call, so a tracer's rebinding reaches them
    if isinstance(element, TensorSquareElement):
        return render_square_element(element)
    return render_element(element)


def _relation_case(relations, arity, ops=tensor_ops):
    """A suite case: sample ``arity`` elements and check ``relations`` on them."""

    def case(alg, rng, index, max_degree):
        elements = [
            random_element(alg, rng, max_total_degree=max_degree) for _ in range(arity)
        ]
        failed = list(failed_relations(relations, ops(alg), *elements))
        if not failed:
            return []
        inputs = tuple(render_element(e) for e in elements)
        return [
            LawViolation(name, index, inputs, _render(lhs), _render(rhs))
            for name, lhs, rhs in failed
        ]

    return case


# fewer than one case would pass vacuously; a run's time is linear in its cases,
# and the slowest measured (``seven`` on word32, degree 6) takes about 0.1 s each
MAX_CASES = 1000

# suite name -> (case function, default per-element degree bound); triple
# suites default to 2 so a whole triple stays at total degree <= 6
SUITES = {
    "seven": (_relation_case(SEVEN, 3), 2),
    "ctd-three": (_relation_case(CTD_THREE, 3), 2),
    "splitting": (_relation_case(SPLITTING, 2), 3),
    "involution": (_relation_case(_INVOLUTION, 2, _involution_ops), 3),
    "bialgebra-compat": (_relation_case(COMPAT, 2, _compat_ops), 2),
}


def run_suite(
    suite: str,
    alg: CoeffAlgebraSpec,
    cases: int,
    seed: int,
    max_degree: int | None = None,
) -> LawReport:
    """Run `cases` (1 to MAX_CASES) seeded checks of one suite and collect violations."""
    if suite not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {suite!r}; known suites: {known}")
    if not 1 <= cases <= MAX_CASES:
        raise ValueError(f"cases must satisfy 1 <= cases <= {MAX_CASES}, got {cases}")
    case_fn, default_degree = SUITES[suite]
    degree = default_degree if max_degree is None else max_degree
    if degree < 1:
        raise ValueError("max_degree must be at least 1")
    violations = [
        violation
        for index in range(cases)
        for violation in case_fn(alg, random.Random(f"{seed}:{index}"), index, degree)
    ]
    return LawReport(suite=suite, algebra=alg.name, cases=cases, seed=seed, violations=violations)
