"""Seeded random sampling of letters, words, elements, and free terms.

All samplers take an explicit :class:`random.Random` so every run is
reproducible from a seed. Elements are kept small on purpose: letters of
degree at most two, words of length at most three, integer coefficients in
``[-3, -1] + [1, 3]``. That keeps exhaustive law checks fast while still
exercising the non-commutative and composite-letter paths. No package code
calls ``random_ctd_term`` or ``random_td_term``: they draw the tests' terms.
"""

from __future__ import annotations

import random

from .coeff import CoeffAlgebraSpec
from .freectd import FreeTerm, dot, gen, prec, succ
from .tensorq import TensorElement

MAX_LETTER_DEGREE = 2
MAX_WORD_LENGTH = 3
MAX_TERMS = 3


def random_letter(alg: CoeffAlgebraSpec, rng: random.Random, max_degree: int = MAX_LETTER_DEGREE):
    degree = rng.randint(1, max_degree)
    pool = alg.letters_of_degree(degree)
    if not pool:
        pool = alg.letters_of_degree(1)
    return rng.choice(pool)


def random_word(
    alg: CoeffAlgebraSpec,
    rng: random.Random,
    max_length: int = MAX_WORD_LENGTH,
    max_letter_degree: int = MAX_LETTER_DEGREE,
    max_total_degree: int | None = None,
):
    length = rng.randint(1, max_length)
    if max_total_degree is not None:
        # every letter costs at least one degree
        length = min(length, max_total_degree)
    letters = []
    budget = max_total_degree
    for position in range(length):
        cap = max_letter_degree
        if budget is not None:
            cap = min(cap, budget - (length - position - 1))
        letter = random_letter(alg, rng, cap)
        letters.append(letter)
        if budget is not None:
            budget -= letter.degree
    return tuple(letters)


def random_coefficient(rng: random.Random) -> int:
    value = rng.randint(1, 3)
    return -value if rng.random() < 0.5 else value


def random_element(
    alg: CoeffAlgebraSpec,
    rng: random.Random,
    max_total_degree: int | None = None,
) -> TensorElement:
    """A small element of the augmentation ideal (no empty-word part)."""
    n_terms = rng.randint(1, MAX_TERMS)
    terms = [
        (random_word(alg, rng, max_total_degree=max_total_degree), random_coefficient(rng))
        for _ in range(n_terms)
    ]
    return TensorElement(terms)


def _random_term(
    rng: random.Random, degree: int, n_generators: int, ops
) -> FreeTerm:
    if degree == 1:
        return gen(rng.randint(1, n_generators))
    split = rng.randint(1, degree - 1)
    build = rng.choice(ops)
    return build(
        _random_term(rng, split, n_generators, ops),
        _random_term(rng, degree - split, n_generators, ops),
    )


def random_ctd_term(
    rng: random.Random, degree: int, n_generators: int = 3
) -> FreeTerm:
    """Random term over < and . with the given number of generator leaves."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    return _random_term(rng, degree, n_generators, (prec, dot))


def random_td_term(
    rng: random.Random, degree: int, n_generators: int = 3
) -> FreeTerm:
    """Random term over < > and . with the given number of generator leaves."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    return _random_term(rng, degree, n_generators, (prec, succ, dot))
