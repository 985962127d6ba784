"""Shared fixtures and independent oracles used across the test suite.

The oracles here deliberately avoid the library's own recursions: the
shuffle oracle enumerates interleavings with itertools, the Delannoy
oracle is the two-variable recurrence, and the filtration oracle unfolds
the coproduct-based definition of the coradical degree step by step.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from qshuffle import (
    CoeffAlgebraSpec,
    CoeffCombination,
    TensorElement,
    atom_letter,
    deconcatenate,
    pointwise_function_algebra,
    stuffle_y_algebra,
    sym_algebra,
    word_algebra,
    zero_algebra,
)
from qshuffle import bialg, tensorq


@pytest.fixture(scope="session")
def zero_alg():
    return zero_algebra()


@pytest.fixture(scope="session")
def stuffle_alg():
    return stuffle_y_algebra()


@pytest.fixture(scope="session")
def sym2():
    return sym_algebra(2)


@pytest.fixture(scope="session")
def sym3():
    return sym_algebra(3)


@pytest.fixture(scope="session")
def word2():
    return word_algebra(2)


@pytest.fixture(scope="session")
def word3():
    return word_algebra(3)


@pytest.fixture(scope="session")
def fun3_spec():
    """Letters e1, e2, e3, the basis of the functions on 3 points, with the
    pointwise product e_i.e_j = [i = j] e_i read from ``rota``'s structure
    constants: a letter product that repeats a factor, e_i.e_i = e_i."""
    functions = pointwise_function_algebra(3)
    letters = tuple(map(atom_letter, functions.basis_labels))
    index = {letter: k for k, letter in enumerate(letters)}

    def product(a, b):
        image = functions.multiply(
            functions.basis_vector(index[a]), functions.basis_vector(index[b])
        )
        return CoeffCombination((letters[k], c) for k, c in image.items())

    return CoeffAlgebraSpec(
        name="fun3",
        letter_style="atom",
        product_rule=product,
        member_rule=index.__contains__,
        degree_slice=lambda degree: letters if degree == 1 else (),
        involution_rule=lambda letter: letter,  # the product commutes
    )


@pytest.fixture
def letter_walks(monkeypatch):
    """Calls of ``_check_words``, the walk over an argument's letters, by the
    module that made them: ``qshuffle.tensorq`` (products and partial
    operations) or ``qshuffle.bialg`` (tensor squares)."""
    calls = Counter()
    for module in (tensorq, bialg):

        def counted(alg, words, walk=module._check_words, name=module.__name__):
            calls[name] += 1
            return walk(alg, words)

        monkeypatch.setattr(module, "_check_words", counted)
    return calls


def letter_product_commutes(alg) -> bool:
    """Whether a builtin algebra's letter product is commutative, written out
    here: zero, stuffle-y, every symN and word1 commute; wordN for N >= 2 not."""
    return alg.name in ("zero", "stuffle-y", "word1") or alg.name.startswith("sym")


def shuffle_oracle(u, v):
    """Interleavings of two words with multiplicity, via position choices.

    Chooses the positions of u's letters among len(u)+len(v) slots; this is
    the textbook shuffle and is independent of the product recursion.
    """
    p, q = len(u), len(v)
    out: dict[tuple, int] = {}
    for positions in combinations(range(p + q), p):
        chosen = set(positions)
        word = []
        ui = vi = 0
        for slot in range(p + q):
            if slot in chosen:
                word.append(u[ui])
                ui += 1
            else:
                word.append(v[vi])
                vi += 1
        key = tuple(word)
        out[key] = out.get(key, 0) + 1
    return out


def delannoy_oracle(p: int, q: int) -> int:
    """Lattice-path counts with unit right/up/diagonal steps."""
    if p == 0 or q == 0:
        return 1
    return (
        delannoy_oracle(p - 1, q)
        + delannoy_oracle(p, q - 1)
        + delannoy_oracle(p - 1, q - 1)
    )


def coradical_degree_oracle(x: TensorElement) -> int:
    """Unfold the filtration definition instead of reading word lengths.

    The zero element and multiples of the unit sit at level 0. Otherwise
    the level is one more than the deepest level among the two-sided
    pieces of the reduced part of the coproduct.
    """
    support = [w for w, _ in x.terms() if w]
    if not support:
        return 0
    deepest = 0
    for word, _ in x.items():
        if not word:
            continue
        pieces = deconcatenate(TensorElement.from_word(word))
        for (u, v), _ in pieces.items():
            if u and v:
                level = max(
                    coradical_degree_oracle(TensorElement.from_word(u)),
                    coradical_degree_oracle(TensorElement.from_word(v)),
                )
                deepest = max(deepest, level)
    return deepest + 1


TripleTensor = dict[tuple, Fraction]


def _split_word(word):
    for i in range(len(word) + 1):
        yield word[:i], word[i:]


def coproduct_then_left(x: TensorElement) -> TripleTensor:
    """(split-first-factor) after deconcatenation, as a triple tensor."""
    out: TripleTensor = {}
    for (u, v), c in deconcatenate(x).items():
        for u1, u2 in _split_word(u):
            key = (u1, u2, v)
            value = out.get(key, Fraction(0)) + c
            if value:
                out[key] = value
            else:
                out.pop(key, None)
    return out


def coproduct_then_right(x: TensorElement) -> TripleTensor:
    """(split-second-factor) after deconcatenation, as a triple tensor."""
    out: TripleTensor = {}
    for (u, v), c in deconcatenate(x).items():
        for v1, v2 in _split_word(v):
            key = (u, v1, v2)
            value = out.get(key, Fraction(0)) + c
            if value:
                out[key] = value
            else:
                out.pop(key, None)
    return out


# Outcome per acceptance criterion, filled by the logreport hook and
# echoed after the run so the pass/fail lines survive output capture.
_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if name.startswith("test_criterion_"):
        _ACCEPTANCE_RESULTS[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        stem = name.removeprefix("test_criterion_")
        number, _, rest = stem.partition("_")
        label = f"criterion {int(number)}: {rest.replace('_', ' ')}"
        verdict = "PASS" if _ACCEPTANCE_RESULTS[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict} {label}")


def rational_rank(rows: list[dict]) -> int:
    """Rank of a sparse rational matrix given as dicts keyed by column."""
    basis: dict[object, dict] = {}
    for row in rows:
        current = {k: Fraction(v) for k, v in row.items() if v}
        while current:
            lead = min(current, key=repr)
            if lead in basis:
                pivot_row = basis[lead]
                factor = current[lead] / pivot_row[lead]
                for col, value in pivot_row.items():
                    updated = current.get(col, Fraction(0)) - factor * value
                    if updated:
                        current[col] = updated
                    else:
                        current.pop(col, None)
            else:
                basis[lead] = current
                break
    return len(basis)
