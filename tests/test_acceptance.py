"""Acceptance gate: twelve end-to-end checks with wall-clock budgets.

Each test covers one numbered acceptance criterion. All comparisons are
exact (int and Fraction arithmetic, integer counts); the only inequalities
are the timing budgets, asserted with time.perf_counter. The conftest
terminal summary echoes one PASS or FAIL line per criterion after the run.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import factorial
from time import perf_counter

from qshuffle import (
    NormalForm,
    TensorElement,
    atom_letter,
    check_compatibility,
    check_star_morphism,
    comb_term,
    coradical_degree,
    deconcatenate,
    derived_structure,
    eval_ctd,
    fubini,
    fubini_egf_series,
    generating_series_check,
    generator_inclusion,
    generator_projection,
    is_primitive,
    itd_dimension,
    mono_letter,
    normal_form,
    op_dot,
    ordered_ordered_partitions,
    ordered_unordered_partitions,
    pointwise_function_algebra,
    quasi_shuffle,
    quasi_shuffle_paths,
    random_ctd_term,
    random_element,
    reduced_coproduct,
    reduced_coproduct_kernel,
    run_suite,
    stuffle_y_algebra,
    sym_algebra,
    summation_operator,
    verify_rota_baxter,
    weight_letter,
    word_algebra,
    word_letter,
    zero_algebra,
)
from qshuffle.cli import main as cli_main
from qshuffle.laws import PRIMITIVE_DOT, first_failure, splitting_failure, tensor_ops

from conftest import coproduct_then_left, coproduct_then_right, rational_rank

SEED = 20250815

CTD_DIMS = [1, 3, 13, 75, 541, 4683]
ITD_DIMS = [1, 4, 24, 192, 1920]


def _words_up_to(letters, max_length):
    """All words over the given letters with length <= max_length."""
    words = [()]
    frontier = [()]
    for _ in range(max_length):
        frontier = [w + (letter,) for w in frontier for letter in letters]
        words.extend(frontier)
    return words


def _map_square(square, fn):
    """Apply a linear word map to both components of a tensor square."""
    out: dict[tuple, Fraction] = {}
    for (u, v), c in square.items():
        fu = fn(TensorElement.from_word(u))
        fv = fn(TensorElement.from_word(v))
        for wu, cu in fu.items():
            for wv, cv in fv.items():
                key = (wu, wv)
                value = out.get(key, Fraction(0)) + c * cu * cv
                if value:
                    out[key] = value
                else:
                    out.pop(key, None)
    return out


def test_criterion_01_ctd_dimension_table(capsys):
    start = perf_counter()
    enumerated = [len(ordered_unordered_partitions(n)) for n in range(1, 7)]
    recurrence = [fubini(n) for n in range(1, 7)]
    assert enumerated == CTD_DIMS
    assert recurrence == CTD_DIMS
    # Same table through the command-line surface.
    code = cli_main(["dims", "--flavor", "ctd", "--n", "6"])
    out = capsys.readouterr().out
    assert code == 0
    for n, value in enumerate(CTD_DIMS, start=1):
        assert f"{n}: {value} {value} OK" in out
    assert out.rstrip().endswith("PASS")
    assert perf_counter() - start < 10.0


def test_criterion_02_itd_dimension_formula():
    start = perf_counter()
    enumerated = [len(ordered_ordered_partitions(n)) for n in range(1, 6)]
    closed = [itd_dimension(n) for n in range(1, 6)]
    formula = [2 ** (n - 1) * factorial(n) for n in range(1, 6)]
    assert enumerated == ITD_DIMS
    assert closed == ITD_DIMS
    assert formula == ITD_DIMS
    assert perf_counter() - start < 10.0


def test_criterion_03_generating_series_identity():
    start = perf_counter()
    series = fubini_egf_series(10)
    assert len(series) == 11
    # The sum starts at n = 1; the closed form vanishes at the origin.
    assert series[0] == 0
    for k in range(1, 11):
        assert series[k] == Fraction(fubini(k), factorial(k))
    # Closed form equals the composed series coefficientwise.
    assert generating_series_check(10)
    assert perf_counter() - start < 1.0


def test_criterion_04_recursion_matches_path_expansion():
    slices = [
        (sym_algebra(2), (mono_letter((1,)), mono_letter((2,)), mono_letter((1, 2)))),
        (stuffle_y_algebra(), (weight_letter(1), weight_letter(2), weight_letter(3))),
        (word_algebra(2), (word_letter((1,)), word_letter((2,)), word_letter((1, 2)))),
        (zero_algebra(), (atom_letter("a"), atom_letter("b"), atom_letter("c"))),
    ]
    start = perf_counter()
    for alg, letters in slices:
        words = _words_up_to(letters, 6)
        checked = 0
        for u in words:
            for v in words:
                if len(u) + len(v) > 6:
                    continue
                lhs = quasi_shuffle(
                    alg, TensorElement.from_word(u), TensorElement.from_word(v)
                )
                assert lhs == quasi_shuffle_paths(alg, u, v)
                checked += 1
        assert checked == 7108
    assert perf_counter() - start < 60.0


def test_criterion_05_relation_suites_pass():
    start = perf_counter()
    report = run_suite("seven", word_algebra(2), 200, SEED)
    assert report.cases == 200
    assert not report.violations
    for alg in (sym_algebra(2), stuffle_y_algebra(), zero_algebra()):
        report = run_suite("ctd-three", alg, 200, SEED)
        assert report.cases == 200
        assert not report.violations
    assert perf_counter() - start < 60.0


def test_criterion_06_splitting_identity_samples():
    from qshuffle import builtin_algebras

    start = perf_counter()
    for alg in builtin_algebras():
        report = run_suite("splitting", alg, 200, SEED)
        assert report.cases == 200
        assert not report.violations
    assert perf_counter() - start < 10.0


def test_criterion_07_rewriting_soundness_and_idempotence():
    start = perf_counter()
    rng = random.Random(SEED)
    seen_combs = set()
    for _ in range(500):
        term = random_ctd_term(rng, rng.randint(1, 6))
        nf = normal_form(term)
        assert nf.to_element() == eval_ctd(term, 3)
        seen_combs.update(seq for seq, _ in nf.items())
    # Idempotence: every comb in any output is its own normal form.
    assert seen_combs
    for seq in seen_combs:
        assert normal_form(comb_term(seq)) == NormalForm([(seq, 1)])
    assert perf_counter() - start < 60.0


def test_criterion_08_coproduct_compatibility():
    start = perf_counter()
    for alg in (sym_algebra(2), stuffle_y_algebra()):
        rng = random.Random(f"{SEED}:{alg.name}")
        violations = []
        for _ in range(200):
            x = random_element(alg, rng, max_total_degree=3)
            y = random_element(alg, rng, max_total_degree=3)
            violations += check_compatibility(alg, x, y)
            # Deconcatenation is coassociative on the same sample.
            for e in (x, y):
                assert coproduct_then_left(e) == coproduct_then_right(e)
        assert violations == []
    assert perf_counter() - start < 60.0


def test_criterion_09_primitive_closure_and_kernel():
    start = perf_counter()
    for alg in (sym_algebra(2), stuffle_y_algebra(), word_algebra(2), zero_algebra()):
        pool = [
            letter for d in (1, 2, 3) for letter in alg.letters_of_degree(d)
        ]
        singles = [TensorElement.from_word((letter,)) for letter in pool]
        pairs = [(x, y) for x in singles for y in singles]
        ops = tensor_ops(alg, reduced_coproduct)
        assert first_failure(PRIMITIVE_DOT, ops, singles, 2) is None
        for x, y in pairs:
            assert is_primitive(op_dot(alg, x, y))
    # Kernel of the reduced coproduct on low graded pieces: length-one span.
    alg = sym_algebra(2)
    for degree in (1, 2, 3):
        kernel = reduced_coproduct_kernel(alg, degree)
        letters = alg.letters_of_degree(degree)
        assert len(kernel) == len(letters)
        rows = []
        for vector in kernel:
            assert is_primitive(vector)
            assert all(len(w) == 1 for w, _ in vector.terms())
            rows.append({w[0]: c for w, c in vector.items()})
        assert rational_rank(rows) == len(letters)
    assert perf_counter() - start < 30.0


def test_criterion_10_projection_section_and_filtration():
    start = perf_counter()
    alg = sym_algebra(2)
    generators = alg.letters_of_degree(1)
    assert splitting_failure(alg, 4) is None
    pure_words = _words_up_to(generators, 4)
    assert len(pure_words) == 31
    for w in pure_words:
        x = TensorElement.from_word(w)
        assert generator_projection(generator_inclusion(x)) == x
        # Inclusion commutes with deconcatenation on its domain.
        lhs = dict(deconcatenate(generator_inclusion(x)).items())
        assert lhs == _map_square(deconcatenate(x), generator_inclusion)
    # Projection commutes with deconcatenation, fat letters included.
    low_letters = [
        letter for d in (1, 2) for letter in alg.letters_of_degree(d)
    ]
    for w in _words_up_to(low_letters, 3):
        x = TensorElement.from_word(w)
        lhs = dict(deconcatenate(generator_projection(x)).items())
        assert lhs == _map_square(deconcatenate(x), generator_projection)
    # Connectedness: the filtration level of a basis word is its length.
    for w in _words_up_to(low_letters, 4):
        assert coradical_degree(TensorElement.from_word(w)) == len(w)
    assert perf_counter() - start < 30.0


def test_criterion_11_weight_one_operator_structure():
    start = perf_counter()
    algebra = pointwise_function_algebra(3)
    operator = summation_operator(3)
    assert verify_rota_baxter(algebra, operator)
    structure = derived_structure(algebra, operator)
    basis = [algebra.basis_vector(i) for i in range(algebra.dimension)]
    for x, y, z in product(basis, repeat=3):
        lt, rt, dt, st = (
            structure.left,
            structure.right,
            structure.dot,
            structure.star,
        )
        assert lt(lt(x, y), z) == lt(x, st(y, z))
        assert lt(rt(x, y), z) == rt(x, lt(y, z))
        assert rt(st(x, y), z) == rt(x, rt(y, z))
        assert lt(dt(x, y), z) == dt(x, lt(y, z))
        assert dt(lt(x, y), z) == dt(x, rt(y, z))
        assert dt(rt(x, y), z) == rt(x, dt(y, z))
        assert dt(dt(x, y), z) == dt(x, dt(y, z))
    assert check_star_morphism(algebra, operator)
    assert perf_counter() - start < 1.0


def test_criterion_12_involution_reverses_operations():
    start = perf_counter()
    report = run_suite("involution", word_algebra(2), 200, SEED)
    assert report.cases == 200
    assert not report.violations
    assert perf_counter() - start < 30.0
