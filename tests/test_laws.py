"""Randomized law suites and the samplers feeding them."""

import random
from functools import partial
from itertools import product as word_tuples

import pytest

from qshuffle import (
    CoeffAlgebraSpec,
    CoeffCombination,
    LawReport,
    TensorElement,
    atom_letter,
    builtin_algebras,
    op_dot,
    op_left,
    op_right,
    parse_element,
    quasi_shuffle,
    quasi_shuffle_paths,
    run_suite,
    weight_letter,
    word_letter,
)
from qshuffle.laws import MAX_CASES, SEVEN, SUITES, failed_relations, first_failure, tensor_ops
from qshuffle.sampling import MAX_LETTER_DEGREE, random_element, random_word


class TestSampling:
    def test_words_respect_the_total_degree_budget(self, sym2):
        rng = random.Random(127)
        for budget in (1, 2, 3, 4):
            for _ in range(80):
                word = random_word(sym2, rng, max_total_degree=budget)
                assert sum(letter.degree for letter in word) <= budget

    def test_elements_stay_in_the_augmentation_ideal(self, word2):
        rng = random.Random(131)
        for _ in range(60):
            x = random_element(word2, rng, max_total_degree=3)
            assert not x.coefficient(())
            for word, _ in x.terms():
                assert sum(letter.degree for letter in word) <= 3

    def test_letter_degree_cap_still_applies(self, sym3):
        # a budget of 9 would allow a letter of degree 7 without the cap
        rng = random.Random(137)
        degrees = set()
        for _ in range(60):
            word = random_word(sym3, rng, max_total_degree=9)
            degrees.update(letter.degree for letter in word)
        assert degrees == set(range(1, MAX_LETTER_DEGREE + 1))


class TestSuitesPass:
    def test_seven_on_every_builtin(self):
        for alg in builtin_algebras():
            report = run_suite("seven", alg, cases=8, seed=5)
            assert report.ok, report.to_json()

    def test_ctd_three_on_commutative_builtins(self, sym2, stuffle_alg, zero_alg):
        for alg in (sym2, stuffle_alg, zero_alg):
            report = run_suite("ctd-three", alg, cases=8, seed=5)
            assert report.ok

    def test_splitting_everywhere(self):
        for alg in builtin_algebras():
            assert run_suite("splitting", alg, cases=10, seed=2).ok

    def test_involution_where_available(self, stuffle_alg, sym2, word2, word3):
        for alg in (stuffle_alg, sym2, word2, word3):
            assert alg.involution_rule is not None
            assert run_suite("involution", alg, cases=10, seed=3).ok

    def test_compat_suite(self, sym2, stuffle_alg):
        for alg in (sym2, stuffle_alg):
            assert run_suite("bialgebra-compat", alg, cases=6, seed=11).ok

    def test_report_shape(self, sym2):
        report = run_suite("splitting", sym2, cases=4, seed=9)
        assert isinstance(report, LawReport)
        assert (report.suite, report.algebra) == ("splitting", "sym2")
        assert (report.cases, report.seed) == (4, 9)
        data = report.to_json()
        assert data["ok"] is True
        assert data["violations"] == []

    def test_failed_relations_names_the_broken_law(self, stuffle_alg):
        ops = [partial(op, stuffle_alg) for op in (op_left, op_right, op_dot, quasi_shuffle)]
        y1 = TensorElement.from_letter(weight_letter(1))
        assert list(failed_relations(SEVEN, ops, y1, y1, y1)) == []
        # < in place of .: (y1<y1)<y1 = 2 y1.y1.y1 + y1.y2, y1<(y1<y1) = y1.y1.y1
        broken = (ops[0], ops[1], ops[0], ops[3])
        failed = {name: (lhs, rhs) for name, lhs, rhs in failed_relations(SEVEN, broken, y1, y1, y1)}
        assert failed["(x.y).z = x.(y.z)"] == (
            parse_element(stuffle_alg, "2*y1.y1.y1 + y1.y2"),
            parse_element(stuffle_alg, "y1.y1.y1"),
        )


# rows over plain ints, for the search order alone; the op slots go unused
_SUM_BELOW_4 = ("x+y+z < 4", lambda L, R, D, S, x, y, z: (x + y + z < 4, True))
_Z_BELOW_2 = ("z < 2", lambda L, R, D, S, x, y, z: (z < 2, True))
_NO_OPS = (None,) * 4


class TestFirstFailure:
    def test_arity_one_returns_the_first_failing_index(self):
        below_2 = (("x < 2", lambda L, R, D, S, x: (x < 2, True)),)
        assert first_failure(below_2, _NO_OPS, [0, 1, 5, 2], 1) == ((2,), "x < 2", False, True)
        assert first_failure(below_2, _NO_OPS, [0, 1], 1) is None

    def test_arity_two_searches_in_lexicographic_index_order(self):
        below_3 = (("x+y < 3", lambda L, R, D, S, x, y: (x + y < 3, True)),)
        # (1, 2) is the first failing pair; (2, 1) and (2, 2) come after it
        assert first_failure(below_3, _NO_OPS, [0, 1, 2], 2) == ((1, 2), "x+y < 3", False, True)
        assert first_failure(below_3, _NO_OPS, [0, 1], 2) is None

    def test_arity_three_takes_the_first_tuple_then_the_first_row(self):
        basis = [0, 1, 2]
        assert first_failure((_SUM_BELOW_4,), _NO_OPS, basis, 3)[:2] == ((0, 2, 2), "x+y+z < 4")
        # the first failing triple decides: with both rows it is (0, 0, 2),
        # where only the later row fails
        assert first_failure((_SUM_BELOW_4, _Z_BELOW_2), _NO_OPS, basis, 3)[:2] == (
            (0, 0, 2),
            "z < 2",
        )
        # on a triple where both rows fail, the earlier row is named
        assert first_failure((_SUM_BELOW_4, _Z_BELOW_2), _NO_OPS, [2], 3)[1] == "x+y+z < 4"
        assert first_failure((_Z_BELOW_2, _SUM_BELOW_4), _NO_OPS, [2], 3)[1] == "z < 2"
        assert first_failure((_SUM_BELOW_4, _Z_BELOW_2), _NO_OPS, [0, 1], 3) is None

    def test_seven_names_the_first_broken_row(self, stuffle_alg):
        ops = tensor_ops(stuffle_alg)
        basis = [TensorElement.from_letter(weight_letter(k)) for k in (1, 2)]
        assert first_failure(SEVEN, ops, basis, 3) is None
        # < in place of .: the first row using the dot fails on (y1, y1, y1)
        broken = (ops[0], ops[1], ops[0], ops[3])
        assert first_failure(SEVEN, broken, basis, 3) == (
            (0, 0, 0),
            "(x.y)<z = x.(y<z)",
            parse_element(stuffle_alg, "2*y1.y1.y1 + y1.y2"),
            parse_element(stuffle_alg, "y1.y1.y1"),
        )


class TestDeterminism:
    def test_repeat_runs_are_identical(self, word2):
        a = run_suite("involution", word2, cases=12, seed=21)
        b = run_suite("involution", word2, cases=12, seed=21)
        assert a == b


def _sum_product_algebra() -> CoeffAlgebraSpec:
    """Letter product a.b = a + b: commutative but not associative."""
    names = tuple("abcdef")

    def product(a, b):
        return CoeffCombination([(a, 1), (b, 1)])

    return CoeffAlgebraSpec(
        name="sum-product",
        letter_style="atom",
        product_rule=product,
        member_rule=lambda l: l.kind == "atom" and l.payload in names,
        degree_slice=lambda d: tuple(atom_letter(c) for c in names)
        if d == 1
        else (),
        involution_rule=None,
    )


def _frozen_involution_algebra() -> CoeffAlgebraSpec:
    """Noncommutative concatenation with the identity involution.

    The identity is an algebra morphism, not an anti-morphism, so the
    reversal laws must be reported as violated.
    """

    def product(a, b):
        return CoeffCombination([(word_letter(a.payload + b.payload), 1)])

    def member(letter):
        return letter.kind == "word" and all(i in (1, 2) for i in letter.payload)

    def slice_(degree):
        if degree == 1:
            return (word_letter((1,)), word_letter((2,)))
        out = []
        for i in (1, 2):
            for j in (1, 2):
                if degree == 2:
                    out.append(word_letter((i, j)))
        return tuple(out)

    return CoeffAlgebraSpec(
        name="frozen-involution",
        letter_style="word",
        product_rule=product,
        member_rule=member,
        degree_slice=slice_,
        involution_rule=lambda l: l,
    )


class TestViolationDetection:
    def test_non_associative_product_is_caught(self):
        alg = _sum_product_algebra()
        report = run_suite("seven", alg, cases=20, seed=7)
        assert not report.ok
        laws_hit = {v.law for v in report.violations}
        assert "(x.y).z = x.(y.z)" in laws_hit
        violation = report.violations[0]
        assert violation.lhs != violation.rhs
        assert len(violation.inputs) == 3
        json_form = violation.to_json()
        assert set(json_form) == {"law", "case", "inputs", "lhs", "rhs"}

    def test_identity_involution_on_noncommutative_letters_is_caught(self):
        alg = _frozen_involution_algebra()
        report = run_suite("involution", alg, cases=20, seed=7)
        assert not report.ok
        laws_hit = {v.law for v in report.violations}
        assert "s(x.y) = s(y).s(x)" in laws_hit

    def test_compat_violation_renders_tensor_squares(self, sym2, monkeypatch):
        from qshuffle.bialg import square_dot

        monkeypatch.setattr("qshuffle.laws.square_left", square_dot)
        report = run_suite("bialgebra-compat", sym2, cases=5, seed=3)
        assert not report.ok
        assert {v.law for v in report.violations} == {"coproduct is a morphism for left"}
        violation = report.violations[0]
        assert " (x) " in violation.lhs and " (x) " in violation.rhs
        assert len(violation.inputs) == 2 and " (x) " not in violation.inputs[0]

    def test_violations_are_sorted_by_case(self):
        report = run_suite("seven", _sum_product_algebra(), cases=15, seed=13)
        indices = [v.case_index for v in report.violations]
        assert indices == sorted(indices)


class TestArgumentValidation:
    def test_unknown_suite(self, sym2):
        with pytest.raises(ValueError, match="splitting"):
            run_suite("octagon", sym2, cases=5, seed=0)

    def test_negative_cases(self, sym2):
        with pytest.raises(ValueError):
            run_suite("seven", sym2, cases=-1, seed=0)

    @pytest.mark.parametrize("cases", [0, MAX_CASES + 1])
    def test_case_count_outside_the_bound_is_refused(self, sym2, cases):
        with pytest.raises(ValueError, match=f"got {cases}$"):
            run_suite("seven", sym2, cases=cases, seed=1)

    def test_degree_must_be_positive(self, sym2):
        with pytest.raises(ValueError):
            run_suite("seven", sym2, cases=5, seed=0, max_degree=0)


class TestLettersWithARepeatedFactor:
    """Letters whose product repeats a factor, e_i.e_i = e_i, over the
    functions on 3 points; no builtin algebra's product does."""

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_every_suite_passes(self, fun3_spec, suite):
        report = run_suite(suite, fun3_spec, cases=100, seed=26)
        assert report.ok and report.cases == 100, report.violations[:1]

    def test_the_recursion_matches_the_path_oracle(self, fun3_spec):
        letters = fun3_spec.degree_slice(1)
        words = [w for n in range(6) for w in word_tuples(letters, repeat=n)]
        pairs = [(u, v) for u in words for v in words if len(u) + len(v) <= 5]
        assert len(pairs) == 2005
        for u, v in pairs:
            recursion = quasi_shuffle(
                fun3_spec, TensorElement.from_word(u), TensorElement.from_word(v)
            )
            assert recursion == quasi_shuffle_paths(fun3_spec, u, v), (u, v)
