"""Finite-dimensional weight-one operators and their derived operations."""

import random
from fractions import Fraction
from itertools import product

import pytest

from qshuffle import (
    DerivedStructure,
    FiniteAlgebra,
    LinearOperator,
    RotaBaxterError,
    check_star_morphism,
    derived_structure,
    example_by_name,
    pointwise_function_algebra,
    summation_operator,
    verify_rota_baxter,
)
from qshuffle import rota
from qshuffle.cli import main
from qshuffle.laws import SEVEN, failed_relations, first_failure
from qshuffle.lincomb import LinearCombination

F0 = Fraction(0)
F1 = Fraction(1)

# e1 is a left identity only: e1 e2 = e2 but e2 e1 = 0
NONCOMMUTATIVE = (
    ((F1, F0), (F0, F1)),
    ((F0, F0), (F0, F0)),
)


# the zero operator is Rota-Baxter of weight one on any algebra, the identity not
ZERO3 = LinearOperator(((F0, F0, F0),) * 3)
IDENTITY3 = LinearOperator(((F1, F0, F0), (F0, F1, F0), (F0, F0, F1)))


def vec(*entries):
    return LinearCombination(enumerate(Fraction(e) for e in entries))


def defect(algebra, operator, a, b):
    """P(a)P(b) - P(aP(b) + P(a)b + ab); zero exactly when the identity holds."""
    p = operator.apply
    return algebra.multiply(p(a), p(b)) - p(DerivedStructure(algebra, operator).star(a, b))


@pytest.fixture(scope="module")
def fun3():
    return pointwise_function_algebra(3)


@pytest.fixture(scope="module")
def sum3():
    return summation_operator(3)


class TestFiniteAlgebra:
    def test_pointwise_product(self, fun3):
        e1 = fun3.basis_vector(0)
        e2 = fun3.basis_vector(1)
        assert fun3.multiply(e1, e1) == e1
        assert fun3.multiply(e1, e2) == vec(0, 0, 0)
        both = vec(1, 1, 0)
        assert fun3.multiply(both, both) == both

    def test_non_associative_structure_rejected(self):
        # e1 e1 = e2, e1 e2 = e1, everything else zero: (e1e1)e1 != e1(e1e1)
        structure = (
            ((F0, F1), (F1, F0)),
            ((F0, F0), (F0, F0)),
        )
        with pytest.raises(ValueError) as refused:
            FiniteAlgebra("bad", ("e1", "e2"), structure)
        assert str(refused.value) == (
            "structure constants are not associative at basis triple (1, 1, 1)"
        )

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            FiniteAlgebra("empty", (), ())

    def test_misshapen_table_rejected(self):
        structure = (((F1,),),)
        FiniteAlgebra("ok", ("e1",), structure)
        with pytest.raises(ValueError):
            FiniteAlgebra("ragged", ("e1", "e2"), structure)

    def test_commutativity_flag_is_checked(self):
        assert not FiniteAlgebra("nc", ("e1", "e2"), NONCOMMUTATIVE).is_commutative
        assert pointwise_function_algebra(3).is_commutative

    def test_commutativity_is_computed_and_read(self, monkeypatch):
        # the dual numbers: e1 is the unit and e2 e2 = 0
        structure = (((F1, F0), (F0, F1)), ((F0, F1), (F0, F0)))
        dual = FiniteAlgebra("dual", ("e1", "e2"), structure)
        assert dual.is_commutative
        tables = []

        def recording(table, *args):
            tables.append(table)
            return first_failure(table, *args)

        monkeypatch.setattr(rota, "first_failure", recording)
        # -1 times the identity is Rota-Baxter of weight one on any algebra
        derived_structure(dual, LinearOperator(((-F1, F0), (F0, -F1))))
        assert rota._COMMUTATIVE in tables

    def test_render(self, fun3):
        assert fun3.render(vec(0, 0, 0)) == "0"
        assert fun3.render(vec(1, -1, 0)) == "e1 - e2"
        assert fun3.render(vec(0, 0, Fraction(3, 2))) == "3/2*e3"
        assert fun3.render(vec(2, 0, 0)) == "2*e1"
        assert fun3.render(vec(-1, 0, 2)) == "-e1 + 2*e3"
        assert fun3.render(vec(Fraction(-3, 2), 1, 0)) == "-3/2*e1 + e2"

    def test_basis_vector_refuses_indices_outside_the_basis(self, fun3):
        assert fun3.basis_vector(2) == vec(0, 0, 1)
        for k in (-1, fun3.dimension):
            with pytest.raises(ValueError, match="0 <= k < 3"):
                fun3.basis_vector(k)

    @pytest.mark.parametrize("key", [-1, -3, 3])
    def test_multiply_refuses_keys_outside_the_basis(self, fun3, key):
        outside = LinearCombination({key: 1})
        for u, v in ((outside, outside), (vec(1, 0, 2), outside), (outside, vec(1, 0, 2))):
            with pytest.raises(ValueError, match=f"0 <= k < 3, got {key}$"):
                fun3.multiply(u, v)

    def test_bounds_on_builtin_factory(self):
        with pytest.raises(ValueError):
            pointwise_function_algebra(0)
        with pytest.raises(ValueError):
            pointwise_function_algebra(6)


class TestLinearOperator:
    def test_matrix_must_be_square(self):
        with pytest.raises(ValueError):
            LinearOperator(((F1, F0),))
        with pytest.raises(ValueError):
            LinearOperator(())

    def test_summation_applies_strict_prefix_sums(self, sum3):
        assert sum3.apply(vec(1, 0, 0)) == vec(0, 1, 1)
        assert sum3.apply(vec(1, 2, 4)) == vec(0, 1, 3)

    def test_dimension_mismatch_raises(self, fun3):
        with pytest.raises(ValueError):
            verify_rota_baxter(fun3, summation_operator(4))

    def test_derived_structure_refuses_a_dimension_mismatch(self, fun3):
        with pytest.raises(ValueError, match="^operator and algebra dimensions differ$"):
            DerivedStructure(fun3, summation_operator(4))

    @pytest.mark.parametrize("key", [-2, -1, 3])
    def test_apply_refuses_keys_outside_the_basis(self, sum3, key):
        for v in (LinearCombination({key: 1}), LinearCombination({0: 1, key: 2})):
            with pytest.raises(ValueError, match=f"0 <= k < 3, got {key}$"):
                sum3.apply(v)


class TestWeightOneIdentity:
    def test_summation_examples_pass(self):
        for points in (3, 4):
            assert verify_rota_baxter(
                pointwise_function_algebra(points), summation_operator(points)
            )

    def test_defect_example_on_indicators(self, fun3, sum3):
        e1 = fun3.basis_vector(0)
        pe1 = sum3.apply(e1)
        assert fun3.multiply(pe1, pe1) == vec(0, 1, 1)  # P(e1)P(e1) = e2 + e3
        assert defect(fun3, sum3, e1, e1) == vec(0, 0, 0)

    def test_zero_operator_passes(self, fun3):
        assert verify_rota_baxter(fun3, ZERO3)

    def test_identity_operator_fails(self, fun3):
        p = IDENTITY3
        assert not verify_rota_baxter(fun3, p)
        # the defect on (e1, e1): lhs e1, rhs P(3 e1) = 3 e1
        e1 = fun3.basis_vector(0)
        assert defect(fun3, p, e1, e1) == vec(-2, 0, 0)


class TestDerivedStructure:
    def test_summation_structure_builds(self, fun3, sum3):
        structure = derived_structure(fun3, sum3)
        e1 = fun3.basis_vector(0)
        e2 = fun3.basis_vector(1)
        # P(e2) = e3, disjoint from e1 under the pointwise product
        assert structure.left(e1, e2) == vec(0, 0, 0)
        assert structure.right(e1, e2) == vec(0, 1, 0)
        assert structure.dot(e1, e2) == vec(0, 0, 0)
        assert structure.star(e1, e2) == vec(0, 1, 0)

    def test_seven_relations_exhaustively(self, fun3, sum3):
        structure = derived_structure(fun3, sum3)
        basis = [fun3.basis_vector(k) for k in range(3)]
        for x, y, z in product(basis, repeat=3):
            star_yz = structure.star(y, z)
            assert structure.left(structure.left(x, y), z) == structure.left(
                x, star_yz
            )
            assert structure.dot(structure.dot(x, y), z) == structure.dot(
                x, structure.dot(y, z)
            )

    def test_failed_relations_on_vectors(self, fun3, sum3):
        structure = derived_structure(fun3, sum3)
        ops = (structure.left, structure.right, structure.dot, structure.star)
        basis = [fun3.basis_vector(k) for k in range(3)]
        triples = list(product(basis, repeat=3))
        assert not [f for t in triples for f in failed_relations(SEVEN, ops, *t)]
        # < in place of .: (e3 < e1) < e1 = e3 P(e1) P(e1) = e3, but
        # e3 < (e1 < e1) = e3 P(e1 P(e1)) = 0
        broken = (structure.left, structure.right, structure.left, structure.star)
        e1, e3 = basis[0], basis[2]
        failed = {name: (lhs, rhs) for name, lhs, rhs in failed_relations(SEVEN, broken, e3, e1, e1)}
        assert failed["(x.y).z = x.(y.z)"] == (vec(0, 0, 1), vec(0, 0, 0))

    def test_commutative_flip_holds(self, fun3, sum3):
        structure = derived_structure(fun3, sum3)
        basis = [fun3.basis_vector(k) for k in range(3)]
        for x, y in product(basis, repeat=2):
            assert structure.right(x, y) == structure.left(y, x)

    def test_zero_operator_degenerates_to_dot(self, fun3):
        structure = derived_structure(fun3, ZERO3)
        basis = [fun3.basis_vector(k) for k in range(3)]
        for x, y in product(basis, repeat=2):
            assert structure.left(x, y) == vec(0, 0, 0)
            assert structure.right(x, y) == vec(0, 0, 0)
            assert structure.star(x, y) == fun3.multiply(x, y)

    # a row whose sides differ on every nonzero basis vector, for either arity
    BROKEN = (("x = x + x", lambda L, R, D, S, x, *rest: (x, x + x)),)

    def test_a_failed_derived_relation_is_refused(self, fun3, sum3, monkeypatch):
        monkeypatch.setattr(rota, "SEVEN", self.BROKEN)
        with pytest.raises(RotaBaxterError, match=r"^derived relation x = x \+ x fails$"):
            derived_structure(fun3, sum3)

    def test_a_failed_commuted_form_is_refused(self, fun3, sum3, monkeypatch):
        assert fun3.is_commutative
        monkeypatch.setattr(rota, "_COMMUTATIVE", self.BROKEN)
        with pytest.raises(RotaBaxterError, match=r"^x = x \+ x fails$"):
            derived_structure(fun3, sum3)

    def test_identity_operator_refused_with_witness(self, fun3):
        with pytest.raises(RotaBaxterError) as refused:
            derived_structure(fun3, IDENTITY3)
        assert str(refused.value) == (
            "weight-one identity fails on basis pair (e1, e1): defect -2*e1"
        )


class TestStarMorphism:
    def test_summation_star_morphism(self, fun3, sum3):
        assert check_star_morphism(fun3, sum3)

    def test_the_star_morphism_is_the_weight_one_check(self):
        assert check_star_morphism is verify_rota_baxter

    def test_rota_verify_searches_the_identity_once_before_the_relations(
        self, monkeypatch, capsys
    ):
        # once for the three verdict lines, once inside derived_structure
        calls = []

        def counted(structure):
            calls.append(structure)
            return failure(structure)

        failure = rota._weight_one_failure
        monkeypatch.setattr(rota, "_weight_one_failure", counted)
        assert main(["rota", "verify", "--example", "summation4"]) == 0
        assert len(calls) == 2
        assert capsys.readouterr().out.splitlines()[1:] == [
            "weight-one identity: PASS",
            "star morphism: PASS",
            "derived relations: PASS",
            "PASS",
        ]

    def test_star_product_example(self, fun3, sum3):
        e1 = fun3.basis_vector(0)
        # e1 * e1 = e1 P(e1) + P(e1) e1 + e1 e1 = 0 + 0 + e1
        assert DerivedStructure(fun3, sum3).star(e1, e1) == e1

    def test_equivalence_with_the_identity_check(self, fun3):
        # each verdict against the identity computed on dense vectors, with a
        # basis pair where it fails for each operator that is refused
        def apply(matrix, v):
            return [sum(row[j] * v[j] for j in range(3)) for row in matrix]

        def times(u, v):  # the pointwise product of fun3
            return [a * b for a, b in zip(u, v)]

        def dense_defect(matrix, i, j):
            a, b = ([F1 if k == m else F0 for k in range(3)] for m in (i, j))
            pa, pb = apply(matrix, a), apply(matrix, b)
            star = [x + y + z for x, y, z in zip(times(a, pb), times(pa, b), times(a, b))]
            return [x - y for x, y in zip(times(pa, pb), apply(matrix, star))]

        half = tuple(tuple(Fraction(i * j + 1, 2) for j in range(3)) for i in range(3))
        cyclic = ((F0, F1, F0), (F0, F0, F1), (F1, F0, F0))
        operators = [summation_operator(3), ZERO3, IDENTITY3, LinearOperator(half),
                     LinearOperator(cyclic)]
        verdicts = [verify_rota_baxter(fun3, op) for op in operators]
        assert verdicts == [True, True, False, False, False]
        for op in operators[:2]:
            pairs = product(range(3), repeat=2)
            assert not any(any(dense_defect(op.matrix, i, j)) for i, j in pairs)
        for op, (i, j) in zip(operators[2:], [(0, 0), (0, 1), (0, 2)]):
            assert any(dense_defect(op.matrix, i, j)), (op, i, j)


class TestExamples:
    def test_registry(self):
        alg, op = example_by_name("summation3")
        assert alg.dimension == 3 and op.dimension == 3
        alg4, op4 = example_by_name("summation4")
        assert alg4.dimension == 4
        assert verify_rota_baxter(alg4, op4)

    def test_registry_builds_only_the_named_example(self, monkeypatch):
        built = []
        original = rota.pointwise_function_algebra
        monkeypatch.setattr(
            rota, "pointwise_function_algebra", lambda n: built.append(n) or original(n)
        )
        example_by_name("summation4")
        assert built == [4]
        with pytest.raises(ValueError):
            example_by_name("integration")
        assert built == [4]

    def test_unknown_example(self):
        with pytest.raises(ValueError, match="summation3"):
            example_by_name("integration")


def _random_entries(rng, m):
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(m)]


class TestIndependentOracle:
    """Every product against sums over the dense constants, written out here."""

    @staticmethod
    def dense_multiply(structure, u, v):
        m = len(structure)
        return [
            sum(u[i] * v[j] * structure[i][j][k] for i in range(m) for j in range(m))
            for k in range(m)
        ]

    @staticmethod
    def dense_apply(matrix, v):
        return [sum(row[j] * v[j] for j in range(len(v))) for row in matrix]

    @staticmethod
    def dense(x, m):
        assert set(k for k, _ in x.items()) <= set(range(m))
        assert not any(isinstance(c, float) for _, c in x.items())
        return [x.coefficient(k) for k in range(m)]

    @pytest.mark.parametrize("case", ["fun3-summation", "noncommutative-dense", "fun3-dense"])
    def test_random_rational_vectors(self, case):
        rng = random.Random(f"rota-oracle:{case}")
        if case == "noncommutative-dense":
            algebra = FiniteAlgebra("nc", ("e1", "e2"), NONCOMMUTATIVE)
        else:
            algebra = pointwise_function_algebra(3)
        m = algebra.dimension
        if case == "fun3-summation":
            operator = summation_operator(3)
        else:
            operator = LinearOperator(tuple(tuple(_random_entries(rng, m)) for _ in range(m)))
        structure, matrix = algebra.structure, operator.matrix
        derived = DerivedStructure(algebra, operator)
        for _ in range(25):
            a, b = _random_entries(rng, m), _random_entries(rng, m)
            u, v = LinearCombination(enumerate(a)), LinearCombination(enumerate(b))
            pa, pb = self.dense_apply(matrix, a), self.dense_apply(matrix, b)
            left = self.dense_multiply(structure, a, pb)
            right = self.dense_multiply(structure, pa, b)
            dot = self.dense_multiply(structure, a, b)
            star = [x + y + z for x, y, z in zip(left, right, dot)]
            assert self.dense(operator.apply(u), m) == pa
            assert self.dense(algebra.multiply(u, v), m) == dot
            assert self.dense(derived.left(u, v), m) == left
            assert self.dense(derived.right(u, v), m) == right
            assert self.dense(derived.dot(u, v), m) == dot
            assert self.dense(derived.star(u, v), m) == star
