"""Weight-one Rota-Baxter operators and their derived operation calculus.

A linear operator P on an associative algebra R is Rota-Baxter of weight
one when

    P(a) P(b) = P(a P(b) + P(a) b + a b)      for all a, b.

Setting a < b = a P(b), a > b = P(a) b and keeping the algebra product as
the dot yields a tridendriform structure (the seven relations hold), a
commutative one when R is commutative. With a * b = a<b + a>b + a.b the
identity above says exactly that P is an algebra map from (R, *) to (R, .),
so ``check_star_morphism`` and ``verify_rota_baxter`` test the same
equation written two ways.

Everything here is finite dimensional over exact rationals: an algebra is
a table of structure constants, an operator is a matrix, and every law is
a row of a law table checked by ``laws.first_failure`` over all basis
tuples (the laws are multilinear, so that is a complete check):
associativity and commutativity of the algebra, the weight-one identity,
the star morphism, the seven relations and the commutative flips. Every
product, the algebra's and the three derived operations alike, is one
table extended bilinearly by ``_table_product``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .grammar import _join_signed
from .laws import SEVEN, first_failure

Vector = tuple[Fraction, ...]

# The weight-one rows take the operator P after (L, R, D, S), where D is
# the algebra product and S is star_product; they use only D, S and P.
_WEIGHT_ONE = (("P(x)P(y) = P(x*y)", lambda L, R, D, S, P, x, y: (D(P(x), P(y)), P(S(x, y)))),)
_STAR_MORPHISM = (("P(x*y) = P(x)P(y)", lambda L, R, D, S, P, x, y: (P(S(x, y)), D(P(x), P(y)))),)

_COMMUTATIVE = (
    ("commutative flip x>y = y<x", lambda L, R, D, S, x, y: (R(x, y), L(y, x))),
    ("dot commutativity", lambda L, R, D, S, x, y: (D(x, y), D(y, x))),
)


class RotaBaxterError(ValueError):
    """The operator fails the Rota-Baxter identity; carries a witness pair."""


def _zero_vector(dimension: int) -> Vector:
    return (Fraction(0),) * dimension


def _add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def _table_product(table, u: Vector, v: Vector) -> Vector:
    """The bilinear extension of a basis table: ``table[i][j]`` is e_i e_j."""
    out = _zero_vector(len(table))
    for i, ci in enumerate(u):
        if not ci:
            continue
        for j, cj in enumerate(v):
            if not cj:
                continue
            c = ci * cj
            out = _add(out, tuple(c * e for e in table[i][j]))
    return out


@dataclass(frozen=True, eq=False)
class FiniteAlgebra:
    """An associative algebra on an explicit finite basis.

    ``structure[i][j][k]`` is the coefficient of basis vector k in the
    product e_i e_j. Associativity is validated exhaustively on
    construction; ``dimension`` is capped at 5 to keep exhaustive law
    checks cheap.
    """

    name: str
    basis_labels: tuple[str, ...]
    structure: tuple[tuple[Vector, ...], ...]
    is_commutative: bool

    def __post_init__(self) -> None:
        m = self.dimension
        if not 1 <= m <= 5:
            raise ValueError("FiniteAlgebra supports dimensions 1..5")
        if len(self.structure) != m or any(
            len(row) != m or any(len(v) != m for v in row) for row in self.structure
        ):
            raise ValueError("structure constants must form an m x m x m table")
        # associativity is SEVEN's last row, with the algebra product as D
        ops, basis = (None, None, self.multiply, None), self.basis()
        failure = first_failure(SEVEN[6:], ops, basis, 3)
        if failure:
            i, j, k = failure[0]
            raise ValueError(
                f"structure constants are not associative at basis "
                f"triple ({i + 1}, {j + 1}, {k + 1})"
            )
        if self.is_commutative and first_failure(_COMMUTATIVE[1:], ops, basis, 2):
            raise ValueError("algebra flagged commutative is not")

    @property
    def dimension(self) -> int:
        return len(self.basis_labels)

    def basis_vector(self, k: int) -> Vector:
        return tuple(
            Fraction(1) if i == k else Fraction(0) for i in range(self.dimension)
        )

    def basis(self) -> list[Vector]:
        return [self.basis_vector(k) for k in range(self.dimension)]

    def multiply(self, u: Vector, v: Vector) -> Vector:
        return _table_product(self.structure, u, v)

    def render(self, v: Vector) -> str:
        return _join_signed([(label, c) for c, label in zip(v, self.basis_labels) if c])


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """A square matrix of exact rationals acting on column vectors."""

    matrix: tuple[Vector, ...]

    def __post_init__(self) -> None:
        m = len(self.matrix)
        if m == 0 or any(len(row) != m for row in self.matrix):
            raise ValueError("operator matrix must be square and nonempty")

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    def apply(self, v: Vector) -> Vector:
        return tuple(
            sum((row[j] * v[j] for j in range(len(v))), Fraction(0))
            for row in self.matrix
        )


def _operator_ops(algebra: FiniteAlgebra, operator: LinearOperator):
    """The operations ``(L, R, D, S, P)`` of the weight-one rows."""
    if algebra.dimension != operator.dimension:
        raise ValueError("operator and algebra dimensions differ")
    return (None, None, algebra.multiply, partial(star_product, algebra, operator), operator.apply)


def rota_baxter_defect(
    algebra: FiniteAlgebra, operator: LinearOperator, a: Vector, b: Vector
) -> Vector:
    """P(a)P(b) - P(aP(b) + P(a)b + ab); zero exactly when the identity holds."""
    lhs, rhs = _WEIGHT_ONE[0][1](*_operator_ops(algebra, operator), a, b)
    return tuple(x - y for x, y in zip(lhs, rhs))


def verify_rota_baxter(algebra: FiniteAlgebra, operator: LinearOperator) -> bool:
    """Weight-one identity over all basis pairs (bilinear, so complete)."""
    ops = _operator_ops(algebra, operator)
    return first_failure(_WEIGHT_ONE, ops, algebra.basis(), 2) is None


def star_product(
    algebra: FiniteAlgebra, operator: LinearOperator, a: Vector, b: Vector
) -> Vector:
    """a * b = a P(b) + P(a) b + a b, the combined product."""
    pa = operator.apply(a)
    pb = operator.apply(b)
    return _add(
        _add(algebra.multiply(a, pb), algebra.multiply(pa, b)), algebra.multiply(a, b)
    )


def check_star_morphism(algebra: FiniteAlgebra, operator: LinearOperator) -> bool:
    """P(a * b) == P(a) P(b) over all basis pairs."""
    ops = _operator_ops(algebra, operator)
    return first_failure(_STAR_MORPHISM, ops, algebra.basis(), 2) is None


@dataclass(frozen=True, eq=False)
class DerivedStructure:
    """The three derived operations as closed basis tables."""

    algebra: FiniteAlgebra
    operator: LinearOperator
    left_table: tuple[tuple[Vector, ...], ...]
    right_table: tuple[tuple[Vector, ...], ...]
    dot_table: tuple[tuple[Vector, ...], ...]

    def left(self, u: Vector, v: Vector) -> Vector:
        return _table_product(self.left_table, u, v)

    def right(self, u: Vector, v: Vector) -> Vector:
        return _table_product(self.right_table, u, v)

    def dot(self, u: Vector, v: Vector) -> Vector:
        return _table_product(self.dot_table, u, v)

    def star(self, u: Vector, v: Vector) -> Vector:
        return _add(_add(self.left(u, v), self.right(u, v)), self.dot(u, v))


def derived_structure(
    algebra: FiniteAlgebra, operator: LinearOperator
) -> DerivedStructure:
    """Build a < b = a P(b), a > b = P(a) b, a . b = a b as closed tables.

    Refuses with ``RotaBaxterError`` (including a witness pair) when the
    weight-one identity fails. Validates all seven tridendriform relations
    exhaustively over basis triples, and the commuted forms x>y = y<x,
    x.y = y.x when the algebra is commutative.
    """
    m = algebra.dimension
    basis = algebra.basis()
    failure = first_failure(_WEIGHT_ONE, _operator_ops(algebra, operator), basis, 2)
    if failure:
        i, j = failure[0]
        defect = rota_baxter_defect(algebra, operator, basis[i], basis[j])
        raise RotaBaxterError(
            f"weight-one identity fails on basis pair "
            f"({algebra.basis_labels[i]}, {algebra.basis_labels[j]}): "
            f"defect {algebra.render(defect)}"
        )
    left_table = tuple(
        tuple(algebra.multiply(basis[i], operator.apply(basis[j])) for j in range(m))
        for i in range(m)
    )
    right_table = tuple(
        tuple(algebra.multiply(operator.apply(basis[i]), basis[j]) for j in range(m))
        for i in range(m)
    )
    dot_table = tuple(
        tuple(algebra.multiply(basis[i], basis[j]) for j in range(m)) for i in range(m)
    )
    structure = DerivedStructure(algebra, operator, left_table, right_table, dot_table)
    ops = (structure.left, structure.right, structure.dot, structure.star)
    failure = first_failure(SEVEN, ops, basis, 3)
    if failure:
        raise RotaBaxterError(f"derived relation {failure[1]} fails")
    failure = algebra.is_commutative and first_failure(_COMMUTATIVE, ops, basis, 2)
    if failure:
        raise RotaBaxterError(f"{failure[1]} fails")
    return structure


# ---------------------------------------------------------------------------
# builtin examples


@lru_cache(maxsize=None)
def pointwise_function_algebra(points: int) -> FiniteAlgebra:
    """Functions on a finite set with pointwise product: e_i e_j = [i==j] e_i."""
    if not 1 <= points <= 5:
        raise ValueError("pointwise function algebra supports 1..5 points")
    structure = tuple(
        tuple(
            tuple(
                Fraction(1) if i == j == k else Fraction(0) for k in range(points)
            )
            for j in range(points)
        )
        for i in range(points)
    )
    return FiniteAlgebra(
        name=f"functions on {points} points",
        basis_labels=tuple(f"e{i + 1}" for i in range(points)),
        structure=structure,
        is_commutative=True,
    )


@lru_cache(maxsize=None)
def summation_operator(points: int) -> LinearOperator:
    """Strict partial sums: P(f)(n) = sum of f(i) over i < n.

    The discrete analogue of integration; Rota-Baxter of weight one for the
    pointwise product.
    """
    matrix = tuple(
        tuple(Fraction(1) if j < i else Fraction(0) for j in range(points))
        for i in range(points)
    )
    return LinearOperator(matrix)


def zero_operator(dimension: int) -> LinearOperator:
    return LinearOperator(tuple(_zero_vector(dimension) for _ in range(dimension)))


def identity_operator(dimension: int) -> LinearOperator:
    return LinearOperator(
        tuple(
            tuple(Fraction(1) if i == j else Fraction(0) for j in range(dimension))
            for i in range(dimension)
        )
    )


def example_by_name(name: str) -> tuple[FiniteAlgebra, LinearOperator]:
    """CLI registry: summation3 and summation4."""
    examples = {
        "summation3": (pointwise_function_algebra(3), summation_operator(3)),
        "summation4": (pointwise_function_algebra(4), summation_operator(4)),
    }
    if name not in examples:
        known = ", ".join(sorted(examples))
        raise ValueError(f"unknown example {name!r}; known examples: {known}")
    return examples[name]
