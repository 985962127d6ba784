"""Weight-one Rota-Baxter operators and their derived operation calculus.

A linear operator P on an associative algebra R is Rota-Baxter of weight
one when

    P(a) P(b) = P(a P(b) + P(a) b + a b)      for all a, b.

Setting a < b = a P(b), a > b = P(a) b and keeping the algebra product as
the dot yields a tridendriform structure (the seven relations hold), a
commutative one when R is commutative. With a * b = a<b + a>b + a.b the
identity above says exactly that P is an algebra map from (R, *) to (R, .),
so ``check_star_morphism`` is ``verify_rota_baxter``, one check of the
row ``_WEIGHT_ONE``. ``DerivedStructure`` is the one place where <, >, .
and * are defined; the weight-one row reads its . and *.

Everything here is finite dimensional over exact rationals: an algebra is
a table of structure constants, an operator is a matrix, and a vector is a
``LinearCombination`` keyed by basis index. Every law is a row of a law
table checked by ``laws.first_failure`` over all basis tuples (the laws
are multilinear, so that is a complete check): associativity and
commutativity of the algebra, the weight-one identity (the star morphism),
the seven relations and the commutative flips. The algebra product is its
structure constants extended by ``lincomb.bilinear``, and the three
derived operations are that product with P applied to one side or none.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial

from .coeff import _Frozen
from .grammar import _join_signed
from .laws import SEVEN, first_failure
from .lincomb import LinearCombination, Scalar, add_into, as_scalar, bilinear

# The weight-one row takes the operator P after (L, R, D, S), where D is
# the algebra product and S the combined product; it uses only D, S and P.
_WEIGHT_ONE = (("P(x)P(y) = P(x*y)", lambda L, R, D, S, P, x, y: (D(P(x), P(y)), P(S(x, y)))),)

_COMMUTATIVE = (
    ("commutative flip x>y = y<x", lambda L, R, D, S, x, y: (R(x, y), L(y, x))),
    ("dot commutativity", lambda L, R, D, S, x, y: (D(x, y), D(y, x))),
)


class RotaBaxterError(ValueError):
    """The operator fails the Rota-Baxter identity; carries a witness pair."""


def _index_error(indices: frozenset, *vectors: LinearCombination) -> ValueError:
    """The refusal of the first key of ``vectors`` outside the basis
    ``indices``: the tables are indexed by the keys, and a negative key
    would wrap around."""
    k = next(k for v in vectors for k in v._terms if k not in indices)
    return ValueError(f"basis index must satisfy 0 <= k < {len(indices)}, got {k}")


def _sparse(entries) -> dict:
    """A dense coefficient row as a zero-free dict keyed by index."""
    return {k: as_scalar(c) for k, c in enumerate(entries) if c}


class FiniteAlgebra(_Frozen):
    """An associative algebra on an explicit finite basis.

    ``structure[i][j][k]`` is the coefficient of basis vector k in the
    product e_i e_j. Associativity is validated exhaustively on
    construction, and ``is_commutative`` is computed there, from the same
    products; ``dimension`` is capped at 5 to keep exhaustive law checks
    cheap.
    """

    __slots__ = ("name", "basis_labels", "structure", "is_commutative", "_product", "_indices")

    def __init__(
        self,
        name: str,
        basis_labels: tuple[str, ...],
        structure: tuple[tuple[tuple[Scalar, ...], ...], ...],
    ) -> None:
        m = len(basis_labels)
        if not 1 <= m <= 5:
            raise ValueError("FiniteAlgebra supports dimensions 1..5")
        if len(structure) != m or any(
            len(row) != m or any(len(v) != m for v in row) for row in structure
        ):
            raise ValueError("structure constants must form an m x m x m table")
        # e_i e_j as zero-free dicts, made once: the basis rule of ``multiply``
        table = tuple(tuple(_sparse(v) for v in row) for row in structure)
        product, indices = (lambda i, j: table[i][j]), frozenset(range(m))
        # associativity is SEVEN's last row and commutativity _COMMUTATIVE's,
        # with the algebra product as D
        ops = (None, None, partial(bilinear, product), None)
        basis = [LinearCombination.basis(k) for k in range(m)]
        failure = first_failure(SEVEN[6:], ops, basis, 3)
        if failure:
            i, j, k = failure[0]
            raise ValueError(
                f"structure constants are not associative at basis "
                f"triple ({i + 1}, {j + 1}, {k + 1})"
            )
        commutative = first_failure(_COMMUTATIVE[1:], ops, basis, 2) is None
        self._set_slots(name, basis_labels, structure, commutative, product, indices)

    @property
    def dimension(self) -> int:
        return len(self.basis_labels)

    def basis_vector(self, k: int) -> LinearCombination:
        vector = LinearCombination.basis(k)
        if k not in self._indices:
            raise _index_error(self._indices, vector)
        return vector

    def basis(self) -> list[LinearCombination]:
        return [self.basis_vector(k) for k in range(self.dimension)]

    def multiply(self, u: LinearCombination, v: LinearCombination) -> LinearCombination:
        indices = self._indices
        if indices.issuperset(u._terms) and indices.issuperset(v._terms):
            return bilinear(self._product, u, v)
        raise _index_error(indices, u, v)

    def render(self, v: LinearCombination) -> str:
        return _join_signed((self.basis_labels[k], c) for k, c in v.terms())


class LinearOperator(_Frozen):
    """A square matrix of exact rationals acting on column vectors."""

    __slots__ = ("matrix", "_columns", "_indices")

    def __init__(self, matrix: tuple[tuple[Scalar, ...], ...]) -> None:
        m = len(matrix)
        if m == 0 or any(len(row) != m for row in matrix):
            raise ValueError("operator matrix must be square and nonempty")
        columns = tuple(_sparse(column) for column in zip(*matrix))
        self._set_slots(matrix, columns, frozenset(range(m)))

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    def apply(self, v: LinearCombination) -> LinearCombination:
        if not self._indices.issuperset(v._terms):
            raise _index_error(self._indices, v)
        acc: dict = {}
        for j, c in v.items():
            add_into(acc, self._columns[j].items(), c)
        return LinearCombination._raw(acc)


class DerivedStructure(_Frozen):
    """The three derived operations of a weight-one operator, and their sum."""

    __slots__ = ("algebra", "operator")

    def __init__(self, algebra: FiniteAlgebra, operator: LinearOperator) -> None:
        if algebra.dimension != operator.dimension:
            raise ValueError("operator and algebra dimensions differ")
        self._set_slots(algebra, operator)

    def left(self, u: LinearCombination, v: LinearCombination) -> LinearCombination:
        return self.algebra.multiply(u, self.operator.apply(v))

    def right(self, u: LinearCombination, v: LinearCombination) -> LinearCombination:
        return self.algebra.multiply(self.operator.apply(u), v)

    def dot(self, u: LinearCombination, v: LinearCombination) -> LinearCombination:
        return self.algebra.multiply(u, v)

    def star(self, u: LinearCombination, v: LinearCombination) -> LinearCombination:
        """a * b = a P(b) + P(a) b + a b, the combined product."""
        return self.left(u, v) + self.right(u, v) + self.dot(u, v)


def _weight_one_failure(structure: DerivedStructure):
    """``first_failure`` of ``_WEIGHT_ONE`` over all basis pairs."""
    ops = (None, None, structure.dot, structure.star, structure.operator.apply)
    return first_failure(_WEIGHT_ONE, ops, structure.algebra.basis(), 2)


def verify_rota_baxter(algebra: FiniteAlgebra, operator: LinearOperator) -> bool:
    """Weight-one identity over all basis pairs (bilinear, so complete), which
    is P(a * b) == P(a) P(b): so it is also ``check_star_morphism``."""
    return _weight_one_failure(DerivedStructure(algebra, operator)) is None


check_star_morphism = verify_rota_baxter


def derived_structure(
    algebra: FiniteAlgebra, operator: LinearOperator
) -> DerivedStructure:
    """Build a < b = a P(b), a > b = P(a) b and a . b = a b.

    Refuses with ``RotaBaxterError`` (including a witness pair) when the
    weight-one identity fails. Validates all seven tridendriform relations
    exhaustively over basis triples, and the commuted forms x>y = y<x,
    x.y = y.x when the algebra is commutative.
    """
    structure = DerivedStructure(algebra, operator)
    failure = _weight_one_failure(structure)
    if failure:
        (i, j), _, lhs, rhs = failure
        raise RotaBaxterError(
            f"weight-one identity fails on basis pair "
            f"({algebra.basis_labels[i]}, {algebra.basis_labels[j]}): "
            f"defect {algebra.render(lhs - rhs)}"
        )
    basis = algebra.basis()
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


def _indicator_matrix(size: int, holds) -> tuple[tuple[Fraction, ...], ...]:
    """The dense 0/1 matrix with entry (i, j) one exactly when ``holds(i, j)``."""
    return tuple(
        tuple(Fraction(int(holds(i, j))) for j in range(size)) for i in range(size)
    )


@lru_cache(maxsize=None)
def pointwise_function_algebra(points: int) -> FiniteAlgebra:
    """Functions on a finite set with pointwise product: e_i e_j = [i==j] e_i."""
    if not 1 <= points <= 5:
        raise ValueError("pointwise function algebra supports 1..5 points")
    structure = tuple(
        _indicator_matrix(points, lambda j, k, i=i: i == j == k) for i in range(points)
    )
    return FiniteAlgebra(
        name=f"functions on {points} points",
        basis_labels=tuple(f"e{i + 1}" for i in range(points)),
        structure=structure,
    )


@lru_cache(maxsize=None)
def summation_operator(points: int) -> LinearOperator:
    """Strict partial sums: P(f)(n) = sum of f(i) over i < n.

    The discrete analogue of integration; Rota-Baxter of weight one for the
    pointwise product.
    """
    return LinearOperator(_indicator_matrix(points, lambda i, j: j < i))


def example_by_name(name: str) -> tuple[FiniteAlgebra, LinearOperator]:
    """CLI registry: summation3 and summation4; builds only the one named."""
    points = {"summation3": 3, "summation4": 4}.get(name)
    if points is None:
        raise ValueError(f"unknown example {name!r}; known examples: summation3, summation4")
    return pointwise_function_algebra(points), summation_operator(points)
