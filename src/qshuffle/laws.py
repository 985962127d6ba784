"""The tridendriform relations, and seeded law suites over the stuffle operations.

``SEVEN``, ``CTD_THREE`` and ``SPLITTING`` are the relation tables. Each row
is a name and a function of four binary operations ``(L, R, D, S)`` (left
``<``, right ``>``, dot ``.`` and their sum ``*``) and the elements, which
returns both sides. ``failed_relations`` checks a table on any structure
that supplies those four operations: the tensor module here, and the
finite Rota-Baxter structures of ``rota``.

Each suite draws seeded samples from the augmentation ideal (no empty-word
part, so the partial operations are total on them) and compares both sides
of every relation by exact equality. Case `i` of a run gets its own child
generator ``random.Random(f"{seed}:{i}")``, so a report depends only on the
suite, algebra, case count and seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

from .bialg import check_compatibility
from .coeff import CoeffAlgebraSpec
from .grammar import render_element, render_square_element
from .sampling import random_element
from .tensorq import involute_element, op_dot, op_left, op_right, quasi_shuffle


@dataclass(frozen=True)
class LawViolation:
    law: str
    case_index: int
    inputs: tuple[str, ...]
    lhs: str
    rhs: str

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "case": self.case_index,
            "inputs": list(self.inputs),
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass
class LawReport:
    suite: str
    algebra: str
    cases: int
    seed: int
    violations: list[LawViolation] = field(default_factory=list)

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


def failed_relations(relations, ops, *elements):
    """Yield ``(name, lhs, rhs)`` for each relation whose sides differ on
    ``elements``, with the table's operations taken from ``ops``."""
    for name, sides in relations:
        lhs, rhs = sides(*ops, *elements)
        if lhs != rhs:
            yield name, lhs, rhs


def _tensor_ops(alg):
    # looked up when a case runs, not captured at import, so that rebinding
    # the module's op_left etc. (as a tracer does) reaches the suites
    return tuple(partial(op, alg) for op in (op_left, op_right, op_dot, quasi_shuffle))


def _involution_ops(alg):
    return _tensor_ops(alg) + (partial(involute_element, alg),)


def _relation_case(relations, arity, ops=_tensor_ops):
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
            LawViolation(name, index, inputs, render_element(lhs), render_element(rhs))
            for name, lhs, rhs in failed
        ]

    return case


def _case_compat(alg, rng, index, max_degree):
    x = random_element(alg, rng, max_total_degree=max_degree)
    y = random_element(alg, rng, max_total_degree=max_degree)
    report = check_compatibility(alg, x, y)
    return [
        LawViolation(
            law=f"coproduct is a morphism for {v.relation}",
            case_index=index,
            inputs=(render_element(v.x), render_element(v.y)),
            lhs=render_square_element(v.lhs),
            rhs=render_square_element(v.rhs),
        )
        for v in report.violations
    ]


# suite name -> (case function, default per-element degree bound); triple
# suites default to 2 so a whole triple stays at total degree <= 6
SUITES = {
    "seven": (_relation_case(SEVEN, 3), 2),
    "ctd-three": (_relation_case(CTD_THREE, 3), 2),
    "splitting": (_relation_case(SPLITTING, 2), 3),
    "involution": (_relation_case(_INVOLUTION, 2, _involution_ops), 3),
    "bialgebra-compat": (_case_compat, 2),
}


def run_suite(
    suite: str,
    alg: CoeffAlgebraSpec,
    cases: int,
    seed: int,
    max_degree: int | None = None,
) -> LawReport:
    """Run `cases` seeded checks of one suite and collect violations."""
    if suite not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {suite!r}; known suites: {known}")
    if cases < 0:
        raise ValueError("cases must be non-negative")
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
