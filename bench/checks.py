"""Output checks for the benchmark, independent of the code they check.

Counts come from closed forms and recurrences written here, never from the
package: Delannoy numbers by their two-variable recurrence, binomials from
``math.comb``, Fubini numbers by their own recurrence. Each check returns
``None`` when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


@lru_cache(maxsize=None)
def delannoy(p: int, q: int) -> int:
    """Lattice paths from (0,0) to (p,q) with steps right, up and diagonal."""
    if p == 0 or q == 0:
        return 1
    return delannoy(p - 1, q) + delannoy(p, q - 1) + delannoy(p - 1, q - 1)


@lru_cache(maxsize=None)
def fubini(n: int) -> int:
    """Ordered set partitions of an n-set: a(n) = sum_k C(n,k) a(n-k)."""
    if n == 0:
        return 1
    return sum(comb(n, k) * fubini(n - k) for k in range(1, n + 1))


def expected_coefficient_sum(zero_product: bool, op: str, p: int, q: int) -> int:
    """Sum of the coefficients of u op v for nonempty words of lengths p, q.

    When every letter product is one letter with coefficient one, each
    lattice path gives one word with coefficient one; ``left`` fixes the
    first step to come from u, ``right`` from v, ``dot`` from both. With the
    zero product only the paths without diagonal steps survive.
    """
    if zero_product:
        return {
            "star": comb(p + q, p),
            "left": comb(p + q - 1, q),
            "right": comb(p + q - 1, p),
            "dot": 0,
        }[op]
    return {
        "star": delannoy(p, q),
        "left": delannoy(p - 1, q),
        "right": delannoy(p, q - 1),
        "dot": delannoy(p - 1, q - 1),
    }[op]


def check_product(op, zero_product, u_degrees, v_degrees, terms, roundtrip_equal):
    """Check one calculator result.

    ``terms`` lists (letter degrees of the word, coefficient) per output
    word; ``roundtrip_equal`` says whether the JSON parsed back to the result.
    """
    want = expected_coefficient_sum(zero_product, op, len(u_degrees), len(v_degrees))
    got = sum((c for _, c in terms), Fraction(0))
    if got != want:
        return f"coefficients sum to {got}, expected {want}"
    degree = sum(u_degrees) + sum(v_degrees)
    for degrees, _ in terms:
        if sum(degrees) != degree:
            return f"a word has degree {sum(degrees)}, expected {degree}"
    if not roundtrip_equal:
        return "JSON does not parse back to the same element"
    return None


def check_suite(report_ok: bool, report_cases: int, cases: int):
    if report_cases != cases:
        return f"suite ran {report_cases} cases, expected {cases}"
    if not report_ok:
        return "suite reported violations"
    return None


def check_paths(pairs: int, mismatches: int, letters: int, length: int):
    """All letters**length pairs compared, and recursion equal to paths."""
    want = letters**length
    if pairs != want:
        return f"compared {pairs} word pairs, expected {want}"
    if mismatches:
        return f"recursion and lattice paths differ on {mismatches} pairs"
    return None


def check_rota(outcome):
    if outcome is not True:
        return f"weight-one operator check returned {outcome!r}"
    return None


def check_free_term(rewrite_equal, coproduct_equal, chain_length, nf_terms):
    """``chain_length`` is n for a left-nested chain of n generators, else 0."""
    if not rewrite_equal:
        return "normal form does not evaluate to the term's image"
    if not coproduct_equal:
        return "free coproduct differs from deconcatenation of the image"
    if chain_length and nf_terms != fubini(chain_length - 1):
        want = fubini(chain_length - 1)
        return f"left chain of {chain_length} has {nf_terms} terms, expected {want}"
    return None


def egf_coefficients(order: int) -> list[str]:
    """Coefficients fubini(k)/k! of (exp(x)-1)/(2-exp(x)) for k <= order, as "p/q"."""
    out = []
    for k in range(order + 1):
        c = Fraction(fubini(k), factorial(k)) if k else Fraction(0)
        out.append(f"{c.numerator}/{c.denominator}")
    return out


def dims_closed_form(flavor: str, n: int) -> int:
    return fubini(n) if flavor == "ctd" else 2 ** (n - 1) * factorial(n)
