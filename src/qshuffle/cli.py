"""Command line front end.

Exit codes: 0 when every requested check passes, 1 when a checked law or
count comparison fails, 2 on usage, parse, or domain errors. With ``--json``
each command prints one object ``{"command": ..., "seed": ..., "result": ...}``.

The ``cmd_*`` functions are the programmatic command API: each takes plain
arguments and returns the computed result. The argparse layer only adapts
flags into them and renders the result in the one format requested.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .bialg import free_ctd_coproduct, splitting_identity_holds
from .coeff import algebra_by_name
from .freectd import (
    DIMENSION_FLAVORS,
    MAX_SERIES_ORDER,
    dimension_flavor,
    enumerate_ou_partitions,
    fubini,
    fubini_egf_series,
    generating_series_check,
    normal_form,
)
from .grammar import (
    ParseError,
    element_to_json,
    normal_form_to_json,
    parse_element,
    parse_free_term,
    render_element,
    render_normal_form,
    render_square_element,
    square_to_json,
)
from .laws import LawReport, SUITES, run_suite
from .rota import (
    RotaBaxterError,
    check_star_morphism,
    derived_structure,
    example_by_name,
    verify_rota_baxter,
)
from .tensorq import OPERATIONS


# ---------------------------------------------------------------------------
# programmatic command layer


def cmd_product(alg_name: str, lhs_expr: str, rhs_expr: str, operation: str = "star"):
    """Parse two elements, combine them, and return the result element."""
    alg = algebra_by_name(alg_name)
    x = parse_element(alg, lhs_expr)
    y = parse_element(alg, rhs_expr)
    return OPERATIONS[operation](alg, x, y)


def cmd_axioms(
    suite: str, alg_name: str, cases: int, seed: int, degree: int | None = None
) -> LawReport:
    """Run one law suite; equal arguments give byte-identical reports."""
    return run_suite(suite, algebra_by_name(alg_name), cases, seed, max_degree=degree)


def cmd_dims(n_max: int, flavor: str):
    """Enumerated partition counts next to the closed-form values."""
    limit, _, closed_form = dimension_flavor(flavor)
    if not 1 <= n_max <= limit:
        raise ValueError(
            f"dims --n must satisfy 1 <= n <= {limit} for {flavor}, got {n_max}"
        )
    rows = []
    ok = True
    for n in range(1, n_max + 1):
        enumerated = len(enumerate_ou_partitions(n, flavor))
        closed = closed_form(n)
        row_ok = enumerated == closed
        ok = ok and row_ok
        rows.append({"n": n, "enumerated": enumerated, "closed": closed, "ok": row_ok})
    return rows, ok


def cmd_egf(order: int):
    """Exact series coefficients plus the three-route comparison verdict."""
    ok = generating_series_check(order)
    series = fubini_egf_series(order)
    return series, ok


def cmd_normalize(term_text: str):
    """Parse a free term and rewrite it to its normal form."""
    return normal_form(parse_free_term(term_text))


def cmd_coproduct(term_text: str):
    """Coproduct of a free term's image; generator count inferred."""
    term = parse_free_term(term_text)
    return free_ctd_coproduct(term, max(term.generators()))


# ---------------------------------------------------------------------------
# argparse adapters


def _emit(args, command: str, json_form, text_form, seed=None) -> None:
    """Print the JSON envelope or the text; each form is a function of no
    arguments, and only the one printed is built."""
    if args.json:
        payload = {"command": command, "seed": seed, "result": json_form()}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text_form())


def _handle_product(args) -> int:
    result = cmd_product(args.alg, args.x, args.y, args.op)
    _emit(args, "product", partial(element_to_json, result), partial(render_element, result))
    return 0


def _run_law_command(args, suite: str) -> int:
    if args.cases == 0:
        print("warning: 0 cases requested; the suite passes vacuously", file=sys.stderr)
    report = cmd_axioms(suite, args.alg, args.cases, args.seed, args.degree)
    lines = [
        f"suite {report.suite} algebra {report.algebra} "
        f"seed {report.seed} cases {report.cases}"
    ]
    for v in report.violations:
        lines.append(f"FAIL case {v.case_index} {v.law}: {v.lhs} != {v.rhs}")
    lines.append("PASS" if report.ok else f"FAIL ({len(report.violations)} violations)")
    _emit(args, args.command, report.to_json, lambda: "\n".join(lines), seed=report.seed)
    return 0 if report.ok else 1


def _handle_axioms(args) -> int:
    return _run_law_command(args, args.suite)


def _handle_compat(args) -> int:
    return _run_law_command(args, "bialgebra-compat")


def _handle_dims(args) -> int:
    rows, ok = cmd_dims(args.n, args.flavor)
    lines = [
        f"{row['n']}: {row['enumerated']} {row['closed']} "
        f"{'OK' if row['ok'] else 'MISMATCH'}"
        for row in rows
    ]
    lines.append("PASS" if ok else "FAIL")
    _emit(
        args,
        "dims",
        lambda: {"flavor": args.flavor, "rows": rows, "ok": ok},
        lambda: "\n".join(lines),
    )
    return 0 if ok else 1


def _handle_egf(args) -> int:
    series, ok = cmd_egf(args.order)
    rows = []
    lines = []
    for k, coeff in enumerate(series):
        rows.append({"k": k, "coefficient": f"{coeff.numerator}/{coeff.denominator}"})
        lines.append(f"{k}: {coeff} (count {fubini(k)})")
    lines.append("PASS" if ok else "FAIL")
    _emit(
        args,
        "egf",
        lambda: {"order": args.order, "rows": rows, "ok": ok},
        lambda: "\n".join(lines),
    )
    return 0 if ok else 1


def _handle_normalize(args) -> int:
    nf = cmd_normalize(args.term)
    _emit(args, "normalize", partial(normal_form_to_json, nf), partial(render_normal_form, nf))
    return 0


def _handle_coproduct(args) -> int:
    result = cmd_coproduct(args.term)
    _emit(
        args,
        "coproduct",
        partial(square_to_json, result),
        partial(render_square_element, result),
    )
    return 0


def _handle_splitting(args) -> int:
    alg = algebra_by_name(args.alg)
    ok = splitting_identity_holds(alg, args.degree)
    text = (
        f"splitting identity on {alg.name} up to word length {args.degree}: "
        f"{'PASS' if ok else 'FAIL'}"
    )
    result = {"algebra": alg.name, "max_word_length": args.degree, "ok": ok}
    _emit(args, "splitting", lambda: result, lambda: text)
    return 0 if ok else 1


def _handle_rota_verify(args) -> int:
    algebra, operator = example_by_name(args.example)
    identity_ok = verify_rota_baxter(algebra, operator)
    morphism_ok = check_star_morphism(algebra, operator)
    relations_ok = False
    if identity_ok:
        derived_structure(algebra, operator)
        relations_ok = True
    ok = identity_ok and morphism_ok and relations_ok
    lines = [
        f"example {args.example} dimension {algebra.dimension}",
        f"weight-one identity: {'PASS' if identity_ok else 'FAIL'}",
        f"star morphism: {'PASS' if morphism_ok else 'FAIL'}",
        f"derived relations: {'PASS' if relations_ok else 'FAIL'}",
        "PASS" if ok else "FAIL",
    ]
    result = {
        "example": args.example,
        "dimension": algebra.dimension,
        "identity_ok": identity_ok,
        "star_morphism_ok": morphism_ok,
        "derived_relations_ok": relations_ok,
        "ok": ok,
    }
    _emit(args, "rota", lambda: result, lambda: "\n".join(lines))
    return 0 if ok else 1


def _handle_rota_table(args) -> int:
    algebra, operator = example_by_name(args.example)
    structure = derived_structure(algebra, operator)
    labels = algebra.basis_labels
    ops = (("<", structure.left), (">", structure.right), (".", structure.dot))
    lines = []
    tables = {}
    for symbol, op in ops:
        entries = []
        for i in range(algebra.dimension):
            for j in range(algebra.dimension):
                value = op(algebra.basis_vector(i), algebra.basis_vector(j))
                lines.append(f"{labels[i]} {symbol} {labels[j]} = {algebra.render(value)}")
                entries.append(
                    {"i": labels[i], "j": labels[j], "value": algebra.render(value)}
                )
        tables[symbol] = entries
    _emit(
        args, "rota", lambda: {"example": args.example, "tables": tables}, lambda: "\n".join(lines)
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_run_options(parser, default_cases: int) -> None:
    parser.add_argument("--alg", default="stuffle-y", help="coefficient algebra name")
    parser.add_argument("--cases", type=int, default=default_cases)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--degree", type=int, default=None,
        help="max total degree of each sampled element",
    )
    parser.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qshuffle",
        description="Exact calculator and law checker for stuffle operations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="multiply two elements")
    p.add_argument("--alg", default="stuffle-y")
    p.add_argument("--op", choices=sorted(OPERATIONS), default="star")
    p.add_argument("--json", action="store_true")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(handler=_handle_product)

    p = sub.add_parser("axioms", help="run a randomized law suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    _add_run_options(p, default_cases=100)
    p.set_defaults(handler=_handle_axioms)

    p = sub.add_parser("compat", help="check coproduct compatibility on samples")
    _add_run_options(p, default_cases=100)
    p.set_defaults(handler=_handle_compat)

    p = sub.add_parser("dims", help="compare enumerated and closed-form dimensions")
    p.add_argument("--flavor", choices=tuple(DIMENSION_FLAVORS), default="ctd")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_handle_dims)

    p = sub.add_parser("egf", help="check the exponential generating series")
    p.add_argument("--order", type=int, default=MAX_SERIES_ORDER)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_handle_egf)

    p = sub.add_parser("normalize", help="rewrite a free term to normal form")
    p.add_argument("term")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_handle_normalize)

    p = sub.add_parser("coproduct", help="coproduct of a free term's image")
    p.add_argument("term")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_handle_coproduct)

    p = sub.add_parser("splitting", help="exhaustive projection-section check")
    p.add_argument("--alg", default="stuffle-y")
    p.add_argument("--degree", type=int, default=3, help="max word length")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_handle_splitting)

    p = sub.add_parser("rota", help="finite summation-operator examples")
    rota_sub = p.add_subparsers(dest="rota_command", required=True)
    for name, handler in (("verify", _handle_rota_verify), ("table", _handle_rota_table)):
        q = rota_sub.add_parser(name)
        q.add_argument("--example", default="summation3")
        q.add_argument("--json", action="store_true")
        q.set_defaults(handler=handler)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error at position {exc.position}: {exc}", file=sys.stderr)
        return 2
    except RotaBaxterError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
