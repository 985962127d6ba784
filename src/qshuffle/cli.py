"""Command line front end.

Exit codes: 0 when every requested check passes, 1 when a checked law or
count comparison fails, 2 on usage, parse, domain, or out-of-memory errors.
With ``--json`` each command prints one object ``{"command": ..., "seed": ..., "result": ...}``.

There is no programmatic layer here: library callers use the package's own
functions. Each handler reads the parsed arguments, calls the library, and
returns ``(json_form, text_form, ok)``, where both forms are functions of no
arguments. ``main`` builds and prints only the requested form, once.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from .coeff import algebra_by_name
from .freectd import (
    DIMENSION_FLAVORS,
    MAX_SERIES_ORDER,
    free_ctd_coproduct,
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
    render_word,
    square_to_json,
)
from .laws import SUITES, run_suite, splitting_failure
from .rota import (
    RotaBaxterError,
    derived_structure,
    example_by_name,
    verify_rota_baxter,
)
from .tensorq import OPERATIONS


def _product(args):
    alg = algebra_by_name(args.alg)
    result = OPERATIONS[args.op](alg, parse_element(alg, args.x), parse_element(alg, args.y))
    return partial(element_to_json, result), partial(render_element, result), True


def _laws(args):
    alg = algebra_by_name(args.alg)
    report = run_suite(args.suite, alg, args.cases, args.seed, max_degree=args.degree)

    def text():
        head = f"suite {report.suite} algebra {report.algebra} seed {report.seed}"
        lines = [f"{head} cases {report.cases}"]
        for v in report.violations:
            lines.append(f"FAIL case {v.case_index} {v.law}: {v.lhs} != {v.rhs}")
        lines.append("PASS" if report.ok else f"FAIL ({len(report.violations)} violations)")
        return "\n".join(lines)

    return report.to_json, text, report.ok


def _dims(args):
    limit, enumerate_flavor, closed_form = DIMENSION_FLAVORS[args.flavor]
    if not 1 <= args.n <= limit:
        raise ValueError(
            f"dims --n must satisfy 1 <= n <= {limit} for {args.flavor}, got {args.n}"
        )
    rows = []
    for n in range(1, args.n + 1):
        row = {"n": n, "enumerated": len(enumerate_flavor(n)), "closed": closed_form(n)}
        row["ok"] = row["enumerated"] == row["closed"]
        rows.append(row)
    ok = all(row["ok"] for row in rows)

    def text():
        lines = [
            f"{r['n']}: {r['enumerated']} {r['closed']} {'OK' if r['ok'] else 'MISMATCH'}"
            for r in rows
        ]
        return "\n".join([*lines, "PASS" if ok else "FAIL"])

    return lambda: {"flavor": args.flavor, "rows": rows, "ok": ok}, text, ok


def _egf(args):
    ok = generating_series_check(args.order)
    series = list(enumerate(fubini_egf_series(args.order)))

    def json_form():
        rows = [{"k": k, "coefficient": f"{c.numerator}/{c.denominator}"} for k, c in series]
        return {"order": args.order, "rows": rows, "ok": ok}

    def text():
        lines = [f"{k}: {c} (count {fubini(k)})" for k, c in series]
        return "\n".join([*lines, "PASS" if ok else "FAIL"])

    return json_form, text, ok


def _normalize(args):
    nf = normal_form(parse_free_term(args.term))
    return partial(normal_form_to_json, nf), partial(render_normal_form, nf), True


def _coproduct(args):
    term = parse_free_term(args.term)
    result = free_ctd_coproduct(term, max(term.generators()))
    return partial(square_to_json, result), partial(render_square_element, result), True


def _splitting(args):
    alg = algebra_by_name(args.alg)
    failure = splitting_failure(alg, args.degree)
    result = {"algebra": alg.name, "max_word_length": args.degree, "ok": not failure}
    verdict = "PASS"
    if failure:
        word, law = render_word(failure[0]), failure[1]
        result["failure"] = {"word": word, "law": law}
        verdict = f"FAIL at word {word}: {law}"
    text = f"splitting identity on {alg.name} up to word length {args.degree}: {verdict}"
    return lambda: result, lambda: text, not failure


def _rota_verify(args):
    algebra, operator = example_by_name(args.example)
    # the weight-one identity is the star morphism, and once it holds the
    # relations either hold or raise RotaBaxterError: one verdict for all lines
    ok = verify_rota_baxter(algebra, operator)
    if ok:
        derived_structure(algebra, operator)
    verdict = "PASS" if ok else "FAIL"
    lines = [
        f"example {args.example} dimension {algebra.dimension}",
        f"weight-one identity: {verdict}",
        f"star morphism: {verdict}",
        f"derived relations: {verdict}",
        verdict,
    ]
    result = {
        "example": args.example,
        "dimension": algebra.dimension,
        "identity_ok": ok,
        "star_morphism_ok": ok,
        "derived_relations_ok": ok,
        "ok": ok,
    }
    return lambda: result, lambda: "\n".join(lines), ok


def _rota_table(args):
    algebra, operator = example_by_name(args.example)
    structure = derived_structure(algebra, operator)
    labels = algebra.basis_labels
    basis = [algebra.basis_vector(i) for i in range(algebra.dimension)]
    tables = {
        symbol: [
            (labels[i], labels[j], algebra.render(op(a, b)))
            for i, a in enumerate(basis)
            for j, b in enumerate(basis)
        ]
        for symbol, op in (("<", structure.left), (">", structure.right), (".", structure.dot))
    }

    def json_form():
        rows = {s: [{"i": i, "j": j, "value": v} for i, j, v in t] for s, t in tables.items()}
        return {"example": args.example, "tables": rows}

    def text():
        return "\n".join(f"{i} {s} {j} = {v}" for s, t in tables.items() for i, j, v in t)

    return json_form, text, True


def _add_run_options(parser) -> None:
    parser.add_argument("--alg", default="stuffle-y", help="coefficient algebra name")
    parser.add_argument("--cases", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--degree", type=int, default=None,
        help="max total degree of each sampled element",
    )


class _Parser(argparse.ArgumentParser):
    """Refuses a usage error in one line, exit 2; subparsers share the class."""

    def parse_known_args(self, args=None, namespace=None):
        self._argv = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        # an operand such as -y2 reads as an unknown option and leaves its slot empty
        known = ("--", *self._option_string_actions)
        stray = [arg for arg in self._argv if arg[:1] == "-" and arg not in known]
        if "arguments are required" in message and stray:
            message += f"; put -- before {stray[0]} if it is an operand"
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qshuffle",
        description="Exact calculator and law checker for stuffle operations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="multiply two elements")
    p.add_argument("--alg", default="stuffle-y")
    p.add_argument("--op", choices=sorted(OPERATIONS), default="star")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(handler=_product)

    p = sub.add_parser("axioms", help="run a randomized law suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    _add_run_options(p)
    p.set_defaults(handler=_laws)

    p = sub.add_parser("compat", help="check coproduct compatibility on samples")
    _add_run_options(p)
    p.set_defaults(handler=_laws, suite="bialgebra-compat")

    p = sub.add_parser("dims", help="compare enumerated and closed-form dimensions")
    p.add_argument("--flavor", choices=tuple(DIMENSION_FLAVORS), default="ctd")
    p.add_argument("--n", type=int, default=6)
    p.set_defaults(handler=_dims)

    p = sub.add_parser("egf", help="check the exponential generating series")
    p.add_argument("--order", type=int, default=MAX_SERIES_ORDER)
    p.set_defaults(handler=_egf)

    p = sub.add_parser("normalize", help="rewrite a free term to normal form")
    p.add_argument("term")
    p.set_defaults(handler=_normalize)

    p = sub.add_parser("coproduct", help="coproduct of a free term's image")
    p.add_argument("term")
    p.set_defaults(handler=_coproduct)

    p = sub.add_parser("splitting", help="exhaustive projection-section check")
    p.add_argument("--alg", default="stuffle-y")
    p.add_argument("--degree", type=int, default=3, help="max word length")
    p.set_defaults(handler=_splitting)

    p = sub.add_parser("rota", help="finite summation-operator examples")
    rota_sub = p.add_subparsers(dest="rota_command", required=True)
    for name, handler in (("verify", _rota_verify), ("table", _rota_table)):
        q = rota_sub.add_parser(name)
        q.add_argument("--example", default="summation3")
        q.set_defaults(handler=handler)

    for q in (*sub.choices.values(), *rota_sub.choices.values()):
        if q.get_default("handler"):
            q.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        json_form, text_form, ok = args.handler(args)
        if args.json:
            import json

            seed = getattr(args, "seed", None)
            envelope = {"command": args.command, "seed": seed, "result": json_form()}
            print(json.dumps(envelope, sort_keys=True))
        else:
            print(text_form())
        return 0 if ok else 1
    except ParseError as exc:
        print(f"parse error at position {exc.position}: {exc}", file=sys.stderr)
        return 2
    except RotaBaxterError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
