"""End-to-end command-line behavior: output text, JSON envelopes, exit codes."""

import argparse
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import qshuffle
from qshuffle import (
    LawReport,
    LawViolation,
    TensorElement,
    algebra_by_name,
    element_from_json,
    weight_letter,
)
from qshuffle.cli import build_parser, main
from qshuffle.freectd import DIMENSION_FLAVORS
from qshuffle.grammar import MAX_TERM_DEPTH


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProductCommand:
    def test_stuffle_example(self, capsys):
        code, out, _ = run_cli(capsys, ["product", "--alg", "stuffle-y", "y1", "y2"])
        assert code == 0
        assert out == "y3 + y1.y2 + y2.y1\n"

    def test_shuffle_example(self, capsys):
        code, out, _ = run_cli(capsys, ["product", "--alg", "zero", "a", "b"])
        assert code == 0
        assert out == "a.b + b.a\n"

    def test_dot_example(self, capsys):
        code, out, _ = run_cli(
            capsys, ["product", "--alg", "sym2", "--op", "dot", "x1", "x2"]
        )
        assert code == 0
        assert out == "[x1 x2]\n"

    def test_compound_expressions(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["product", "--alg", "stuffle-y", "--op", "dot", "1 + y1", "y2"],
        )
        assert code == 0
        assert out == "y3\n"

    def test_json_envelope_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, ["product", "--alg", "stuffle-y", "--json", "y1", "y1"]
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"command", "seed", "result"}
        assert payload["command"] == "product"
        alg = algebra_by_name("stuffle-y")
        element = element_from_json(alg, payload["result"])
        expected = TensorElement(
            [((weight_letter(2),), 1), ((weight_letter(1), weight_letter(1)), 2)]
        )
        assert element == expected

    def test_json_mode_renders_no_text(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("text form built for --json")

        monkeypatch.setattr("qshuffle.cli.render_element", refuse)
        code, out, _ = run_cli(capsys, ["product", "--json", "y1", "y2"])
        assert code == 0
        assert json.loads(out)["command"] == "product"

    def test_text_mode_builds_no_json(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("JSON form built for text output")

        monkeypatch.setattr("qshuffle.cli.element_to_json", refuse)
        code, out, _ = run_cli(capsys, ["product", "y1", "y2"])
        assert code == 0
        assert out == "y3 + y1.y2 + y2.y1\n"


class TestDimsCommand:
    def test_ctd_table(self, capsys):
        code, out, _ = run_cli(capsys, ["dims", "--flavor", "ctd", "--n", "6"])
        assert code == 0
        lines = out.splitlines()
        assert "6: 4683 4683 OK" in lines
        assert "1: 1 1 OK" in lines
        assert lines[-1] == "PASS"

    def test_itd_table(self, capsys):
        code, out, _ = run_cli(capsys, ["dims", "--flavor", "itd", "--n", "4"])
        assert code == 0
        assert "4: 192 192 OK" in out.splitlines()

    def test_out_of_range_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["dims", "--flavor", "ctd", "--n", "9"])
        assert code == 2
        assert "error:" in err

    def test_zero_is_refused_not_a_vacuous_pass(self, capsys):
        code, out, err = run_cli(capsys, ["dims", "--flavor", "ctd", "--n", "0"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flavor", ["CTD", "dendriform"])
    def test_a_flavor_outside_the_table_is_a_usage_error(self, capsys, flavor):
        # argparse's choices are the table's keys, matched by case
        code, out, err = run_cli(capsys, ["dims", "--flavor", flavor])
        assert (code, out) == (2, "")
        assert err == (
            f"qshuffle dims: error: argument --flavor: invalid choice: {flavor!r}"
            " (choose from 'ctd', 'itd')\n"
        )

    @pytest.mark.parametrize("flavor, n", [("ctd", 9), ("itd", 7)])
    def test_too_large_is_refused_before_enumerating(self, capsys, monkeypatch, flavor, n):
        calls = []
        limit, _, closed_form = DIMENSION_FLAVORS[flavor]
        monkeypatch.setitem(
            DIMENSION_FLAVORS, flavor, (limit, lambda n: calls.append(n) or [], closed_form)
        )
        code, out, err = run_cli(capsys, ["dims", "--flavor", flavor, "--n", str(n)])
        assert code == 2
        assert calls == []
        assert out == ""
        limit = {"ctd": 8, "itd": 6}[flavor]
        assert err == f"error: dims --n must satisfy 1 <= n <= {limit} for {flavor}, got {n}\n"

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        limit, enumerate_ctd, _ = DIMENSION_FLAVORS["ctd"]
        monkeypatch.setitem(DIMENSION_FLAVORS, "ctd", (limit, enumerate_ctd, lambda n: 0))
        code, out, _ = run_cli(capsys, ["dims", "--flavor", "ctd", "--n", "2"])
        assert code == 1
        assert "MISMATCH" in out
        assert out.splitlines()[-1] == "FAIL"


class TestEgfCommand:
    def test_order_six_text(self, capsys):
        code, out, _ = run_cli(capsys, ["egf", "--order", "6"])
        assert code == 0
        lines = out.splitlines()
        assert "1: 1 (count 1)" in lines
        assert "6: 1561/240 (count 4683)" in lines
        assert lines[-1] == "PASS"

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["egf", "--order", "3", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "egf"
        rows = payload["result"]["rows"]
        assert rows[3] == {"k": 3, "coefficient": "13/6"}
        assert payload["result"]["ok"] is True

    def test_order_bound(self, capsys):
        code, _, err = run_cli(capsys, ["egf", "--order", "13"])
        assert code == 2
        assert "error:" in err


class TestNormalizeCommand:
    def test_expansion_example(self, capsys):
        code, out, _ = run_cli(capsys, ["normalize", "((a<b)<c)"])
        assert code == 0
        assert out == "(v1)(v2)(v3) + (v1)(v2 v3) + (v1)(v3)(v2)\n"

    def test_already_normal_example(self, capsys):
        code, out, _ = run_cli(capsys, ["normalize", "((a.b)<c)"])
        assert code == 0
        assert out == "(v1 v2)(v3)\n"

    def test_dot_reordering(self, capsys):
        code, out, _ = run_cli(capsys, ["normalize", "(b.a)"])
        assert code == 0
        assert out == "(v1 v2)\n"

    def test_td_term_is_a_domain_error(self, capsys):
        code, _, err = run_cli(capsys, ["normalize", "(a>b)"])
        assert code == 2
        assert "error:" in err

    def test_parse_error_position(self, capsys):
        code, _, err = run_cli(capsys, ["normalize", "(a < b"])
        assert code == 2
        assert "parse error at position 6" in err

    def test_over_deep_term_is_a_parse_error(self, capsys):
        term = "(" * 1200 + "a" + " < b)" * 1200
        code, out, err = run_cli(capsys, ["normalize", term])
        assert code == 2
        assert out == ""
        assert err == (
            f"parse error at position {MAX_TERM_DEPTH}: "
            f"terms nest deeper than {MAX_TERM_DEPTH} levels\n"
        )

    def test_right_comb_at_the_depth_cap_normalizes(self, capsys):
        term = "(a < " * MAX_TERM_DEPTH + "a" + ")" * MAX_TERM_DEPTH
        code, out, _ = run_cli(capsys, ["normalize", term])
        assert code == 0
        assert out == "(v1)" * (MAX_TERM_DEPTH + 1) + "\n"

    def test_a_deep_left_chain_is_refused_before_rewriting(self, capsys):
        # its rewriting recursed about twice per level and ended in a RecursionError
        term = "(" * 499 + "a" + " < b)" * 499
        start = perf_counter()
        code, out, err = run_cli(capsys, ["normalize", term])
        assert perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: rewriting could recurse ")
        assert err.count("\n") == 1

    def test_a_chain_heading_a_long_comb_still_normalizes(self, capsys):
        # 26 generators; a bound charging every block quadratically refused it
        term = "((a < b) < " + "".join(f"(g{k} < " for k in range(3, 26)) + "g26" + ")" * 24
        start = perf_counter()
        code, out, err = run_cli(capsys, ["normalize", term])
        assert perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert out.startswith("".join(f"(v{k})" for k in range(1, 27)) + " + ")
        assert out.count(" + ") == 48

    def test_a_deep_right_comb_still_normalizes(self, capsys):
        term = "(a < " * 499 + "b" + ")" * 499
        start = perf_counter()
        code, out, err = run_cli(capsys, ["normalize", term])
        assert perf_counter() - start < 1.0
        assert (code, out, err) == (0, "(v1)" * 499 + "(v2)\n", "")


class TestCoproductCommand:
    def test_prec_example(self, capsys):
        code, out, _ = run_cli(capsys, ["coproduct", "(a<b)"])
        assert code == 0
        assert out == "1 (x) x1.x2 + x1 (x) x2 + x1.x2 (x) 1\n"

    def test_dot_output_is_primitive(self, capsys):
        code, out, _ = run_cli(capsys, ["coproduct", "(a.a)"])
        assert code == 0
        assert out == "1 (x) [x1 x1] + [x1 x1] (x) 1\n"

    def test_a_huge_generator_index_builds_only_its_own_letter(self, capsys):
        # building every generator of sym(2000000) took 14.5 s and 802 MB
        start = perf_counter()
        code, out, err = run_cli(capsys, ["coproduct", "(g2000000 < g1)"])
        assert perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert out == "1 (x) x2000000.x1 + x2000000 (x) x1 + x2000000.x1 (x) 1\n"


class TestAxiomsCommand:
    def test_seven_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["axioms", "--suite", "seven", "--alg", "word2", "--cases", "25",
             "--seed", "1"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "suite seven algebra word2 seed 1 cases 25"
        assert lines[-1] == "PASS"

    def test_ctd_three_on_shuffle(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["axioms", "--suite", "ctd-three", "--alg", "zero", "--cases", "20",
             "--seed", "1"],
        )
        assert code == 0
        assert out.splitlines()[-1] == "PASS"

    @pytest.mark.parametrize("cases", ["0", "1001"])
    @pytest.mark.parametrize("command", [["axioms", "--suite", "seven"], ["compat"]], ids=" ".join)
    def test_cases_outside_one_to_a_thousand_are_refused(self, capsys, command, cases):
        start = perf_counter()
        code, out, err = run_cli(capsys, [*command, "--cases", cases, "--seed", "1"])
        assert perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"error: cases must satisfy 1 <= cases <= 1000, got {cases}\n"

    def test_violations_exit_one(self, capsys, monkeypatch):
        report = LawReport(
            suite="seven",
            algebra="word2",
            cases=1,
            seed=0,
            violations=[
                LawViolation(
                    law="(x.y).z = x.(y.z)",
                    case_index=0,
                    inputs=("x1", "x2", "x1"),
                    lhs="x1.x2",
                    rhs="x2.x1",
                )
            ],
        )
        monkeypatch.setattr("qshuffle.cli.run_suite", lambda *a, **k: report)
        code, out, _ = run_cli(
            capsys, ["axioms", "--suite", "seven", "--cases", "1"]
        )
        assert code == 1
        lines = out.splitlines()
        assert "FAIL case 0 (x.y).z = x.(y.z): x1.x2 != x2.x1" in lines
        assert lines[-1] == "FAIL (1 violations)"

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["axioms", "--suite", "involution", "--alg", "word2", "--cases", "10",
             "--seed", "3", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "axioms"
        assert payload["seed"] == 3
        assert payload["result"]["ok"] is True
        assert payload["result"]["cases"] == 10


class TestDeterminism:
    def test_identical_configs_identical_bytes(self, capsys):
        argv = ["axioms", "--suite", "ctd-three", "--alg", "sym2", "--cases", "30",
                "--seed", "17"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second


class TestCompatAndSplitting:
    def test_compat_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, ["compat", "--alg", "sym2", "--cases", "15", "--seed", "7"]
        )
        assert code == 0
        assert out.splitlines()[-1] == "PASS"

    def test_compat_violation_exits_one(self, capsys, monkeypatch):
        from qshuffle.bialg import square_dot

        monkeypatch.setattr("qshuffle.laws.square_left", square_dot)
        code, out, _ = run_cli(
            capsys, ["compat", "--alg", "sym2", "--cases", "3", "--seed", "7"]
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[1].startswith("FAIL case 0 coproduct is a morphism for left: ")
        assert " (x) " in lines[1]
        assert lines[-1].startswith("FAIL (")

    def test_splitting_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["splitting", "--alg", "sym2", "--degree", "4"])
        assert code == 0
        assert "PASS" in out

    def test_splitting_negative_degree_is_refused(self, capsys):
        code, out, err = run_cli(capsys, ["splitting", "--alg", "sym2", "--degree", "-1"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_splitting_over_the_word_bound_is_refused_quickly(self, capsys):
        start = perf_counter()
        code, out, err = run_cli(capsys, ["splitting", "--alg", "zero", "--degree", "4"])
        assert perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == "error: splitting check up to word length 4 over 26 letters exceeds 50000 words\n"

    def test_too_many_generators_are_refused_quickly(self, capsys):
        start = perf_counter()
        argv = ["axioms", "--suite", "splitting", "--cases", "1", "--alg", "word600"]
        code, out, err = run_cli(capsys, argv)
        assert perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == "error: algebra 'word600' has 600 generators; at most 32 are supported\n"

    def test_splitting_fails_when_the_projection_keeps_every_word(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(qshuffle.laws, "generator_projection", lambda x: x)
        code, out, _ = run_cli(capsys, ["splitting", "--alg", "sym2", "--degree", "2"])
        assert code == 1
        assert out == (
            "splitting identity on sym2 up to word length 2: FAIL at word [x1 x1]: "
            "p(x) = 0 if a letter has degree >= 2, else p(i(x)) = x\n"
        )
        code, out, _ = run_cli(
            capsys, ["splitting", "--alg", "sym2", "--degree", "2", "--json"]
        )
        assert code == 1
        assert json.loads(out)["result"] == {
            "algebra": "sym2",
            "max_word_length": 2,
            "ok": False,
            "failure": {
                "word": "[x1 x1]",
                "law": "p(x) = 0 if a letter has degree >= 2, else p(i(x)) = x",
            },
        }

    def test_splitting_json(self, capsys):
        code, out, _ = run_cli(
            capsys, ["splitting", "--alg", "word2", "--degree", "3", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == {
            "algebra": "word2",
            "max_word_length": 3,
            "ok": True,
        }


class TestRotaCommands:
    def test_verify_summation3(self, capsys):
        code, out, _ = run_cli(capsys, ["rota", "verify", "--example", "summation3"])
        assert code == 0
        lines = out.splitlines()
        assert "weight-one identity: PASS" in lines
        assert "star morphism: PASS" in lines
        assert lines[-1] == "PASS"

    def test_table_contains_disjoint_product(self, capsys):
        code, out, _ = run_cli(capsys, ["rota", "table", "--example", "summation3"])
        assert code == 0
        lines = out.splitlines()
        assert "e1 < e2 = 0" in lines
        assert "e1 > e2 = e2" in lines
        assert "e1 . e1 = e1" in lines

    def test_table_json_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, ["rota", "table", "--example", "summation4", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        tables = payload["result"]["tables"]
        assert set(tables) == {"<", ">", "."}
        assert len(tables["<"]) == 16

    def test_unknown_example(self, capsys):
        code, _, err = run_cli(capsys, ["rota", "verify", "--example", "trapezoid"])
        assert code == 2
        assert "error:" in err

    def test_a_failed_derived_relation_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "qshuffle.rota.SEVEN", (("x = x + x", lambda L, R, D, S, x, y, z: (x, x + x)),)
        )
        code, out, err = run_cli(capsys, ["rota", "table"])
        assert (code, out) == (1, "")
        assert err == "FAIL: derived relation x = x + x fails\n"


class TestExitCodes:
    def test_parse_error_is_two(self, capsys):
        code, _, err = run_cli(capsys, ["product", "--alg", "stuffle-y", "y1 +", "y2"])
        assert code == 2
        assert "parse error at position" in err

    def test_unit_pairing_is_two(self, capsys):
        code, _, err = run_cli(
            capsys, ["product", "--alg", "stuffle-y", "--op", "left", "1", "1"]
        )
        assert code == 2
        assert "error:" in err

    def test_unknown_algebra_is_two(self, capsys):
        code, _, err = run_cli(capsys, ["product", "--alg", "tropical", "a", "b"])
        assert code == 2
        assert "error:" in err

    def test_out_of_memory_is_two_in_one_line(self, capsys, monkeypatch):
        def exhausted(term):
            raise MemoryError

        monkeypatch.setattr("qshuffle.cli.normal_form", exhausted)
        code, out, err = run_cli(capsys, ["normalize", "(a < b)"])
        assert (code, out, err) == (2, "", "error: out of memory\n")

    def test_usage_error_is_two(self, capsys):
        assert main(["definitely-not-a-command"]) == 2
        assert main(["axioms"]) == 2  # --suite is required
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["definitely-not-a-command"],
            ["axioms"],
            ["rota"],
            ["rota", "verify", "--bogus"],
            ["product", "--op", "bad", "y1", "y2"],
            ["dims", "--n", "x"],
        ],
    )
    def test_usage_errors_are_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("qshuffle") and ": error: " in err
        assert "put --" not in err

    @pytest.mark.parametrize(
        "argv, err",
        [
            (
                ["product", "--op", "star2", "y1", "y2"],
                "qshuffle product: error: argument --op: invalid choice: 'star2'"
                " (choose from 'dot', 'left', 'right', 'star')\n",
            ),
            (
                ["axioms", "--suite", "nine"],
                "qshuffle axioms: error: argument --suite: invalid choice: 'nine' (choose from"
                " 'bialgebra-compat', 'ctd-three', 'involution', 'seven', 'splitting')\n",
            ),
            (
                ["multiply", "y1", "y2"],
                "qshuffle: error: argument command: invalid choice: 'multiply' (choose from"
                " 'product', 'axioms', 'compat', 'dims', 'egf', 'normalize', 'coproduct',"
                " 'splitting', 'rota')\n",
            ),
        ],
        ids=["op", "suite", "command"],
    )
    def test_an_invalid_choice_quotes_every_choice(self, capsys, argv, err):
        # the same line on every Python: 3.13's argparse alone drops the quotes
        assert run_cli(capsys, argv) == (2, "", err)

    def test_a_signed_operand_is_told_to_follow_double_dash(self, capsys):
        code, out, err = run_cli(capsys, ["product", "y1", "-y2"])
        assert (code, out) == (2, "")
        assert err == (
            "qshuffle product: error: the following arguments are required: y;"
            " put -- before -y2 if it is an operand\n"
        )
        code, out, _ = run_cli(capsys, ["product", "y1", "--", "-y2"])
        assert (code, out) == (0, "-y3 - y1.y2 - y2.y1\n")

    @pytest.mark.parametrize(
        "argv, err",
        [
            (
                ["product", "y1\u0663", "y2"],
                "parse error at position 0: cannot read 'y1\u0663' as a letter of stuffle-y\n",
            ),
            (
                ["product", "\u0663*y1", "y2"],
                "parse error at position 0: expected a rational coefficient, got '\u0663'\n",
            ),
            (["normalize", "(\u00e9 < a)"], "parse error at position 1: expected a generator or (\n"),
            (
                ["product", "--alg", "sym1\u0662", "x1", "x12"],
                "error: unknown algebra 'sym1\u0662'; expected zero, stuffle-y, sym<n> or word<n>\n",
            ),
        ],
        ids=["letter", "coefficient", "generator", "algebra-name"],
    )
    def test_non_ascii_input_is_refused(self, capsys, argv, err):
        assert run_cli(capsys, argv) == (2, "", err)

    def test_a_bad_generator_is_reported_at_itself(self, capsys):
        code, out, err = run_cli(capsys, ["product", "--alg", "sym2", "[x1 x0] . x1", "x1"])
        assert (code, out) == (2, "")
        assert err == "parse error at position 4: expected a generator like x1, got 'x0'\n"


def runnable_commands(parser, path=()):
    """Every command path of ``parser`` that runs a handler."""
    if parser.get_default("handler"):
        yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                yield from runnable_commands(subparser, (*path, name))


# one small run per runnable command path; the law commands get seed 5
RUNS = {
    ("product",): ["product", "y1", "y2"],
    ("axioms",): ["axioms", "--suite", "seven", "--cases", "2", "--seed", "5"],
    ("compat",): ["compat", "--alg", "sym2", "--cases", "2", "--seed", "5"],
    ("dims",): ["dims", "--n", "3"],
    ("egf",): ["egf", "--order", "3"],
    ("normalize",): ["normalize", "(a<b)"],
    ("coproduct",): ["coproduct", "(a<b)"],
    ("splitting",): ["splitting", "--alg", "sym2", "--degree", "2"],
    ("rota", "verify"): ["rota", "verify"],
    ("rota", "table"): ["rota", "table"],
}

# (argv, its text renderer, its JSON renderer), as looked up in qshuffle.cli
RENDERED = [
    pytest.param(["product", "y1", "y2"], "render_element", "element_to_json", id="product"),
    pytest.param(
        ["normalize", "(a<b)"], "render_normal_form", "normal_form_to_json", id="normalize"
    ),
    pytest.param(["coproduct", "(a<b)"], "render_square_element", "square_to_json", id="coproduct"),
]


class TestSingleOutput:
    def test_every_runnable_command_has_a_run(self):
        assert set(runnable_commands(build_parser())) == set(RUNS)

    @pytest.mark.parametrize("path", list(RUNS), ids=" ".join)
    def test_json_envelope(self, capsys, path):
        code, out, err = run_cli(capsys, [*RUNS[path], "--json"])
        assert (code, err) == (0, "")
        assert out.count("\n") == 1
        payload = json.loads(out)
        assert set(payload) == {"command", "seed", "result"}
        assert payload["command"] == path[0]
        assert payload["seed"] == (5 if path[0] in ("axioms", "compat") else None)

    @pytest.mark.parametrize("argv, text_name, json_name", RENDERED)
    def test_a_renderer_error_exits_two(self, capsys, monkeypatch, argv, text_name, json_name):
        def refuse(*args):
            raise ValueError("cannot render")

        for name, flag in ((text_name, []), (json_name, ["--json"])):
            monkeypatch.setattr(f"qshuffle.cli.{name}", refuse)
            assert run_cli(capsys, [*argv, *flag]) == (2, "", "error: cannot render\n")

    # product's two forms are checked in TestProductCommand
    @pytest.mark.parametrize("argv, text_name, json_name", RENDERED[1:])
    def test_only_the_requested_form_is_built(
        self, capsys, monkeypatch, argv, text_name, json_name
    ):
        def refuse(*args):
            raise AssertionError("the form not requested was built")

        with monkeypatch.context() as patch:
            patch.setattr(f"qshuffle.cli.{text_name}", refuse)
            code, out, _ = run_cli(capsys, [*argv, "--json"])
        assert code == 0 and json.loads(out)["command"] == argv[0]
        monkeypatch.setattr(f"qshuffle.cli.{json_name}", refuse)
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and out.count("\n") == 1


def readme_cli_lines():
    """The ``qshuffle ...`` lines of README's ``## CLI`` block, split into
    (argv, comment)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv[:1] == ["qshuffle"]:
            yield argv[1:], comment.strip()


def test_readme_cli_examples(capsys):
    """Every README CLI line exits 0; where the comment is the output, it is."""
    lines = list(readme_cli_lines())
    assert lines
    for argv, comment in lines:
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, ""), argv
        if argv[0] in ("product", "normalize", "coproduct"):
            assert out == comment + "\n", argv


# Runs ``main`` on its arguments in an address space capped at 2 GB, set in
# this child only, and prints [exit code, stdout, stderr, seconds in main].
CAPPED_MAIN = """
import contextlib, io, json, resource, sys, time
_, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 2 * 10**9 if hard == resource.RLIM_INFINITY else min(hard, 2 * 10**9)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from qshuffle.cli import main
out, err = io.StringIO(), io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(sys.argv[1:])
print(json.dumps([code, out.getvalue(), err.getvalue(), time.perf_counter() - start]))
"""

TEN_GENERATOR_CHAIN = "(((((((((a < b) < c) < d) < e) < f) < g) < h) < i) < j)"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["normalize", TEN_GENERATOR_CHAIN], "the output would have more than 1000000 terms"),
        (["coproduct", TEN_GENERATOR_CHAIN], "the output would have more than 1000000 terms"),
        (
            ["product", ".".join(["y1"] * 1000), "y2"],
            "the product of words of 1001 letters together is over the limit of 256",
        ),
    ],
    ids=["normalize", "coproduct", "product"],
)
def test_oversized_work_is_refused_in_a_capped_process(argv, message):
    """Each of these ended in a MemoryError or RecursionError traceback
    with exit 1; each is now refused in one line, before the work."""
    src = str(Path(qshuffle.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    code, out, err, seconds = json.loads(proc.stdout)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert seconds < 1.0


def test_console_script_is_installed(tmp_path):
    """Run the [project.scripts] launcher, and the installed script if on PATH."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["qshuffle"]
    module, _, attr = entry.partition(":")
    launcher = tmp_path / "qshuffle"
    launcher.write_text(
        f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    )
    src = str(Path(qshuffle.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    args = ["product", "--alg", "stuffle-y", "y1", "y2"]
    commands = [[sys.executable, str(launcher), *args]]
    installed = shutil.which("qshuffle")
    if installed:
        commands.append([installed, *args])
    for cmd in commands:
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            timeout=60,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0, (
            f"qshuffle = {entry!r} failed: {' '.join(cmd)}\n{proc.stderr}"
        )
        assert proc.stdout == "y3 + y1.y2 + y2.y1\n"


def test_python_dash_m_runs_the_cli(tmp_path):
    """``python -m qshuffle`` runs the same command line from this checkout."""
    src = str(Path(qshuffle.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "qshuffle", "product", "y1", "y2"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "y3 + y1.y2 + y2.y1\n"


COLD_START = """
import contextlib, dataclasses, io, sys
import qshuffle.cli
assert "json" not in sys.modules, "import qshuffle.cli loaded json"
made = [v for v in vars(qshuffle).values() if isinstance(v, type) and dataclasses.is_dataclass(v)]
assert made == [qshuffle.CoeffAlgebraSpec], made
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert qshuffle.cli.main(["product", "y1", "y2"]) == 0
assert out.getvalue() == "y3 + y1.y2 + y2.y1\\n", out.getvalue()
assert "json" not in sys.modules, "text output loaded json"
with contextlib.redirect_stdout(out):
    assert qshuffle.cli.main(["product", "--json", "y1", "y2"]) == 0
assert "json" in sys.modules
"""


def test_cold_start_loads_json_only_for_json_output(tmp_path):
    """A new interpreter (without ``site``, whose hooks may load anything)
    imports no ``json`` for the CLI or its text output, and the only
    dataclass among the package's exports is ``CoeffAlgebraSpec``."""
    src = str(Path(qshuffle.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", COLD_START],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
