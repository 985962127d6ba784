"""The benchmark's output checks accept right outputs and reject corrupted ones.

    PYTHONPATH=src python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import qshuffle  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def started(workload):
    workload.begin_round(qshuffle, None)
    return workload


def bump_one_coefficient(element):
    terms = dict(element.items())
    word = next(iter(terms))
    terms[word] += 1
    return type(element)(terms)


def test_oracles_match_known_values():
    assert [checks.delannoy(n, n) for n in range(5)] == [1, 3, 13, 63, 321]
    assert [checks.fubini(n) for n in range(7)] == [1, 1, 3, 13, 75, 541, 4683]
    assert checks.egf_coefficients(3) == ["0/1", "1/1", "3/2", "13/6"]
    assert checks.dims_closed_form("itd", 4) == 192


@pytest.mark.parametrize("alg", ["zero", "stuffle-y", "sym2", "word3"])
@pytest.mark.parametrize("op", workloads.OPS)
def test_product_check(alg, op):
    pool = workloads.ALGEBRA_LETTERS[alg]
    letters = random.Random(f"{alg}:{op}").sample(pool, 3)
    item = (alg, op, letters[:1], letters[1:])
    wl = started(workloads.ProductRender())
    out = wl.run(item)
    assert wl.check(item, out) is None
    spec, result, text, json_text = out
    if result:
        bad = bump_one_coefficient(result)
        assert wl.check(item, (spec, bad, text, wl.json_text(bad))) is not None
        assert wl.check(item, (spec, result, text, wl.json_text(bad))) is not None
    else:
        # the zero algebra's dot is zero; any term is wrong
        bad = qshuffle.TensorElement.from_word(())
        assert wl.check(item, (spec, bad, text, wl.json_text(bad))) is not None


def test_product_check_rejects_wrong_degree():
    assert checks.check_product("star", False, [1], [2], [([1, 2], 2), ([3], 1)], True) is None
    assert checks.check_product("star", False, [1], [2], [([1, 2], 2), ([2], 1)], True)


def test_suite_paths_and_rota_checks():
    wl = started(workloads.LawSuites())
    suite = ("suite", "seven", "word2", 3, 5)
    report = wl.run(suite)
    assert wl.check(suite, report) is None
    report.cases = 2
    assert wl.check(suite, report) is not None
    report.cases = 3
    report.violations.append(object())
    assert wl.check(suite, report) is not None

    paths = ("paths", "sym2", ("x1", "x2", "[x1 x2]"), 3, 1)
    pairs, mismatches = wl.run(paths)
    assert (pairs, mismatches) == (27, 0)
    assert wl.check(paths, (pairs, 1)) is not None
    assert wl.check(paths, (pairs - 1, 0)) is not None

    rota = ("rota", "derived_structure", 3)
    assert wl.check(rota, wl.run(rota)) is None
    assert wl.check(rota, False) is not None


def test_free_term_check():
    wl = started(workloads.FreeCtd())
    chain = (workloads.left_chain_text(["a", "c", "b", "d"]), 4, 4)
    rewrite_equal, coproduct_equal, terms = wl.run(chain)
    assert (rewrite_equal, coproduct_equal, terms) == (True, True, 13)
    assert wl.check(chain, (True, True, 13)) is None
    assert wl.check(chain, (True, True, 12)) is not None
    assert wl.check(chain, (False, True, 13)) is not None
    assert wl.check(chain, (True, False, 13)) is not None


def test_rewrite_equality_detects_a_changed_coefficient():
    term = qshuffle.parse_free_term("((a < b) . c)")
    image = qshuffle.eval_ctd(term, 3)
    nf = qshuffle.normal_form(term)
    assert nf.to_element() == image
    assert nf.to_element() != bump_one_coefficient(image)


def completed(argv, stdout, code=0):
    return subprocess.CompletedProcess(argv, code, stdout, "")


def test_cli_check():
    wl = workloads.CliCold()
    wl.expected = {}
    argv = ["product", "y1", "y2"]
    assert wl.check(argv, completed(argv, "y3 + y1.y2 + y2.y1\n")) is None
    assert wl.check(argv, completed(argv, "y3 + 2*y1.y2\n")) is not None
    assert wl.check(argv, completed(argv, "y3 + y1.y2 + y2.y1\n", code=1)) is not None

    argv = ["dims", "--flavor", "ctd", "--n", "4", "--json"]
    code, text = wl.expected_output(argv)
    assert wl.check(argv, completed(argv, text)) is None
    payload = json.loads(text)
    payload["result"]["rows"][2]["closed"] += 1
    assert wl.known_answer(argv, payload["result"]) is not None

    argv = ["egf", "--order", "5", "--json"]
    code, text = wl.expected_output(argv)
    payload = json.loads(text)
    assert wl.known_answer(argv, payload["result"]) is None
    payload["result"]["rows"][3]["coefficient"] = str(Fraction(13, 5))
    assert wl.known_answer(argv, payload["result"]) is not None
