"""The package names the benchmark harness reaches by name.

``bench/tracing.py`` wraps functions it looks up on ``qshuffle`` by name and
``bench/workloads.py`` calls package attributes and copies algebra specs with
``dataclasses.replace``. The bench files are read as source, not imported or
edited, so renaming or deleting one of these names fails here instead of in
a traced benchmark run.
"""

import ast
import dataclasses
import sys
from pathlib import Path

import qshuffle

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _assigned(tree, name):
    """The literal value assigned to ``name`` anywhere in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no assignment to {name}")


def _source(name):
    return ast.parse((BENCH / name).read_text())


def _package_attributes(tree):
    """Attributes read off the package objects ``q`` and ``pkg``."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("q", "pkg")
    }


def test_traced_functions_resolve():
    tracing = _source("tracing.py")
    names = {name for names in _assigned(tracing, "SPANS").values() for name in names}
    names |= set(_assigned(tracing, "SIZE_COUNTS"))
    names |= _package_attributes(tracing)
    missing = sorted(name for name in names if not callable(getattr(qshuffle, name, None)))
    assert missing == []


def test_workload_names_resolve():
    workloads = _source("workloads.py")
    names = set(_assigned(workloads, "rota_checks")) | _package_attributes(workloads)
    missing = sorted(name for name in names if not hasattr(qshuffle, name))
    assert missing == []
    for name in _assigned(workloads, "rota_checks"):
        assert getattr(qshuffle, name)(
            qshuffle.pointwise_function_algebra(2), qshuffle.summation_operator(2)
        )


def test_algebra_specs_copy_with_a_fresh_memo():
    spec = qshuffle.algebra_by_name("sym2")
    fresh = dataclasses.replace(spec, cache={})
    assert fresh.cache == {} and fresh.name == spec.name
    # the tracer swaps sym_algebra in freectd, the one module that builds
    # sym(n) itself, for eval_ctd and free_ctd_coproduct
    assert callable(sys.modules["qshuffle.freectd"].sym_algebra)


def test_the_traced_cache_count_reads_the_normal_form_cache():
    # the tracer reads the cache with getattr(..., ()), so a rename would
    # report freectd.nf_cache.entries as 0 instead of failing
    tracing = _source("tracing.py")
    names = {node.value for node in ast.walk(tracing) if isinstance(node, ast.Constant)}
    assert "_NF_CACHE" in names
    assert isinstance(qshuffle.freectd._NF_CACHE, dict)
