"""Every public function has a caller outside the tests, or a stated reason,
and every public member of a public class has a reader outside the tests.

The package modules (``cli.py`` among them) and the files under ``bench/``
are read as source. A function counts as reached when one of them reads its
name, as a name or an attribute, outside the function's own definition, or
when ``bench/tracing.py`` names it in ``SPANS``. A function nothing reaches
is on ``ALLOWED``, and its module docstring names it with the reason it
stays. A member (a method, classmethod, staticmethod or property whose name
does not start with ``_``) counts as reached in the same way, and there is
no list of exceptions for members. ``bench/test_checks.py`` is a test and
does not count.
"""

import ast
import sys
from pathlib import Path
from types import FunctionType

import qshuffle

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qshuffle"
BENCH = ROOT / "bench"

# reached by no package module and no bench file but the tracer's SPANS,
# each with its reason in its module docstring
ALLOWED = {
    "builtin_algebras",
    "check_compatibility",
    "comb_term",
    "coradical_degree",
    "eval_itd",
    "involute_term",
    "is_primitive",
    "multilinear_terms",
    "multiply_letters",
    "random_ctd_term",
    "random_td_term",
    "reduced_coproduct_kernel",
}


def _read_names(path):
    """Names the module at ``path`` reads, outside the definition of a
    function of the same name: a function calling itself is no caller."""
    names = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name is not None and name not in inside:
            names.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text()), frozenset())
    return names


def _called():
    """Names read by the package modules and the bench's non-test files;
    ``__init__.py`` only re-exports, so its imports are no use."""
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += [p for p in BENCH.glob("*.py") if not p.name.startswith("test_")]
    return set().union(*map(_read_names, sources))


def _spans():
    tree = ast.parse((BENCH / "tracing.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return {name for names in ast.literal_eval(node.value).values() for name in names}
    raise AssertionError("bench/tracing.py assigns no SPANS")


def _public_functions():
    return {
        name
        for name in qshuffle.__all__
        if callable(getattr(qshuffle, name)) and not isinstance(getattr(qshuffle, name), type)
    }


def test_every_public_function_is_reached_or_allowed():
    unreached = _public_functions() - _called() - _spans()
    assert sorted(unreached - ALLOWED) == []


def test_allowed_names_have_no_caller_and_a_stated_reason():
    called = _called()
    assert sorted(ALLOWED & called) == []
    for name in sorted(ALLOWED):
        function = getattr(qshuffle, name)
        docstring = sys.modules[function.__module__].__doc__
        assert f"``{name}``" in docstring, name


def _public_members():
    """``Class.member`` for each public method, classmethod, staticmethod
    and property a class of ``qshuffle.__all__`` defines itself."""
    kinds = (FunctionType, classmethod, staticmethod, property)
    return {
        f"{name}.{member}"
        for name in qshuffle.__all__
        if isinstance(cls := getattr(qshuffle, name), type)
        for member, value in vars(cls).items()
        if not member.startswith("_") and isinstance(value, kinds)
    }


def test_every_public_member_is_reached():
    called = _called()
    unreached = {member for member in _public_members() if member.split(".")[1] not in called}
    assert sorted(unreached) == []
