"""Spans and counts recorded from outside the package, for the traced run.

A ``Tracer`` wraps public functions of a freshly imported ``qshuffle`` and
rebinds them in every ``qshuffle`` module and module-level table that holds
them, so calls the package makes to itself (``run_suite`` calling
``op_left``, ``free_ctd_coproduct`` calling ``square_left``) get spans too.
Each span is (name, start, end, parent index, operation index). A layer's
self time is its spans' durations minus the time their child spans cover.
Nothing under ``src/`` is edited; tracing only ever runs in the traced run.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter, defaultdict
from itertools import islice
from time import perf_counter

# span name -> public package functions it covers
SPANS = {
    "tensorq.star": ("quasi_shuffle",),
    "tensorq.ops": ("op_left", "op_right", "op_dot"),
    "tensorq.paths": ("quasi_shuffle_paths",),
    "tensorq.coproduct": ("deconcatenate", "reduced_coproduct"),
    "tensorq.involute": ("involute_element",),
    "coeff.algebra": ("algebra_by_name",),
    "sampling": ("random_element",),
    "laws": ("run_suite",),
    "rota": ("verify_rota_baxter", "check_star_morphism", "derived_structure"),
    "bialg.square": ("square_left", "square_dot", "free_ctd_coproduct"),
    "bialg.compat": ("check_compatibility",),
    "freectd.normal_form": ("normal_form",),
    "freectd.eval_ctd": ("eval_ctd",),
    "grammar.parse": ("parse_element", "parse_free_term"),
    "grammar.render": ("render_element", "render_normal_form", "render_square_element"),
    "grammar.json": ("element_to_json", "normal_form_to_json", "square_to_json"),
}

# function -> count metric that adds len(result) per call
SIZE_COUNTS = {
    "quasi_shuffle": "tensorq.out_terms",
    "op_left": "tensorq.out_terms",
    "op_right": "tensorq.out_terms",
    "op_dot": "tensorq.out_terms",
    "quasi_shuffle_paths": "tensorq.out_terms",
    "square_left": "bialg.out_pairs",
    "square_dot": "bialg.out_pairs",
    "normal_form": "freectd.nf_terms",
    "render_element": "grammar.out_bytes",
    "render_normal_form": "grammar.out_bytes",
    "render_square_element": "grammar.out_bytes",
}

SELF_TIME_LAYERS = (
    "tensorq.star",
    "tensorq.ops",
    "tensorq.paths",
    "tensorq.coproduct",
    "tensorq.involute",
    "coeff.algebra",
    "lincomb.eq",
    "lincomb.add",
    "sampling",
    "laws",
    "rota",
    "bialg.square",
    "bialg.compat",
    "freectd.normal_form",
    "freectd.eval_ctd",
    "freectd.to_element",
    "grammar.parse",
    "grammar.render",
    "grammar.json",
    "bench",
)

COUNTS = (
    "tensorq.out_terms",
    "tensorq.memo.entries",
    "tensorq.memo.words",
    "coeff.letter_products",
    "laws.cases",
    "laws.relation_checks",
    "bialg.out_pairs",
    "freectd.nf_terms",
    "freectd.nf_cache.entries",
    "grammar.out_bytes",
)


def package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "qshuffle" or name.startswith("qshuffle.")
    ]


class Tracer:
    """Records spans and counts for one round of one workload."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._fresh_specs: list = []
        self._shared_specs: list = []
        self._memo_seen: dict[int, int] = {}

    def wrap(self, name, fn, size_count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if size_count is not None:
                counts[size_count] += len(result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self, pkg) -> None:
        """Wrap the public functions of a freshly imported package."""
        modules = package_modules()
        for span, names in SPANS.items():
            for name in names:
                original = getattr(pkg, name)
                wrapper = self.wrap(span, original, SIZE_COUNTS.get(name))
                _rebind(modules, original, wrapper)
        lincomb = pkg.LinearCombination
        lincomb.__eq__ = self.wrap("lincomb.eq", lincomb.__eq__)
        lincomb.__add__ = self.wrap("lincomb.add", lincomb.__add__)
        normal = pkg.NormalForm
        normal.to_element = self.wrap("freectd.to_element", normal.to_element)
        self._count_suite_cases(modules, pkg)
        self._count_free_algebras(sys.modules["qshuffle.freectd"], sys.modules["qshuffle.bialg"])

    def _count_suite_cases(self, modules, pkg) -> None:
        inner = pkg.run_suite
        counts = self.counts

        def run_suite(*args, **kwargs):
            report = inner(*args, **kwargs)
            counts["laws.cases"] += report.cases
            return report

        _rebind(modules, inner, run_suite)

    def _count_free_algebras(self, *modules) -> None:
        """Count letter products and memo growth of the sym(n) algebras
        that ``eval_ctd`` and ``free_ctd_coproduct`` build for themselves.
        The replacement shares the original's memo, so sharing across terms
        is unchanged."""
        original = modules[0].sym_algebra
        made: dict[int, object] = {}

        def sym_algebra(n):
            spec = made.get(n)
            if spec is None:
                base = original(n)
                spec = made[n] = dataclasses.replace(
                    base, product_rule=self.counting_rule(base.product_rule)
                )
                self._shared_specs.append(spec)
            return spec

        for module in modules:
            module.sym_algebra = sym_algebra

    def counting_rule(self, rule):
        counts = self.counts

        def counted(a, b):
            counts["coeff.letter_products"] += 1
            return rule(a, b)

        return counted

    def fresh_algebra(self, spec):
        """A cold-memo copy of ``spec`` whose letter products are counted."""
        fresh = dataclasses.replace(
            spec, cache={}, product_rule=self.counting_rule(spec.product_rule)
        )
        self._fresh_specs.append(fresh)
        return fresh

    # -- per operation ------------------------------------------------------

    def end_op(self) -> None:
        """Add the memo entries and stored words this operation created."""
        for spec in self._fresh_specs + self._shared_specs:
            memo = spec.cache.get("shuffle", {})
            seen = self._memo_seen.get(id(spec), 0)
            if len(memo) > seen:
                self.counts["tensorq.memo.entries"] += len(memo) - seen
                self.counts["tensorq.memo.words"] += sum(
                    len(words) for words in islice(memo.values(), seen, None)
                )
                self._memo_seen[id(spec)] = len(memo)
        for spec in self._fresh_specs:
            self._memo_seen.pop(id(spec), None)
        self._fresh_specs.clear()

    # -- summary ------------------------------------------------------------

    def summary(self, pkg_freectd=None) -> dict:
        """Self seconds per layer and counts for the round."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        relation_checks = 0
        for index, (name, start, end, parent, _) in enumerate(spans):
            self_s[name] += (end - start) - covered[index]
            if name == "lincomb.eq" and _inside(spans, parent, "laws"):
                relation_checks += 1
        out = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in SELF_TIME_LAYERS}
        counts = dict(self.counts)
        counts["laws.relation_checks"] = relation_checks
        if pkg_freectd is not None:
            counts["freectd.nf_cache.entries"] = len(getattr(pkg_freectd, "_NF_CACHE", ()))
        out.update({name: counts.get(name, 0) for name in COUNTS})
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _inside(spans, index, name) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def _rebind(modules, original, replacement) -> None:
    """Point every module global and module-level dict entry bound to
    ``original`` at ``replacement``."""
    for module in modules:
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement
