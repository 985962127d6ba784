"""The four benchmark workloads: inputs from a seed, one operation, its check.

Inputs are plain strings and numbers made by the benchmark's own generator,
so a change to the package's samplers or parsers cannot change them. Each
workload maps to one way the package is used:

* ``product-render``: the calculator, one ``qshuffle product`` call per op;
* ``law-suites``: the law checker, one law-suite, path-oracle or weight-one
  operator job per op;
* ``free-ctd``: the normal-form calculus, one free term per op;
* ``cli-cold``: one ``python -m qshuffle.cli`` process per op.
"""

from __future__ import annotations

import compileall
import contextlib
import dataclasses
import hashlib
import importlib
import io
import itertools
import json
import os
import subprocess
import sys

import checks

ALGEBRA_LETTERS = {
    # name -> (letter text, degree); all letter products are single letters
    "zero": [(chr(c), 1) for c in range(ord("a"), ord("z") + 1)],
    # weights 2**k have distinct subset sums, so no two lattice paths give
    # the same word and output sizes do not depend on the letters drawn
    "stuffle-y": [(f"y{2**k}", 2**k) for k in range(12)],
    "sym2": [("x1", 1), ("x2", 1), ("[x1 x1]", 2), ("[x1 x2]", 2), ("[x2 x2]", 2),
             ("[x1 x1 x1]", 3), ("[x1 x1 x2]", 3), ("[x1 x2 x2]", 3), ("[x2 x2 x2]", 3)],
    "word2": [("x1", 1), ("x2", 1), ("(x1 x2)", 2), ("(x2 x1)", 2), ("(x1 x1)", 2)],
    "word3": [("x1", 1), ("x2", 1), ("x3", 1)]
    + [(f"(x{a} x{b})", 2) for a in (1, 2, 3) for b in (1, 2, 3)],
}
OPS = ("star", "left", "right", "dot")


def random_ctd_text(rng, degree: int, generators: int) -> str:
    """A random term over < and . with ``degree`` leaves, as text."""
    if degree == 1:
        return chr(ord("a") + rng.randrange(generators))
    split = rng.randint(1, degree - 1)
    op = rng.choice("<.")
    left = random_ctd_text(rng, split, generators)
    right = random_ctd_text(rng, degree - split, generators)
    return f"({left} {op} {right})"


def left_chain_text(labels) -> str:
    text = labels[0]
    for label in labels[1:]:
        text = f"({text} < {label})"
    return text


class Workload:
    """Base: subclasses define inputs, run and check."""

    name = ""
    in_process = True

    def prepare(self, inputs, root) -> None:
        """Extra set-up for the inputs; timed as set-up."""

    def begin_round(self, pkg, tracer) -> None:
        self.q = pkg
        self.tracer = tracer

    def fingerprint(self, out):
        """A cheap summary that equal outputs share; by default the output."""
        return out

    def fresh_algebra(self, name):
        """A copy of the named algebra with an empty memo, as a new process has."""
        spec = self.q.algebra_by_name(name)
        if self.tracer is not None:
            return self.tracer.fresh_algebra(spec)
        return dataclasses.replace(spec, cache={})


class ProductRender(Workload):
    """Calculator calls, each as one ``qshuffle product`` process performs it.

    Operation: a cold-memo copy of the algebra from ``algebra_by_name``,
    ``parse_element`` on both words, one of ``OPERATIONS``, then
    ``render_element`` and ``element_to_json`` with ``json.dumps``.
    Samples: 259 operations per round: for each of four algebras and four
    operations, two seeded word pairs for each of eight shapes
    3 <= p, q <= 5 (256), and one ``star`` of two words of length 6 for
    each algebra with twelve letters or more (3). Outputs have from 0 (the
    zero algebra's dot) to 8,989 terms (D(6,6), stuffle-y and word3).
    Seed: ``--seed`` draws the letters and the order of the operations.
    Why: the cold recursion memo, letter products and rendering do almost
    all the work; ``laws``, the lattice-path oracle and ``freectd`` none.
    Should move: tensorq.star/ops self time, tensorq.memo.*, tensorq.out_terms,
    coeff.letter_products, grammar.* self time and out_bytes.
    Should not move: tensorq.paths, laws.*, sampling, rota, bialg.*,
    freectd.*, cli.*, import.*.
    """

    name = "product-render"
    algebras = ("zero", "stuffle-y", "sym2", "word3")
    shapes = ((3, 4), (4, 3), (4, 4), (3, 5), (5, 3), (4, 5), (5, 4), (5, 5))
    draws = 2
    # one large pair for star only, and only on algebras with twelve
    # letters: distinct letters give an output size, and so a peak memory,
    # that does not depend on the seed. These cost a quarter of a round.
    large = {"star": ((6, 6),), "left": (), "right": (), "dot": ()}

    def inputs(self, rng):
        ops = []
        for alg in self.algebras:
            pool = ALGEBRA_LETTERS[alg]
            for op in OPS:
                large = tuple(s for s in self.large[op] if len(pool) >= sum(s))
                for p, q in self.shapes * self.draws + large:
                    # distinct letters where the pool allows: fewer coinciding
                    # words, so output sizes vary less from seed to seed
                    if len(pool) >= p + q:
                        letters = rng.sample(pool, p + q)
                    else:
                        letters = [rng.choice(pool) for _ in range(p + q)]
                    ops.append((alg, op, letters[:p], letters[p:]))
        rng.shuffle(ops)
        return ops

    def begin_round(self, pkg, tracer):
        super().begin_round(pkg, tracer)

        def json_text(element):
            return json.dumps(pkg.element_to_json(element))

        self.json_text = json_text
        if tracer is not None:
            self.json_text = tracer.wrap("grammar.json", json_text, "grammar.out_bytes")

    def run(self, op):
        alg_name, operation, u, v = op
        q = self.q
        alg = self.fresh_algebra(alg_name)
        x = q.parse_element(alg, ".".join(text for text, _ in u))
        y = q.parse_element(alg, ".".join(text for text, _ in v))
        result = q.OPERATIONS[operation](alg, x, y)
        return alg, result, q.render_element(result), self.json_text(result)

    def fingerprint(self, out):
        # a digest, not the text: outputs of up to 8,989 terms kept for
        # every operation would add to peak_rss_mb by an amount that
        # depends on the seed
        return hashlib.blake2b(out[2].encode()).digest()

    def check(self, op, out):
        alg_name, operation, u, v = op
        alg, result, _, text = out
        back = self.q.element_from_json(alg, json.loads(text))
        terms = [([letter.degree for letter in w], c) for w, c in result.items()]
        return checks.check_product(
            operation,
            alg_name == "zero",
            [d for _, d in u],
            [d for _, d in v],
            terms,
            dict(back.items()) == dict(result.items()),
        )


class LawSuites(Workload):
    """Law-checker jobs, each as one ``qshuffle axioms`` call performs it.

    Operation: one of ``run_suite(suite, cold-memo algebra, K, seed)`` over
    the five suites; all word pairs of one total length over three letters,
    ``quasi_shuffle`` against ``quasi_shuffle_paths`` (acceptance criterion
    4 style); or one weight-one operator check on the summation operator.
    Samples: 103 operations per round (78 suite, 16 path, 9 operator jobs).
    Seed: ``--seed`` draws each suite job's seed and the letters of the
    path jobs.
    Why: many small elements share one warm memo within a job, the reverse
    of ``product-render``'s cold fill, so the suite driver, sampling, the
    partial operations, lincomb equality and addition and the path oracle
    do the work; ``grammar`` runs only on a violation.
    Should move: tensorq.* self time, lincomb.*, sampling, laws.*, rota,
    bialg.* (compat suite), coeff.letter_products, tensorq.memo.*.
    Should not move: grammar.*, freectd.*, cli.*, import.*.
    """

    name = "law-suites"
    # (suite, algebra, cases per job) on the algebras of acceptance criteria
    # 5, 6, 8 and 12. Case costs are heavy-tailed, so cheap suites get many
    # cases and the costly ones few; that keeps the seed-to-seed spread small.
    suites = (
        ("seven", "word2", 2),
        ("ctd-three", "sym2", 4),
        ("ctd-three", "stuffle-y", 16),
        ("ctd-three", "zero", 4),
        ("splitting", "zero", 40),
        ("splitting", "stuffle-y", 40),
        ("splitting", "sym2", 20),
        ("splitting", "sym3", 20),
        ("splitting", "word2", 20),
        ("splitting", "word3", 20),
        ("bialgebra-compat", "sym2", 20),
        ("bialgebra-compat", "stuffle-y", 40),
        ("involution", "word2", 4),
    )
    seeds_per_suite = 6
    # Path jobs cost the same whatever letters the seed draws, and each
    # costs more than any suite job, so op_p90_ms falls among them and
    # does not depend on the suite seeds.
    path_algebras = ("stuffle-y", "sym2", "word2", "word3")
    path_draws = 2
    # (total length, length of the first word) of the compared word pairs
    path_splits = ((5, 1), (5, 4))
    rota_points = (2, 3, 4)
    rota_checks = ("verify_rota_baxter", "check_star_morphism", "derived_structure")

    def inputs(self, rng):
        ops = []
        for suite, alg, cases in self.suites:
            for _ in range(self.seeds_per_suite):
                ops.append(("suite", suite, alg, cases, rng.randrange(2**31)))
        for alg in self.path_algebras:
            for _ in range(self.path_draws):
                letters = tuple(text for text, _ in rng.sample(ALGEBRA_LETTERS[alg], 3))
                for length, first in self.path_splits:
                    ops.append(("paths", alg, letters, length, first))
        for points in self.rota_points:
            for name in self.rota_checks:
                ops.append(("rota", name, points))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        q = self.q
        if op[0] == "suite":
            _, suite, alg, cases, seed = op
            return q.run_suite(suite, self.fresh_algebra(alg), cases, seed)
        if op[0] == "paths":
            _, alg_name, letter_texts, length, first = op
            alg = self.fresh_algebra(alg_name)
            letters = [q.parse_letter(alg, text) for text in letter_texts]
            pairs = mismatches = 0
            for u in itertools.product(letters, repeat=first):
                x = q.TensorElement.from_word(u)
                for v in itertools.product(letters, repeat=length - first):
                    recursion = q.quasi_shuffle(alg, x, q.TensorElement.from_word(v))
                    pairs += 1
                    if recursion != q.quasi_shuffle_paths(alg, u, v):
                        mismatches += 1
            return pairs, mismatches
        _, name, points = op
        algebra = q.pointwise_function_algebra(points)
        operator = q.summation_operator(points)
        outcome = getattr(q, name)(algebra, operator)
        if name == "derived_structure":
            return isinstance(outcome, q.DerivedStructure)
        return outcome

    def fingerprint(self, out):
        if isinstance(out, (tuple, bool)):
            return out
        return out.to_json()

    def check(self, op, out):
        if op[0] == "suite":
            return checks.check_suite(out.ok, out.cases, op[3])
        if op[0] == "paths":
            return checks.check_paths(out[0], out[1], len(op[2]), op[3])
        return checks.check_rota(out)


class FreeCtd(Workload):
    """The free CTD normal-form calculus, one free term per operation.

    Operation: ``parse_free_term``, ``normal_form``, ``render_normal_form``
    and ``normal_form_to_json``, then ``nf.to_element()`` compared with
    ``eval_ctd(term, n)`` and ``free_ctd_coproduct(term, n)`` compared with
    ``deconcatenate(eval_ctd(term, n))``.
    Samples: 282 operations per round: 240 random terms of degree 3 to 6 and
    42 left-nested ``<`` chains of 5 or 6 distinct generators.
    Seed: ``--seed`` draws the random terms, the chains' generators and the
    order. Terms share the process-global normal-form cache and the sym(n)
    memos; the traced run reports the cache size as freectd.nf_cache.entries.
    Why: the only workload where rewriting (``freectd``) and the
    tensor-square operations (``bialg``) do most of the work.
    Should move: bialg.square, freectd.*, tensorq.coproduct, tensorq.ops.
    Should not move: tensorq.star, tensorq.paths, laws.*, sampling, rota,
    cli.*, import.*.
    """

    name = "free-ctd"
    # Random terms have heavy-tailed costs. Left chains of distinct
    # generators cost the same whatever the seed; they are 15% of the
    # operations and the costliest, so wall_s and op_p90_ms rest on them.
    random_degrees = (3, 4, 5, 6)
    random_per_degree = 60
    chains = ((5, 30), (6, 12))  # (length, how many)
    chain_generators = 8

    def inputs(self, rng):
        ops = []
        for degree in self.random_degrees:
            for _ in range(self.random_per_degree):
                ops.append((random_ctd_text(rng, degree, degree), degree, 0))
        for n, count in self.chains:
            for _ in range(count):
                labels = [chr(ord("a") + i) for i in rng.sample(range(self.chain_generators), n)]
                ops.append((left_chain_text(labels), self.chain_generators, n))
        rng.shuffle(ops)
        return ops

    def begin_round(self, pkg, tracer):
        super().begin_round(pkg, tracer)

        def json_text(nf):
            return json.dumps(pkg.normal_form_to_json(nf))

        self.json_text = json_text
        if tracer is not None:
            self.json_text = tracer.wrap("grammar.json", json_text, "grammar.out_bytes")

    def run(self, op):
        text, generators, _ = op
        q = self.q
        term = q.parse_free_term(text)
        nf = q.normal_form(term)
        q.render_normal_form(nf)
        self.json_text(nf)
        image = q.eval_ctd(term, generators)
        rewrite_equal = nf.to_element() == image
        coproduct_equal = q.free_ctd_coproduct(term, generators) == q.deconcatenate(image)
        return rewrite_equal, coproduct_equal, len(nf)

    def check(self, op, out):
        return checks.check_free_term(out[0], out[1], op[2], out[2])


# the command lines of the CLI mix; CHECKING commands print a PASS verdict
CLI_TEMPLATES = (
    "product-y",
    "product-sym2-dot",
    "product-word2-left",
    "product-zero-right",
    "axioms-seven",
    "axioms-ctd-three",
    "compat",
    "dims",
    "egf",
    "normalize",
    "coproduct",
    "splitting",
    "rota",
)
CHECKING = ("axioms", "compat", "dims", "egf", "splitting", "rota")


def _cli_word(rng, alg, length):
    return ".".join(rng.choice(ALGEBRA_LETTERS[alg])[0] for _ in range(length))


def cli_argv(rng, template: str, variant: int) -> list[str]:
    """One command line of the mix; ``product y1 y2`` has a known answer.

    The seed draws only arguments that barely change a command's cost, so
    the spread of costs, and op_p90_ms with it, is the same for every seed.
    """
    seed = str(rng.randrange(1000))
    if template == "product-y":
        if variant == 0:
            return ["product", "y1", "y2"]
        return ["product", _cli_word(rng, "stuffle-y", 2), _cli_word(rng, "stuffle-y", 3)]
    if template.startswith("product-"):
        _, alg, op = template.split("-")
        return ["product", "--alg", alg, "--op", op,
                _cli_word(rng, alg, 2), _cli_word(rng, alg, 3)]
    if template.startswith("axioms-"):
        # on stuffle-y a case costs about the same whatever the seed; on
        # word2 one seed's cases can cost eight times another's
        suite = template[len("axioms-"):]
        return ["axioms", "--suite", suite, "--alg", "stuffle-y", "--cases", "2", "--seed", seed]
    if template == "compat":
        return ["compat", "--alg", "sym2", "--cases", "2", "--seed", seed]
    if template == "dims":
        flavor = ("ctd", "itd")[variant % 2]
        return ["dims", "--flavor", flavor, "--n", str(rng.randint(3, 5))]
    if template == "egf":
        return ["egf", "--order", str(rng.randint(4, 12))]
    if template in ("normalize", "coproduct"):
        return [template, random_ctd_text(rng, rng.randint(3, 5), 3)]
    if template == "splitting":
        # not zero: its degree-3 check costs a hundred times the others'
        alg = rng.choice(("sym2", "stuffle-y", "word2"))
        return ["splitting", "--alg", alg, "--degree", str(rng.randint(2, 3))]
    return ["rota", ("verify", "table")[variant % 2], "--example", "summation3"]


class CliCold(Workload):
    """Cold command-line processes: ``python -m qshuffle.cli`` with
    ``PYTHONPATH=src``, one at a time, since the console script is not
    installed.

    Operation: one child process over a fixed mix of every subcommand with
    small inputs, in text and ``--json`` form.
    Samples: 52 operations per round (13 command templates, two seeded
    variants, text and JSON).
    Seed: ``--seed`` draws the arguments (words, terms, suite seeds, sizes).
    Why: interpreter start and ``import qshuffle.cli`` are most of each
    process, so this is the one workload where import-time and argparse
    changes show and compute changes barely do.
    Should move: cli.*, import.*. Should not move: every in-process layer.
    """

    name = "cli-cold"
    in_process = False
    variants = 2

    def inputs(self, rng):
        ops = []
        for template in CLI_TEMPLATES:
            for variant in range(self.variants):
                argv = cli_argv(rng, template, variant)
                ops.append(argv)
                ops.append(argv + ["--json"])
        rng.shuffle(ops)
        return ops

    def prepare(self, inputs, root):
        """Compile bytecode and warm the file cache with two probes."""
        compileall.compile_dir(os.path.join(root, "src"), quiet=1)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.root = root
        self.expected = {}
        for argv in (["product", "y1", "y2"], ["egf", "--order", "4", "--json"]):
            self.child(argv)

    def expected_output(self, argv):
        """Exit code and output of ``cli.main`` in this process, memoized."""
        key = tuple(argv)
        if key not in self.expected:
            cli = importlib.import_module("qshuffle.cli")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
            self.expected[key] = (code, out.getvalue())
        return self.expected[key]

    def child(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "qshuffle.cli", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=60,
        )

    def run(self, op):
        return self.child(op)

    def fingerprint(self, out):
        return out.returncode, out.stdout

    def check(self, op, out):
        if out.returncode != 0:
            return f"exit code {out.returncode}: {out.stderr.strip()[-200:]}"
        if (out.returncode, out.stdout) != self.expected_output(op):
            return "output differs from the in-process result"
        checking = op[0] in CHECKING and not (op[0] == "rota" and op[1] == "table")
        if "--json" in op:
            payload = json.loads(out.stdout)
            if payload["command"] != op[0]:
                return f"JSON names command {payload['command']!r}"
            result = payload["result"]
            if checking and result.get("ok") is not True:
                return "JSON result is not ok"
            return self.known_answer(op, result)
        if checking and not out.stdout.rstrip().endswith("PASS"):
            return "last line is not PASS"
        if op == ["product", "y1", "y2"] and out.stdout.strip() != "y3 + y1.y2 + y2.y1":
            return f"product y1 y2 gave {out.stdout.strip()!r}"
        return None

    @staticmethod
    def known_answer(op, result):
        if op[0] == "dims":
            flavor = op[op.index("--flavor") + 1]
            for row in result["rows"]:
                want = checks.dims_closed_form(flavor, row["n"])
                if row["enumerated"] != want or row["closed"] != want:
                    return f"dims row {row} differs from {want}"
        if op[0] == "egf":
            order = int(op[op.index("--order") + 1])
            got = [row["coefficient"] for row in result["rows"]]
            if got != checks.egf_coefficients(order):
                return "egf coefficients differ from fubini(k)/k!"
        return None


WORKLOADS = {w.name: w for w in (ProductRender(), LawSuites(), FreeCtd(), CliCold())}
