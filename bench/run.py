"""qshuffle benchmark: run one workload for a fixed time and print metrics.

    python3 bench/run.py --workload product-render --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds run metadata, sample counts and the unscaled times. Workloads are
defined in ``workloads.py`` and described in ``BENCHMARK.json``.

Set-up is timed several times and ``setup_s`` is the median: one set-up is
``import qshuffle`` in a new interpreter (timed inside that interpreter)
plus building the seeded inputs here. The run then repeats the workload's
fixed list of operations in rounds until ``--seconds`` would be exceeded.
Every round starts from a freshly imported package, so process-global memos
start empty as in a new process. Each operation is timed on its own; its
output is checked in full the first time and compared with that checked
output afterwards, all outside the timed region.

Shared hosts change speed by up to half for seconds at a time, so every
time is scaled to a reference speed: a fixed pure-Python loop
(``reference_loop``) is timed at most ``CALIBRATE_EVERY_S`` before and
after each operation and set-up, and the measured time is multiplied by
``REFERENCE_S`` over the loop's time. ``REFERENCE_S`` is the loop's fastest
time on a 2-vCPU Xeon, so reported times are that host's at full speed. A
change to the package cannot change the loop, so it still shows in full.
The run keeps itself and its children on one CPU, the one the loop is
timed on.
An operation's latency is the median of its scaled times over the rounds,
``wall_s`` is the sum of those latencies, and ``op_p50_ms`` and
``op_p90_ms`` are quantiles over the operations.

With ``--trace 1`` untraced and traced rounds alternate: traced rounds
install the spans of ``tracing.py``, and the run prints instead the
per-layer self times (scaled by the round's median factor) and counts as
medians over the traced rounds, plus ``trace.overhead``: traced ``wall_s``
divided by untraced ``wall_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
MIN_ROUNDS = 2
# fastest time of reference_loop on a 2-vCPU Intel Xeon (Python 3.11)
REFERENCE_S = 260e-6
CALIBRATE_EVERY_S = 0.05
QSHUFFLE_MODULES = (
    "qshuffle", "qshuffle.lincomb", "qshuffle.coeff", "qshuffle.tensorq",
    "qshuffle.freectd", "qshuffle.bialg", "qshuffle.rota", "qshuffle.grammar",
    "qshuffle.sampling", "qshuffle.laws", "qshuffle.cli",
)
OUT_DIR = ROOT / ".bench_out"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
TIMED_IMPORT = (
    "import time; t = time.perf_counter(); import qshuffle; "
    "print(time.perf_counter() - t)"
)


def reference_loop():
    """Dict and tuple work like the package's sparse combinations."""
    acc = {}
    for i in range(1500):
        key = (i % 61, i % 53)
        acc[key] = acc.get(key, 0) + i
    return acc


class HostSpeed:
    """Factor from measured seconds to seconds at the reference speed.

    ``reference_loop`` is timed again (best of three, collector off) when
    its last timing is older than ``CALIBRATE_EVERY_S``. A timing is scaled
    by the mean of the factors just before and just after it.
    """

    def __init__(self):
        self.at = float("-inf")
        self.current = 1.0
        self.factors = []

    def factor(self):
        if perf_counter() - self.at > CALIBRATE_EVERY_S:
            gc.disable()
            try:
                best = float("inf")
                for _ in range(3):
                    start = perf_counter()
                    reference_loop()
                    best = min(best, perf_counter() - start)
            finally:
                gc.enable()
            self.current = REFERENCE_S / best
            self.factors.append(self.current)
            self.at = perf_counter()
        return self.current


def fresh_package():
    """Drop every qshuffle module and import the package again."""
    for name in [n for n in sys.modules if n == "qshuffle" or n.startswith("qshuffle.")]:
        del sys.modules[name]
    pkg = importlib.import_module("qshuffle")
    gc.collect()
    return pkg


def set_up(workload, seed, speed):
    """One set-up, scaled: ``import qshuffle`` in a new interpreter and the
    inputs built from the seed here. Returns (seconds, inputs)."""
    before = speed.factor()
    proc = subprocess.run([sys.executable, "-c", TIMED_IMPORT], cwd=ROOT, env=CHILD_ENV,
                          capture_output=True, text=True, check=True, timeout=60)
    start = perf_counter()
    inputs = workload.inputs(random.Random(f"{workload.name}:{seed}"))
    workload.prepare(inputs, str(ROOT))
    elapsed = perf_counter() - start + float(proc.stdout)
    return elapsed * (before + speed.factor()) / 2, inputs


def run_rounds(workload, inputs, seconds, speed, trace=False):
    """Repeat the operations until the next round would pass ``seconds``.

    With ``trace``, every second round is traced, so traced and untraced
    rounds see the same swings of the host's speed. Returns each
    operation's scaled and unscaled times of every round, keyed by whether
    the round was traced.
    """
    times = {False: [[] for _ in inputs], True: [[] for _ in inputs]}
    raw = [[] for _ in inputs]
    attempted = failed = rounds = 0
    summaries = []
    verified = {}
    start = last = perf_counter()
    while True:
        traced = trace and rounds % 2 == 1
        pkg = fresh_package() if workload.in_process else None
        tracer = tracing.Tracer() if traced else None
        if tracer and workload.in_process:
            tracer.install(pkg)
        workload.begin_round(pkg, tracer)
        op_span = tracer.wrap("bench", workload.run) if tracer else workload.run
        factors = []
        for index, op in enumerate(inputs):
            attempted += 1
            if tracer:
                tracer.op = index
            before = speed.factor()
            t0 = perf_counter()
            try:
                out = op_span(op)
            except Exception:
                out, reason = None, traceback.format_exc()
            else:
                reason = None
            elapsed = perf_counter() - t0
            # the loop is timed again here if the operation took longer
            # than CALIBRATE_EVERY_S
            factor = (before + speed.factor()) / 2
            if reason is None:
                if tracer:
                    tracer.end_op()
                try:
                    reason = checked(workload, op, out, index, verified)
                except Exception:
                    reason = traceback.format_exc()
            if reason is not None:
                failed += 1
                report_failure(workload, op, reason)
            factors.append(factor)
            times[traced][index].append(elapsed * factor)
            if not traced:
                raw[index].append(elapsed)
        rounds += 1
        if tracer:
            summary = tracer.summary(pkg and sys.modules["qshuffle.freectd"])
            factor = statistics.median(factors)
            summaries.append({name: value * factor if name.endswith("_s") else value
                              for name, value in summary.items()})
            if len(summaries) == 1:
                OUT_DIR.mkdir(exist_ok=True)
                tracer.write_spans(OUT_DIR / f"spans-{workload.name}.jsonl")
        now = perf_counter()
        # the first round also runs the full output checks, so the last
        # round predicts the next one better than the average does
        if rounds >= MIN_ROUNDS and 2 * now - last > start + seconds:
            break
        last = now
    return times, raw, attempted, failed, rounds, summaries


def latencies(times):
    """Each operation's median time over the rounds."""
    return [statistics.median(t) for t in times]


def checked(workload, op, out, index, verified):
    """Full check the first time an operation succeeds; afterwards the
    output must equal the checked one, which is much cheaper to test."""
    print_ = workload.fingerprint(out)
    if index in verified:
        return None if print_ == verified[index] else "output differs from an earlier round"
    reason = workload.check(op, out)
    if reason is None:
        verified[index] = print_
    return reason


_reported = 0


def report_failure(workload, op, reason):
    global _reported
    _reported += 1
    if _reported <= 5:
        print(f"{workload.name}: operation {op!r} failed: {reason}", file=sys.stderr)


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_times(latency):
    """``wall_s``, ``op_p50_ms`` and ``op_p90_ms`` from per-op latencies."""
    return {
        "wall_s": (sum(latency), "s"),
        "op_p50_ms": (quantile(latency, 50) * 1e3, "ms"),
        "op_p90_ms": (quantile(latency, 90) * 1e3, "ms"),
    }


def end_to_end(workload, times, setup_times):
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        **op_times(latencies(times)),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def child_ms(argv, repeats, speed):
    times = []
    for _ in range(repeats):
        factor = speed.factor()
        start = perf_counter()
        subprocess.run(argv, cwd=ROOT, env=CHILD_ENV, capture_output=True, check=True,
                       timeout=60)
        times.append((perf_counter() - start) * factor * 1e3)
    return statistics.median(times)


def import_self_us(speed, repeats=3):
    """Median self time of each qshuffle module from ``-X importtime``."""
    samples = {name: [] for name in QSHUFFLE_MODULES}
    for _ in range(repeats):
        factor = speed.factor()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qshuffle.cli"],
            cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, check=True, timeout=60,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                module = parts[2].strip()
                if module in samples:
                    seen[module] = int(parts[0].split(":")[1]) * factor
        for name in QSHUFFLE_MODULES:
            samples[name].append(seen.get(name, 0))
    return {name: statistics.median(v) for name, v in samples.items()}


def cli_layers(inputs, speed):
    """Interpreter start, import and in-process main for the CLI mix."""
    interp = child_ms([sys.executable, "-c", "pass"], 5, speed)
    imported = child_ms([sys.executable, "-c", "import qshuffle.cli"], 5, speed)
    cli = importlib.import_module("qshuffle.cli")
    mains = []
    for argv in inputs:
        factor = speed.factor()
        start = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(list(argv))
        mains.append((perf_counter() - start) * factor * 1e3)
    out = {
        "cli.interp_ms": (interp, "ms"),
        "cli.import_ms": (imported - interp, "ms"),
        "cli.main_ms": (statistics.median(mains), "ms"),
    }
    for name, value in import_self_us(speed).items():
        out[f"import.{name}.self_us"] = (value, "us")
    return out


def per_layer(workload, inputs, seconds, speed):
    """Alternate untraced and traced rounds; per-layer medians over the
    traced rounds, and whether their counts repeated exactly."""
    times, raw, attempted, failed, rounds, summaries = run_rounds(
        workload, inputs, seconds, speed, trace=True
    )
    counts_repeat = all(
        s[name] == summaries[0][name] for s in summaries for name in tracing.COUNTS
    )
    metrics = {
        name: (statistics.median(s[name] for s in summaries),
               "s" if name.endswith("_s") else "count")
        for name in summaries[0]
    }
    if workload.in_process:
        metrics.update((name, (0, units_of(name))) for name in cli_layers_names())
    else:
        metrics.update(cli_layers(inputs, speed))
    traced, untraced = (sum(latencies(times[t])) for t in (True, False))
    metrics["trace.overhead"] = (traced / untraced, "ratio")
    return metrics, raw, attempted, failed, rounds, counts_repeat


def cli_layers_names():
    return ["cli.interp_ms", "cli.import_ms", "cli.main_ms"] + [
        f"import.{name}.self_us" for name in QSHUFFLE_MODULES
    ]


def units_of(name):
    return "us" if name.endswith("_us") else "ms"


def metadata(workload, seed, inputs, rounds, setup_count):
    src = ROOT / "src" / "qshuffle"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py")))
    return {
        "workload": workload.name,
        "seed": seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "src_lines": lines,
        "samples": {
            "wall_s": rounds,
            "op_p50_ms": len(inputs),
            "op_p90_ms": len(inputs),
            "setup_s": setup_count,
            "peak_rss_mb": 1,
        },
    }


def git_sha():
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qshuffle" / "__init__.py").is_file():
        print(f"no qshuffle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    # one CPU for this process and its children, so that the reference
    # loop and the timed work run on the same CPU
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    speed = HostSpeed()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        elapsed, inputs = set_up(workload, args.seed, speed)
        setup_times.append(elapsed)

    correct = True
    if args.trace:
        metrics, raw, attempted, failed, rounds, correct = per_layer(
            workload, inputs, args.seconds, speed)
    else:
        times, raw, attempted, failed, rounds, _ = run_rounds(
            workload, inputs, args.seconds, speed)
        metrics = end_to_end(workload, times[False], setup_times)
    meta = metadata(workload, args.seed, inputs, rounds, len(setup_times))
    meta["host_speed"] = statistics.median(speed.factors)
    meta["unscaled"] = {name: value for name, (value, _) in op_times(latencies(raw)).items()}
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
