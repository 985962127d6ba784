"""Run the benchmark in sets of seeded runs and report every metric.

    python3 bench/steady.py                      # two sets of ten runs per workload
    python3 bench/steady.py --sets 1 --runs 1    # one run each: every metric once
    python3 bench/steady.py --trace 1 --runs 1   # per-layer metrics of traced runs

Each run is a fresh ``bench/run.py`` process with its own seed; workloads
are interleaved so that slow spells of the host fall on all of them. For
each workload and end-to-end metric the report gives its unit, samples per
run, and for each set the median, the quartiles and the spread (the
distance between the quartiles as a share of the median). Two sets agree
when every spread is within the metric's bound from ``BENCHMARK.json`` and
the two medians differ by no more than the bound, in either direction.
Every workload runs for ``run_seconds`` from ``BENCHMARK.json``.
``fail_ratio`` is failed over attempted operations.
With ``--trace 1`` the report lists per-layer medians and whether each
count repeated exactly across runs with the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload, seed, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(argv)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def end_to_end_report(results, workloads, sets):
    all_agree = True
    for workload in workloads:
        runs = [results[(s, workload)] for s in range(sets)]
        meta = runs[0][0][0]
        attempted = sum(r["attempted"] for rs in runs for _, r in rs)
        failed = sum(r["failed"] for rs in runs for _, r in rs)
        speed = statistics.median(m["host_speed"] for rs in runs for m, _ in rs)
        print(f"\n{workload}: fail_ratio {failed}/{attempted} = {failed / attempted:g}"
              f"  host speed {speed:.2f} of the reference"
              f"  (src_lines {meta['src_lines']}, python {meta['python']},"
              f" nproc {meta['nproc']}, {meta['cpu_model']}, sha {meta['git_sha'][:12]})")
        print(f"  {'metric':<12} {'unit':<5} {'n/run':>5}  "
              + "  ".join(f"{'set ' + str(s + 1) + ' median [q1, q3] spread':<44}" for s in range(sets))
              + ("  change  bound  agree" if sets > 1 else ""))
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            unit = runs[0][0][1]["metrics"][name]["unit"]
            cells, medians, ok = [], [], True
            for rs in runs:
                median, q1, q3, share = spread([r["metrics"][name]["value"] for _, r in rs])
                medians.append(median)
                cells.append(f"{median:>11.5g} [{q1:.5g}, {q3:.5g}] {share:6.1%}")
                if share > bound:
                    ok = False
            line = f"  {name:<12} {unit:<5} {meta['samples'][name]:>5}  " + "  ".join(
                f"{c:<44}" for c in cells)
            if sets > 1:
                change = medians[-1] / medians[0] - 1
                ok = ok and abs(change) <= bound
                all_agree = all_agree and ok
                line += f"  {change:+6.1%}  {bound:5.2f}  {'yes' if ok else 'NO'}"
            print(line)
    if sets > 1:
        print("\nall sets agree within bounds" if all_agree else "\nsets DISAGREE")
    return all_agree


def per_layer_report(results, workloads, sets):
    counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"}
    for workload in workloads:
        runs = [run for s in range(sets) for run in results[(s, workload)]]
        print(f"\n{workload}: traced runs {len(runs)}")
        for metric in SPEC["per_layer"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for _, r in runs]
            if not any(values):
                continue
            note = ""
            if name in counts:
                by_seed = {}
                for meta, r in runs:
                    by_seed.setdefault(meta["seed"], set()).add(r["metrics"][name]["value"])
                same = all(len(v) == 1 for v in by_seed.values())
                note = "repeats per seed" if same else f"VARIES {by_seed}"
            print(f"  {name:<34} {statistics.median(values):>14.6g} {metric['unit']:<6} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in SPEC["workloads"]]
    results = {}
    for s in range(args.sets):
        for k in range(args.runs):
            # with --trace 1 both sets reuse the seeds, so counts can be compared
            seed = 1 + k + (0 if args.trace else s * args.runs)
            for workload in workloads:
                run = one_run(workload, seed, args.trace)
                results.setdefault((s, workload), []).append(run)
                print(f"set {s + 1} run {k + 1} {workload} seed {seed}: "
                      f"correct={run[1]['correct']}", file=sys.stderr)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"steady-trace{args.trace}.json").write_text(json.dumps(
        [{"set": s + 1, "workload": w, "meta": meta, "result": result}
         for (s, w), runs in results.items() for meta, result in runs], indent=1))
    if args.trace:
        per_layer_report(results, workloads, args.sets)
        return 0
    return 0 if end_to_end_report(results, workloads, args.sets) or args.sets == 1 else 1


if __name__ == "__main__":
    raise SystemExit(main())
