#!/usr/bin/env python3
"""End-to-end benchmark: builds bench/e2e and runs its workloads.

One run of one workload (the form BENCHMARK.json names); the last line of
standard output is the result as one JSON object:

    python3 bench/e2e/run.py --workload codec_large --seed 1 --seconds 20 --trace 0

Every workload, --runs times each with seeds 1..N, printed as a table of
medians, quartiles and spreads (--trace adds traced runs and the per-layer
table). --seconds defaults to BENCHMARK.json's run_seconds:

    python3 bench/e2e/run.py [suite] [--runs 3] [--seconds S] [--trace]
                             [--workloads a,b] [--first-seed 1] [--json FILE]

Two checkouts measured in alternating pairs, each (metric, workload) labelled
better, worse, unchanged or unresolved:

    python3 bench/e2e/run.py compare BASE_DIR CHANGE_DIR [--pairs 10]

Two suite result files of one commit checked against each other:

    python3 bench/e2e/run.py agree A.json B.json
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build" / "e2e"
BINARY = BUILD / "e2e_bench"
RESULTS = BUILD / "results"

WORKLOADS = ["codec_large", "fedavg_flat", "edge_tree", "tcp_tree"]
# Outputs fixed by the seed: equal seeds must give equal values.
DETERMINISTIC = ["compression_ratio", "uplink_mb", "final_accuracy",
                 "fedsz.encode_calls", "fedsz.decode_calls"]
# Reported next to the end-to-end metrics without a bound: wall-clock times
# drift too much on a shared host to gate a change, and accuracy varies by
# seed. Direction of each, for `compare`.
EXTRA = {"round_s": "lower", "encode_mb_s": "higher", "decode_mb_s": "higher",
         "comm_speedup_500mbps": "higher", "final_accuracy": "higher"}
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 150  # a run's budget beyond --seconds before it is killed


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def spec():
    """BENCHMARK.json: metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then bring build/e2e up to date (a no-op when it is)."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "Makefile").exists() and not (BUILD / "build.ninja").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_bench",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            if code != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build step failed ({code}): {' '.join(step)}")


def run_binary(workload, seed, seconds, trace):
    """One benchmark process; returns its result file as a dict."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    out = RESULTS / f"{stem}.json"
    if out.exists():
        out.unlink()
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", str(out)]
    if trace:
        cmd += ["--spans", str(RESULTS / f"{stem}-spans.json")]
    # Own session, so a timeout can kill the edge workers it spawned too.
    # Its stdout goes to our stderr: our stdout carries only the result.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"{workload} seed {seed}: timed out")
    if proc.returncode not in (0, 1) or not out.exists():
        die(f"{workload} seed {seed}: exited {proc.returncode} without a result")
    with open(out) as f:
        return json.load(f)


def result_line(result, trace, bench):
    """The contract's result object; checks the metric names it carries."""
    group = "per_layer" if trace else "end_to_end"
    metrics = result.get(group, {})
    if result["correct"]:
        expected = [m["name"] for m in bench[group]]
        if sorted(expected) != sorted(metrics):
            die(f"{group} metrics {sorted(metrics)} differ from "
                f"BENCHMARK.json {sorted(expected)}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def single(args):
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; one of {WORKLOADS}")
    bench = spec()
    build()
    result = run_binary(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result_line(result, args.trace, bench)))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------- statistics

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(results, group, name):
    return [r[group][name]["value"] for r in results
            if name in r.get(group, {})]


def reported(bench):
    """(group, name, better, bound) of every metric a run reports; bound is
    None for the ungated extras."""
    return ([("end_to_end", m["name"], m["better"], m["bound"])
             for m in bench["end_to_end"]] +
            [("extra", name, better, None) for name, better in EXTRA.items()])


def print_table(headers, rows):
    widths = [max(len(str(x)) for x in column)
              for column in zip(headers, *rows)]
    for row in [headers] + rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(row, widths)))


def fmt(value):
    return f"{value:.4g}"


# --------------------------------------------------------------------- suite

def suite(args):
    bench = spec()
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    build()
    runs = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:  # interleaved, so drift touches every workload
            seed = args.first_seed + i
            started = time.time()
            runs[w].append(run_binary(w, seed, args.seconds, False))
            print(f"[{w} seed {seed}: {time.time() - started:.1f} s]",
                  file=sys.stderr)
            if args.trace:
                traced[w].append(run_binary(w, seed, args.seconds, True))
    failed = sum(r["failed"] for rs in list(runs.values()) +
                 list(traced.values()) for r in rs)

    rows = []
    for w in workloads:
        for group, name, _, bound in reported(bench):
            values = values_of(runs[w], group, name)
            if not values:
                continue
            unit = runs[w][0][group][name]["unit"]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            if bound is None:
                flag = "not gated"
            elif spread > bound:
                flag = "over bound"
            else:
                flag = "" if spread < bound / 3 else "over bound/3"
            rows.append([w, name, unit, fmt(q2), fmt(q1), fmt(q3), len(values),
                         f"{spread:.4f}", "" if bound is None else bound, flag])
    print_table(["workload", "metric", "unit", "median", "q1", "q3", "n",
                 "iqr/median", "bound", ""], rows)
    if args.trace:
        print()
        rows = []
        for m in bench["per_layer"]:
            rows.append([m["name"], m["unit"]] + [
                fmt(statistics.median(values_of(traced[w], "per_layer",
                                                m["name"]) or [0.0]))
                for w in workloads])
        print_table(["per-layer metric (median)", "unit"] + workloads, rows)
    record = {"seconds": args.seconds, "runs": runs, "traced": traced}
    out = Path(args.json) if args.json else BUILD / "suite.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nresults: {out}; failed operations: {failed}")
    return 0 if failed == 0 else 1


# --------------------------------------------------------------------- agree

def agree(args):
    """Two suites of one commit: medians within each bound, seeded outputs
    identical."""
    bench = spec()
    a = json.loads(Path(args.a).read_text())["runs"]
    b = json.loads(Path(args.b).read_text())["runs"]
    rows, bad = [], 0
    for w in [w for w in a if w in b]:
        for m in bench["end_to_end"]:
            ma = statistics.median(values_of(a[w], "end_to_end", m["name"]))
            mb = statistics.median(values_of(b[w], "end_to_end", m["name"]))
            shift = abs(mb - ma) / ma
            ok = shift <= m["bound"]
            bad += not ok
            rows.append([w, m["name"], fmt(ma), fmt(mb), f"{shift:.4f}",
                         m["bound"], "ok" if ok else "DISAGREE"])
        by_seed = {r["seed"]: r for r in a[w]}
        for r in b[w]:
            other = by_seed.get(r["seed"])
            if other is None:
                continue
            for name in DETERMINISTIC:
                for group in ("end_to_end", "extra", "per_layer"):
                    if name in r.get(group, {}) and name in other.get(group, {}):
                        va = other[group][name]["value"]
                        vb = r[group][name]["value"]
                        if va != vb:
                            bad += 1
                            rows.append([w, f"{name} (seed {r['seed']})",
                                         fmt(va), fmt(vb), "", "exact",
                                         "DISAGREE"])
    print_table(["workload", "metric", "median A", "median B", "shift",
                 "bound", ""], rows)
    return 0 if bad == 0 else 1


# ------------------------------------------------------------------- compare

def compare(args):
    """Alternating pairs of two checkouts on the same seeds."""
    bench = spec()
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    sides = {"base": Path(args.base).resolve(),
             "change": Path(args.change).resolve()}
    for side, path in sides.items():
        if not (path / "bench" / "e2e" / "run.py").exists():
            die(f"{side} checkout {path} has no bench/e2e/run.py")
    samples = {(w, s): [] for w in workloads for s in sides}
    for i in range(args.pairs):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for w in workloads:
            seed = args.first_seed + i
            for side in order:
                cmd = [sys.executable, "bench/e2e/run.py", "--workload", w,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", "0"]
                code = subprocess.run(cmd, cwd=sides[side],
                                      stdout=subprocess.DEVNULL).returncode
                if code != 0:
                    die(f"{side} {w} seed {seed} failed ({code})")
                # The full result file carries the ungated extras too.
                result = (sides[side] / "build" / "e2e" / "results" /
                          f"{w}-seed{seed}-trace0.json")
                samples[(w, side)].append(json.loads(result.read_text()))
                print(f"[pair {i} {w} {side} done]", file=sys.stderr)

    rows = []
    for w in workloads:
        for group, name, better, bound in reported(bench):
            base = values_of(samples[(w, "base")], group, name)
            change = values_of(samples[(w, "change")], group, name)
            if not base or len(base) != len(change):
                continue
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
            losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
            b1, b2, b3 = quartiles(base)
            c1, c2, c3 = quartiles(change)
            gain = sign * (c2 - b2)
            all_better = (min(change) > max(base) if sign > 0
                          else max(change) < min(base))
            if wins >= 0.9 * len(base) and gain > b3 - b1:
                label = "better"
            elif bound is None:
                label = ("worse" if losses >= 0.9 * len(base) and
                         -gain > b3 - b1 else "no change shown")
            elif (b3 - b1) / b2 > bound and not all_better:
                label = "unresolved"
            elif -gain / b2 > bound:
                label = "worse"
            else:
                label = "unchanged"
            rows.append([w, name, fmt(b2), f"{fmt(b1)}..{fmt(b3)}", fmt(c2),
                         f"{fmt(c1)}..{fmt(c3)}", f"{wins}/{len(base)}",
                         "" if bound is None else bound, label])
    print_table(["workload", "metric", "base", "base q1..q3", "change",
                 "change q1..q3", "wins", "bound", "label"], rows)
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"pairs": args.pairs, "samples": {f"{w}/{s}": v for (w, s), v
                                              in samples.items()}}, indent=1))
    return 0


def main(argv):
    commands = {"suite", "compare", "agree"}
    command = argv[0] if argv and argv[0] in commands else None
    if command is None and "--workload" in argv:
        p = argparse.ArgumentParser(description="one benchmark run")
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--seconds", type=int, required=True)
        p.add_argument("--trace", type=int, choices=[0, 1], default=0)
        args = p.parse_args(argv)
        args.trace = bool(args.trace)
        return single(args)
    rest = argv[1:] if command else argv
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    if command == "agree":
        p.add_argument("a")
        p.add_argument("b")
        return agree(p.parse_args(rest))
    p.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    p.add_argument("--workloads", default="")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--json", default="")
    if command == "compare":
        p.add_argument("base")
        p.add_argument("change")
        p.add_argument("--pairs", type=int, default=10)
        return compare(p.parse_args(rest))
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--trace", action="store_true")
    return suite(p.parse_args(rest))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
