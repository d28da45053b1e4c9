"""Paired benchmark runs of two checkouts, and their summary.

    python3 tools/bench_pairs.py --base ../parent --change . \
        --workload sweep-128 --seed 1 --pairs 10 --out BENCH_9.json

Runs `perfbench/run.py --trace 0` in each checkout, one run per side per
pair, alternating which side runs first (base first in even pairs), so
that a drift of the machine's speed falls on both sides alike. Each run
lasts the benchmark's own run length (`run_seconds` of the change
checkout's BENCHMARK.json). For every end-to-end metric there it prints
each side's median and quartiles, the pairs the change won and the gap
between the medians against the base's interquartile range, and its
no-regression verdict against the metric's `bound` there. Under the
scaled `op_p50_s` it prints each side's median of the two figures that
metric is made of, read from each run's detail file
(`.perfbench_out/<workload>-seed<N>-trace0.json`, which the next run
overwrites): the raw median operation time and the median time of the
calibration kernel, the benchmark's unit. For each side it prints the
failed and attempted operation counts, the runs that gave no result
(non-zero exit or no metrics) and the runs whose results were not correct.

Every run (side, pair, order, exit code, wall time, operation counts,
metrics, raw p50 and kernel median) goes to the --out JSON file together
with its summary, the machine it ran on and each checkout's directory
name, commit and `src_sha256`, a hash of its src/ that names the code also
outside git. An existing file gains one more set, so that several
workloads and seeds can share one file; each set keeps its own machine
block. Standard library only.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SIDES = ("base", "change")
# The BLAS thread settings a run inherits; a BLAS call's speed and bits
# can depend on them.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# What a run record holds of its detail file: the raw (unscaled) median
# operation time and the median of the calibration kernel's timings.
UNIT = ("raw_op_p50_s", "kernel_s")


def order(pair):
    """The sides of one pair in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def quartiles(values):
    """(q1, median, q3) of a non-empty list; q1 = q3 = the value for one."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _value(run, name):
    metric = run.get("metrics", {}).get(name)
    return None if metric is None else metric["value"]


def read_unit(checkout, workload, seed):
    """{"raw_op_p50_s", "kernel_s"} of the last untraced run of `workload`
    and `seed` in `checkout`, from its detail file: `raw_wall.op_p50_s` and
    the median of `calibration.marks_s`. A value the file lacks, or every
    value when there is no readable file, is None."""
    path = os.path.join(checkout, ".perfbench_out", f"{workload}-seed{seed}-trace0.json")
    try:
        with open(path, encoding="utf-8") as fh:
            detail = json.load(fh)
    except (OSError, ValueError):
        detail = {}
    marks = detail.get("calibration", {}).get("marks_s")
    return {
        "raw_op_p50_s": detail.get("raw_wall", {}).get("op_p50_s"),
        "kernel_s": statistics.median(marks) if marks else None,
    }


def summarize(runs, metrics):
    """Per-metric statistics of paired runs.

    `runs` holds dicts with `side` ("base" or "change"), `pair`,
    `attempted`, `failed`, `metrics` ({name: {"value": v}}; empty for a
    run that gave no result) and optionally `returncode`, `correct` and
    the `UNIT` values (None when missing). `metrics` holds dicts with
    `name`, `better` ("lower" or "higher") and optionally `bound`,
    relative to the base median. A pair counts as won when both of its
    runs have the metric and the change's value is strictly better.
    Returns {"ops": {side: {"runs", "no_result", "incorrect", "attempted",
    "failed"}}, "unit": {side: {name: median or None}} for each `UNIT`
    name, "metrics": {name: {"base": stats, "change": stats, "wins",
    "pairs", "gap", "base_iqr", "verdict"}}}, with stats {"median", "q1",
    "q3", "n"} or None when no run has it, and gap the signed improvement
    of the change's median (positive = better).
    The verdict is "worse" when the change's median is worse by more than
    bound times the base median; "unresolved" when the base IQR exceeds
    bound times the base median and not every change run beats every base
    run; "within bound" otherwise; None without a bound or a gap.
    A run has no result when it exited non-zero or gave no metrics, and is
    incorrect when it reported `correct` false.
    """
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    ops = {}
    for side in SIDES:
        mine = [r for r in runs if r["side"] == side]
        ops[side] = {
            "runs": len(mine),
            "no_result": sum(r.get("returncode", 0) != 0 or not r.get("metrics") for r in mine),
            "incorrect": sum(r.get("correct") is False for r in mine),
            "attempted": sum(r.get("attempted", 0) for r in mine),
            "failed": sum(r.get("failed", 0) for r in mine),
        }
    unit = {}
    for side in SIDES:
        unit[side] = {}
        for name in UNIT:
            values = [v for r in runs if r["side"] == side and (v := r.get(name)) is not None]
            unit[side][name] = statistics.median(values) if values else None
    out = {}
    for metric in metrics:
        name = metric["name"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        entry = {}
        values = {}
        for side in SIDES:
            values[side] = [
                v for r in runs if r["side"] == side and (v := _value(r, name)) is not None
            ]
            if values[side]:
                q1, med, q3 = quartiles(values[side])
                entry[side] = {"median": med, "q1": q1, "q3": q3, "n": len(values[side])}
            else:
                entry[side] = None
        wins = 0
        for pair in by_pair.values():
            b = _value(pair.get("base", {}), name)
            c = _value(pair.get("change", {}), name)
            if b is not None and c is not None and sign * (b - c) > 0.0:
                wins += 1
        entry["wins"] = wins
        entry["pairs"] = len(by_pair)
        if entry["base"] and entry["change"]:
            # + 0.0 turns a tie's -0.0 into 0.0
            entry["gap"] = sign * (entry["base"]["median"] - entry["change"]["median"]) + 0.0
            entry["base_iqr"] = entry["base"]["q3"] - entry["base"]["q1"]
        else:
            entry["gap"] = entry["base_iqr"] = None
        entry["verdict"] = None
        bound = metric.get("bound")
        if bound is not None and entry["gap"] is not None:
            allowed = bound * abs(entry["base"]["median"])
            beats_all = max(sign * v for v in values["change"]) < min(
                sign * v for v in values["base"]
            )
            if -entry["gap"] > allowed:
                entry["verdict"] = "worse"
            elif entry["base_iqr"] > allowed and not beats_all:
                entry["verdict"] = "unresolved"
            else:
                entry["verdict"] = "within bound"
        out[name] = entry
    return {"ops": ops, "unit": unit, "metrics": out}


def _figure(value):
    return "-" if value is None else f"{value:.4g}"


def format_summary(summary):
    """Lines of text for a summary made by `summarize`."""
    lines = []
    for name, e in summary["metrics"].items():
        sides = []
        for side in SIDES:
            s = e[side]
            sides.append(
                f"{side} -" if s is None
                else f"{side} {s['median']:.4g} [{s['q1']:.4g}-{s['q3']:.4g}]"
            )
        tail = ""
        if e["gap"] is not None:
            tail = f"  gap {e['gap']:+.4g} vs base IQR {e['base_iqr']:.4g}"
        if e["verdict"]:
            tail += f"  {e['verdict']}"
        lines.append(f"{name:14s} {sides[0]:32s} {sides[1]:32s} wins {e['wins']}/{e['pairs']}{tail}")
        if name == "op_p50_s":
            # the medians of the raw time and of the unit it is scaled by
            for label, key in (("raw", "raw_op_p50_s"), ("kernel", "kernel_s")):
                cells = [f"{side} {_figure(summary['unit'][side][key])}" for side in SIDES]
                lines.append(f"  {label:12s} {cells[0]:32s} {cells[1]}")
    for side in SIDES:
        o = summary["ops"][side]
        lines.append(
            f"{side}: {o['failed']} of {o['attempted']} operations failed; of {o['runs']} runs "
            f"{o['no_result']} gave no result and {o['incorrect']} were not correct"
        )
    return lines


def machine():
    """The machine and settings one set of runs ran with."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "affinity_cpus": affinity,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def head_commit(checkout):
    """`git rev-parse HEAD` in `checkout`, or None unless `checkout` is the
    top of a git work tree: a plain tree inside another repo's work tree
    (an extracted `git archive`, say) is not that repo's HEAD."""

    def git(*args):
        proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    try:
        top = git("rev-parse", "--show-toplevel")
        if top is None or not os.path.samefile(top, checkout):
            return None
        return git("rev-parse", "HEAD")
    except OSError:  # no git
        return None


def src_sha256(checkout):
    """SHA-256 over the files of `checkout`'s src/, in sorted relative-path
    order: each file adds its path, its size and its bytes. Bytecode caches
    (`__pycache__`, *.pyc) are left out, since running the tree writes them.
    None when there is no src/. It names the code of a checkout that is not
    a git work tree."""
    root = os.path.join(checkout, "src")
    if not os.path.isdir(root):
        return None
    files = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            if not name.endswith(".pyc"):
                path = os.path.join(dirpath, name)
                files.append((os.path.relpath(path, root).replace(os.sep, "/"), path))
    digest = hashlib.sha256()
    for rel, path in sorted(files):
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def append_set(path, entry):
    """Add one set to the JSON file at `path`, creating the file if needed."""
    data = {"sets": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    data["sets"].append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def run_once(checkout, workload, seed, seconds):
    """One untraced benchmark run in `checkout`; returns its record."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    record = {"returncode": proc.returncode, "wall_s": time.perf_counter() - t0}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record.update(attempted=0, failed=0, metrics={}, stderr=proc.stderr[-2000:])
        record.update(dict.fromkeys(UNIT))
        return record
    record.update(
        correct=result["correct"],
        attempted=result["attempted"],
        failed=result["failed"],
        metrics=result["metrics"],
    )
    # written by this run, since it printed a result after writing it
    record.update(read_unit(checkout, workload, seed))
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    ap.add_argument("--base", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True, help="JSON file; an existing one gains a set")
    args = ap.parse_args(argv)
    checkouts = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    runs = []
    for pair in range(args.pairs):
        for side in order(pair):
            record = run_once(checkouts[side], args.workload, args.seed, seconds)
            record.update(side=side, pair=pair, first=side == order(pair)[0])
            runs.append(record)
            p50 = _value(record, "op_p50_s")
            print(
                f"pair {pair} {side}: op_p50_s {p50}, raw {record['raw_op_p50_s']}, "
                f"kernel {record['kernel_s']} ({record['wall_s']:.0f} s)",
                flush=True,
            )
    summary = summarize(runs, metrics)
    print("\n".join(format_summary(summary)))
    append_set(
        args.out,
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": seconds,
            "pairs": args.pairs,
            "machine": machine(),
            # directory names only, each with the commit checked out there
            # and the hash of its src/
            "checkouts": {
                side: {
                    "dir": os.path.basename(path),
                    "commit": head_commit(path),
                    "src_sha256": src_sha256(path),
                }
                for side, path in checkouts.items()
            },
            "summary": summary,
            "runs": runs,
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
