"""vortexlab benchmark: time to a verified solution, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; vortexlab is imported from its `src/`.
One client runs operations in a closed loop (the next starts when the
previous returns), checks every result against the count formulas, and
prints as its last line one JSON object with `correct`, `attempted`,
`failed` (operations) and `metrics`.

--trace 0 makes round(S * rate) operations, about S seconds of them at
reference machine speed (see calibration.py), and reports the end-to-end
metrics of BENCHMARK.json. --trace 1 is the separate traced run: for S
seconds it runs each operation with spans around every layer boundary and
then again untraced, and reports the per-layer metrics (see tracing.py)
and the tracing overhead between the two. On newton-512 it also runs the
traced loop in a child process whose BLAS is pinned to one thread, the
plain single-threaded baseline.

Everything else a run records (machine block, input properties, solve
counts by error class, every operation time) goes to
`.perfbench_out/<workload>-seed<N>-trace<T>.json` in the checkout; the
spans of a traced run go next to it as `...-spans.npz`.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

import calibration as calibration_mod  # noqa: E402  (the script directory is on sys.path)
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("newton-512", "fixedpoint-128", "cli-io-256", "sweep-128")
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 4  # fresh interpreters timed besides the run's own set-up
SETUP_CALIBRATIONS = 5  # kernels timed in each of them after its set-up
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
BLAS1_SHARE = 0.2  # of --seconds, for the single-thread child on newton-512
# An operation still running after OP_TIMEOUT_S is stopped and counted as
# failed, and no operation starts after DEADLINE_SHARE * --seconds of loop:
# a stalled 512^2 solve (ROADMAP item 2) takes 55-80 s, and a run must end
# within 180 s. Normal operations take under 5 s.
OP_TIMEOUT_S = 30.0
DEADLINE_SHARE = 4.0


@dataclass
class Phase:
    """Inputs, times and outcomes of the operations of one closed loop."""

    inputs: list = field(default_factory=list)
    times: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0

    def add(self, k, dt, outcome):
        self.inputs.append(k)
        self.times.append(dt)
        self.outcomes.append(outcome)

    def solves(self):
        attempted = sum(o.attempted for o in self.outcomes)
        verified = sum(o.verified for o in self.outcomes)
        errors = {}
        for o in self.outcomes:
            for k, v in o.errors.items():
                errors[k] = errors.get(k, 0) + v
        return {
            "attempted": attempted,
            "verified": verified,
            "failed": attempted - verified,
            "fail_frac": (attempted - verified) / attempted if attempted else 0.0,
            "error_classes": errors,
        }


class Cursor:
    """Cycles through the inputs. An input whose operation failed is not
    run again: it is attempted and counted once, and repeating a stalled
    solve would only time the same failure again."""

    def __init__(self, n):
        self.n = n
        self.k = -1
        self.failed = set()

    def next(self):
        if len(self.failed) == self.n:
            return None
        self.k = (self.k + 1) % self.n
        while self.k in self.failed:
            self.k = (self.k + 1) % self.n
        return self.k

    def record(self, k, outcome):
        if outcome.op_failed:
            self.failed.add(k)


def _alarm(signum, frame):
    raise workloads.OpTimeout(f"operation ran past {OP_TIMEOUT_S:g} s")


def timed_op(fn, *args):
    """(seconds, result) of fn(*args); the result is the OpTimeout raised
    when it runs past OP_TIMEOUT_S."""
    signal.signal(signal.SIGALRM, _alarm)
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        result = fn(*args)
    except workloads.OpTimeout as exc:
        result = exc.with_traceback(None)  # its frames hold the operation's arrays
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    return perf_counter() - t0, result


def traced_op(runner, tracer, op, k):
    """Operation `op` (on input k) with every layer boundary wrapped;
    returns (time, raw)."""
    runner.on_main = lambda argv: tracer.call("cli.main." + argv[0], runner.p.cli.main, argv)
    tracer.current_op = op
    try:
        with tracing.Patches(tracer, runner.p):
            return timed_op(tracer.call, "op", runner.run_op, k)
    finally:
        tracer.current_op = -1
        runner.on_main = None


def run_loop(runner, seconds, n_ops=None, tracer=None, calibration=None):
    """Closed loop of `n_ops` operations (none started after
    DEADLINE_SHARE * seconds), or else for `seconds`. Calibration kernels,
    when given, are timed before each operation."""
    phase = Phase()
    cursor = Cursor(len(runner.items))
    cpu0 = time.process_time()
    start = perf_counter()

    def more():
        if n_ops is not None:
            return len(phase.times) < n_ops and perf_counter() - start < DEADLINE_SHARE * seconds
        return not phase.times or perf_counter() - start < seconds

    while more():
        k = cursor.next()
        if k is None:
            break
        if calibration is not None:
            calibration.mark()
        if tracer is None:
            dt, raw = timed_op(runner.run_op, k)
        else:
            dt, raw = traced_op(runner, tracer, len(phase.times), k)
        outcome = runner.check(k, raw)
        phase.add(k, dt, outcome)
        cursor.record(k, outcome)
    phase.wall = perf_counter() - start
    phase.cpu = time.process_time() - cpu0
    return phase


def run_paired(runner, seconds, tracer):
    """Each operation traced, then again untraced, for `seconds`.

    Pairing the two runs of each input cancels drift between them. An
    operation that failed traced is not repeated untraced. The untraced
    phase's wall and CPU cover its operations only.
    """
    traced, untraced = Phase(), Phase()
    cursor = Cursor(len(runner.items))
    start = perf_counter()
    while not traced.times or perf_counter() - start < seconds:
        k = cursor.next()
        if k is None:
            break
        dt, raw = traced_op(runner, tracer, len(traced.times), k)
        outcome = runner.check(k, raw)
        traced.add(k, dt, outcome)
        cursor.record(k, outcome)
        if outcome.op_failed:
            continue
        cpu0 = time.process_time()
        dt, raw = timed_op(runner.run_op, k)
        untraced.add(k, dt, runner.check(k, raw))
        untraced.cpu += time.process_time() - cpu0
    untraced.wall = sum(untraced.times)
    return traced, untraced


def tail(times):
    """(value, percentile, samples beyond) at the highest percentile that
    still has TAIL_BEYOND samples beyond it. Below 2 * TAIL_BEYOND + 1
    samples that percentile would lie under the median, which is reported
    instead."""
    s = sorted(times)
    n = len(s)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(s), 50.0, n // 2
    i = n - 1 - TAIL_BEYOND
    return s[i], 100.0 * (i + 1) / n, TAIL_BEYOND


def machine_block(load_before):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
    }


def _child(args, mode, seconds, env=None, timeout=180):
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace), "--child", mode,
    ]
    if args.grid:
        cmd += ["--grid", str(args.grid)]
    if args.max_iter is not None:
        cmd += ["--max-iter", str(args.max_iter)]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{mode} child failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def set_up(args, work_dir):
    """Import vortexlab, build geometries, configs and the first problem."""
    t0 = perf_counter()
    program = workloads.Program(os.path.join(ROOT, "src"))
    runner = workloads.Runner(
        args.workload,
        workloads.make_inputs(args.workload, args.seed, args.grid),
        program,
        work_dir,
        max_iter=args.max_iter,
    )
    runner.setup()
    return perf_counter() - t0, runner


def layer_metrics(tracer, phase, cpu_per_wall, overhead_frac):
    extra = {
        "plot_bytes": sum(o.plot_bytes for o in phase.outcomes),
        "sweep_rows": sum(o.sweep_rows for o in phase.outcomes),
        "sweep_rows_failed": sum(o.sweep_rows_failed for o in phase.outcomes),
        "cpu_per_wall": cpu_per_wall,
        "overhead_frac": overhead_frac,
    }
    return tracing.per_layer_metrics(tracer, len(phase.times), extra)


def run_traced(args, runner, detail):
    tracer = tracing.Tracer()
    share = 1.0 - BLAS1_SHARE if args.workload == "newton-512" else 1.0
    traced, untraced = run_paired(runner, share * args.seconds, tracer)
    paired = sum(t for t, o in zip(traced.times, traced.outcomes) if not o.op_failed)
    overhead = paired / untraced.wall - 1.0 if untraced.wall else 0.0
    cpu_per_wall = untraced.cpu / untraced.wall if untraced.wall else 0.0
    metrics = layer_metrics(tracer, traced, cpu_per_wall, overhead)
    both = Phase(outcomes=traced.outcomes + untraced.outcomes)
    solves = both.solves()
    metrics["fail_frac"] = solves["fail_frac"]
    detail["solves"] = solves
    detail["solver_records"] = tracer.solves
    detail["ops"] = {
        "traced": list(zip(traced.inputs, traced.times)),
        "untraced": list(zip(untraced.inputs, untraced.times)),
    }
    if args.workload == "newton-512":
        env = dict(os.environ, **{k: "1" for k in BLAS_ENV})
        detail["blas_1_thread"] = _child(args, "blas1", BLAS1_SHARE * args.seconds, env=env)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.save(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.npz"))
    return both, metrics


def run_untraced(args, runner, own_setup, detail):
    probes = [_child(args, "setup", 0) for _ in range(SETUP_PROBES)]
    calibration = calibration_mod.Calibration()
    n_ops = max(1, round(args.seconds * workloads.OPS_PER_S[args.workload]))
    phase = run_loop(runner, args.seconds, n_ops=n_ops, calibration=calibration)
    calibration.mark()
    factors = calibration.interval_factors()
    scaled = [t * f for t, f in zip(phase.times, factors)]
    setup_factors = [calibration_mod.REFERENCE_S / calibration.marks[0]] + [p["factor"] for p in probes]
    setups = [own_setup] + [p["setup_s"] for p in probes]
    solves = phase.solves()
    tail_s, tail_pct, beyond = tail(scaled)
    detail["solves"] = solves
    detail["ops"] = list(zip(phase.inputs, phase.times, factors))
    detail["op_tail"] = {"percentile": tail_pct, "samples_beyond": beyond, "samples": len(scaled)}
    detail["raw_wall"] = {
        "setup_s": setups,
        "op_p50_s": statistics.median(phase.times),
        "op_tail_s": tail(phase.times)[0],
        "solves_per_s": solves["verified"] / phase.wall,
    }
    detail["calibration"] = {
        "reference_s": calibration_mod.REFERENCE_S,
        "run_factor": calibration.factor(),
        "marks_s": calibration.marks,
        "setup_factors": setup_factors,
    }
    metrics = {
        "setup_s": statistics.median(s * f for s, f in zip(setups, setup_factors)),
        "op_p50_s": statistics.median(scaled),
        "op_tail_s": tail_s,
        "solves_per_s": solves["verified"] / (phase.wall * calibration.factor()),
        "verified_frac": solves["verified"] / solves["attempted"] if solves["attempted"] else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return phase, metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--grid", type=int, default=None,
                    help="override the workload's grid size (self-test, baselines)")
    ap.add_argument("--max-iter", type=int, default=None,
                    help="solver iteration cap (self-test: forces nonconvergence)")
    ap.add_argument("--child", choices=("setup", "blas1"), default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child_main(args, work_dir):
    setup_s, runner = set_up(args, work_dir)
    if args.child == "setup":
        calibration = calibration_mod.Calibration(per_mark=SETUP_CALIBRATIONS)
        calibration.mark()
        return {"setup_s": setup_s, "factor": calibration.factor()}
    tracer = tracing.Tracer()
    phase = run_loop(runner, args.seconds, tracer=tracer)
    out = layer_metrics(tracer, phase, phase.cpu / phase.wall, 0.0)
    out.update(ops=len(phase.times), op_p50_s=statistics.median(phase.times),
               blas_env={k: os.environ.get(k) for k in BLAS_ENV})
    del out["trace.overhead_frac"]
    return out


def main(argv=None):
    args = parse_args(argv)
    load_before = list(os.getloadavg())
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    work_dir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.child:
            print(json.dumps(child_main(args, work_dir)))
            return 0
        own_setup, runner = set_up(args, work_dir)
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "grid": args.grid,
            "max_iter": args.max_iter,
            "inputs": workloads.input_properties(runner.items),
        }
        if args.trace:
            phase, metrics = run_traced(args, runner, detail)
            wanted = spec["per_layer"]
        else:
            phase, metrics = run_untraced(args, runner, own_setup, detail)
            wanted = spec["end_to_end"]
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    detail["machine"] = machine_block(load_before)
    detail["metrics"] = metrics
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    summary = {k: detail[k] for k in ("solves", "machine")}
    summary["inputs"] = {k: v for k, v in detail["inputs"].items() if k != "per_input"}
    print("detail:", path)
    print(json.dumps(summary))
    result = {
        "correct": not any(o.wrong for o in phase.outcomes),
        "attempted": len(phase.outcomes),
        "failed": sum(o.op_failed for o in phase.outcomes),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
