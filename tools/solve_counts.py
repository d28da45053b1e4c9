"""Deterministic work counts of a benchmark workload's solves, run as the benchmark runs them.

    python3 tools/solve_counts.py --src ../parent/src --workload sweep-128 --seed 1

Runs every seeded input of a workload once, as the benchmark's operation on
it, through the vortexlab package under --src, and prints one JSON line of
counters that do not depend on the machine's speed:

* `solves` and `failures` (solver errors);
* `newton_iters` and `fp_iters`: iterations of the Newton and fixed-point
  solves, failed ones included (the last trace record's iteration);
* `cg_iters`: inner CG iterations, counted by wrapping `pcg_pair` on the
  `tw` and `vav` modules, the names the solvers call it by;
* `point_calls`: calls of the Newton driver's `point` hook of either model,
  wrapped once on each class that defines it, so that a `point` both
  models' `_Work` inherit from one class is counted once a call;
* `shift_calls` and `shift_tanh`: calls of the `vav` constraint shift, and
  the grid-wide tanh evaluations made inside them, counted by wrapping
  `_shift` and `f_half` on the `vav` module, the names the solvers call
  them by; a tanh taken outside a shift is not counted;
* `fields_sha256`: SHA-256 of the U and V bytes of every solution, in
  input order; a failed solve adds the bytes b"failed";
* `tw` and `vav`: `newton_iters`, `cg_iters`, `point_calls` and
  `fields_sha256` of that model's solves alone.

Every input runs through `workloads.Runner.run_op` of `perfbench/workloads.py`
next to this file, which is imported and not changed: a `sweep-128` input by
`vortexlab sweep`, a `cli-io-256` input by `vortexlab solve` and `plotdata`,
both through the checkout's own `cli.main`, and a `fixedpoint-128` input by
one library solve from zeros. Each solve is counted through the solver name
its caller uses, `cli.solve_tw`/`cli.solve_vav` or `tw.solve_tw`/
`vav.solve_vav`; so how a workload builds and starts its problems (the
sweep's start rule included) is stated only in the benchmark and the CLI.
An operation that the benchmark's check finds wrong stops the tool.
--fields FILE writes the U and V of every solution as raw float64, in input
order, with NaN for a failed solve; --against FILE, a file written so by
another checkout, adds `max_field_delta`, the largest |difference| between
the two. numpy and the standard library only.
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402


def _point_owners(program):
    """The classes defining the `point` hook that the models' `_Work`
    resolve to, each once."""
    owners = (
        next(c for c in module._Work.__mro__ if "point" in vars(c))
        for module in (program.tw, program.vav)
    )
    return list(dict.fromkeys(owners))


def count(src, workload, seed, grid=None, fields=None, against=None):
    """The counters of one workload and seed; the wrapped names are put back
    on return."""
    program = workloads.Program(src)
    counts = dict.fromkeys(
        ("solves", "failures", "newton_iters", "fp_iters", "cg_iters", "point_calls",
         "shift_calls", "shift_tanh"),
        0,
    )
    keys = ("newton_iters", "cg_iters", "point_calls")
    split = {m: dict.fromkeys(keys, 0) for m in ("tw", "vav")}
    digests = {m: hashlib.sha256() for m in ("all", "tw", "vav")}
    model = None  # the model of the solve under way
    in_shift = False  # whether a constraint shift is under way

    def tally(key, n):
        counts[key] += n
        split[model][key] += n

    def counted_pcg(pcg):
        def wrapped(*args, **kwargs):
            result = pcg(*args, **kwargs)
            tally("cg_iters", result[2])
            return result

        return wrapped

    def counted_point(point):
        def wrapped(*args, **kwargs):
            tally("point_calls", 1)
            return point(*args, **kwargs)

        return wrapped

    def counted_shift(shift):
        def wrapped(*args, **kwargs):
            nonlocal in_shift
            counts["shift_calls"] += 1
            in_shift = True
            try:
                return shift(*args, **kwargs)
            finally:
                in_shift = False

        return wrapped

    def counted_tanh(f_half):
        def wrapped(*args, **kwargs):
            if in_shift:
                counts["shift_tanh"] += 1
            return f_half(*args, **kwargs)

        return wrapped

    other = np.memmap(against, dtype=np.float64, mode="r") if against else None
    offset = 0
    deltas = []

    def account(fixed_point, iters, planes, record):
        """Count one solve's iterations, and record its U and V planes."""
        nonlocal offset
        if fixed_point:
            counts["fp_iters"] += iters
        else:
            tally("newton_iters", iters)
        for key in ("all", model):
            digests[key].update(record)
        if out:
            out.write(planes.tobytes())
        if other is not None and offset + planes.size <= other.size:
            theirs = other[offset : offset + planes.size].reshape(planes.shape)
            deltas.append(np.abs(planes - theirs).max())
            offset += planes.size

    def counted_solve(solve):
        def wrapped(problem, **kwargs):
            counts["solves"] += 1
            fixed_point = kwargs.get("method") == "fixed_point"
            try:
                sol = solve(problem, **kwargs)
            except program.errors.SolverError as exc:
                counts["failures"] += 1
                geom = problem.geometry
                iters = exc.trace[-1]["iter"] if exc.trace else 0
                account(fixed_point, iters, np.full((2, geom.n1, geom.n2), np.nan), b"failed")
                raise
            planes = np.stack((sol.U.values, sol.V.values))
            account(fixed_point, sol.iterations, planes, planes.tobytes())
            return sol

        return wrapped

    wrappers = [(module, "pcg_pair", counted_pcg) for module in (program.tw, program.vav)]
    wrappers += [(owner, "point", counted_point) for owner in _point_owners(program)]
    wrappers += [(program.vav, "_shift", counted_shift), (program.vav, "f_half", counted_tanh)]
    wrappers += [(program.cli, name, counted_solve) for name in ("solve_tw", "solve_vav")]
    wrappers += [(program.tw, "solve_tw", counted_solve), (program.vav, "solve_vav", counted_solve)]
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in wrappers]
    for owner, name, wrap in wrappers:
        setattr(owner, name, wrap(vars(owner)[name]))
    try:
        with (
            open(fields, "wb") if fields else contextlib.nullcontext() as out,
            tempfile.TemporaryDirectory() as work_dir,
        ):
            items = workloads.make_inputs(workload, seed, grid)
            runner = workloads.Runner(workload, items, program, work_dir)
            runner.setup()
            for k, item in enumerate(items):
                model = item.model
                outcome = runner.check(k, runner.run_op(k))
                if outcome.wrong:
                    raise RuntimeError(f"{workload} input {k} failed its check: {outcome.errors}")
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    result = {"workload": workload, "seed": seed, "grid": grid, **counts}
    result["fields_sha256"] = digests["all"].hexdigest()
    for key in ("tw", "vav"):
        result[key] = {**split[key], "fields_sha256": digests[key].hexdigest()}
    if other is not None:
        # None where either side failed a solve (NaN) or the layouts differ
        worst = float(np.max(deltas)) if deltas else 0.0
        same_layout = offset == other.size and len(deltas) == counts["solves"]
        result["max_field_delta"] = worst if same_layout and np.isfinite(worst) else None
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="the checkout's src directory")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.POOL))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--grid", type=int, default=None, help="grid size in place of the workload's")
    parser.add_argument("--fields", help="write every solution's U and V here, raw float64")
    parser.add_argument("--against", help="a --fields file of another checkout to compare with")
    args = parser.parse_args(argv)
    result = count(args.src, args.workload, args.seed, args.grid, args.fields, args.against)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
