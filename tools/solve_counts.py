"""Deterministic work counts of a benchmark workload's solves, through the library.

    python3 tools/solve_counts.py --src ../parent/src --workload sweep-128 --seed 1

Solves every seeded input of a workload once, through the vortexlab package
under --src, and prints one JSON line of counters that do not depend on the
machine's speed:

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

A `sweep-128` input is one solve per admissible length, with the sources
keeping their fractional positions as the torus scales, and each solve
starting from the U and V of the input's last length that solved (zeros for
the first), as `vortexlab sweep` does; every other input is one solve, from
zeros. The inputs come from `perfbench/workloads.py` next to this file,
which is imported and not changed. --fields FILE writes the U and V of every
solution as raw float64, in input order, with NaN for a failed solve;
--against FILE, a file written so by another checkout, adds
`max_field_delta`, the largest |difference| between the two. numpy and the
standard library only.
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402


def _solves(program, item):
    """(problem, solver, keyword arguments) of each admissible solve of an input."""
    vl = program.vl
    for L in [float(s) for s in item.lengths] or [item.L]:
        # a sweep scales its sources as `vortexlab sweep` does, x * L / L1;
        # x * (L / L1) is off in the last bit for about a third of them. An
        # input that is no sweep keeps its own, as (x * L) / L is not always x.
        sources = item.sources
        if item.lengths:
            sources = {
                k: [(x * L / item.L, y * L / item.L, m) for x, y, m in v]
                for k, v in item.sources.items()
            }
        geom = vl.TorusGeometry(L, L, item.n, item.n)
        config = vl.VortexConfiguration(**sources)
        if not program.diagnostics.MODELS[item.model].admissibility(config, geom).satisfied:
            continue
        if item.model == "tw":
            yield program.tw.tw_problem(geom, config), program.tw.solve_tw, {}
        else:
            yield program.vav.vav_problem(geom, config), program.vav.solve_vav, {"method": item.method}


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

    wrappers = [(module, "pcg_pair", counted_pcg) for module in (program.tw, program.vav)]
    wrappers += [(owner, "point", counted_point) for owner in _point_owners(program)]
    wrappers += [(program.vav, "_shift", counted_shift), (program.vav, "f_half", counted_tanh)]
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in wrappers]
    for owner, name, wrap in wrappers:
        setattr(owner, name, wrap(vars(owner)[name]))
    other = np.memmap(against, dtype=np.float64, mode="r") if against else None
    offset = 0
    deltas = []
    try:
        with open(fields, "wb") if fields else contextlib.nullcontext() as out:
            for item in workloads.make_inputs(workload, seed, grid):
                model = item.model
                x0 = None  # the (U, V) of the input's last solved length
                for problem, solve, kwargs in _solves(program, item):
                    counts["solves"] += 1
                    fixed_point = kwargs.get("method") == "fixed_point"
                    try:
                        sol = solve(problem, x0=x0, **kwargs)
                    except program.errors.SolverError as exc:
                        counts["failures"] += 1
                        iters = exc.trace[-1]["iter"] if exc.trace else 0
                        record = b"failed"
                        planes = np.full((2, item.n, item.n), np.nan)
                    else:
                        iters = sol.iterations
                        x0 = (sol.U.values, sol.V.values)
                        planes = np.stack(x0)
                        record = planes.tobytes()
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
