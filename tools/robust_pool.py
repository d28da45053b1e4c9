"""Outcome counts of a seeded pool of admissible problems, solved by every
method from three starts, through the library.

    python3 tools/robust_pool.py --seed 1
    python3 tools/robust_pool.py --src ../parent/src --seed 2 --problems 20

Draws --problems problems for each model from the seed:

* a torus of aspect ratio L1/L2 from 1 to 16 (at most n/2, so that the
  mollifier, two cells of the longer side, fits the shorter one) on an
  n x n grid, n one of --grids (64, 96 and 128 by default);
* for `tw`, 1 to 15 q-zeros and 0 to 9 p-zeros; for `vav`, 0 to 15 zeros
  and poles of q and 0 to 9 of p; every multiplicity 1 to 3, every position
  uniform on the torus;
* an area of the smallest one the counts admit, times one of 1.0001,
  1.001, 1.01, 1.1, 3 and 30. That is 2*pi*(N1 + 2*N2) for `tw`, the
  Bradlow bound, and pi*max(|n1 + n2|, |n1 + 2*n2|) with n = (N1 - P1,
  N2 - P2) for `vav`, the difference bounds; counts whose smallest area is
  0 are drawn again.

Each problem is solved, at default settings, by each method of its model
and from three starts: "zeros", and "unit" and "amp10", white noise of
amplitude 1 (what the CLI's `seed` gives) and 10, the same noise for both,
U then V from default_rng((seed, index)). Prints one JSON line: for each
model, method and start, the count of solves by outcome, "converged" or
the class name of the solver error; and `failed`, the [model, method,
start, index, margin, error class, error message] of every solve that did
not converge. `draws` replays the pool's problems alone. numpy and the
standard library only; the package is imported from --src by
`perfbench/workloads.py`, which is not changed.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

MODELS = ("tw", "vav")
PROBLEMS = 60
GRIDS = (64, 96, 128)
MARGINS = (1.0001, 1.001, 1.01, 1.1, 3.0, 30.0)
AMPLITUDES = {"zeros": 0.0, "unit": 1.0, "amp10": 10.0}
# the most source points of each set: q-zeros, q-poles, p-zeros, p-poles
MOST = {"tw": (15, 0, 9, 0), "vav": (15, 15, 9, 9)}
LEAST = {"tw": (1, 0, 0, 0), "vav": (0, 0, 0, 0)}
SETS = ("zeros_q", "poles_q", "zeros_p", "poles_p")


def smallest_area(model, counts):
    """The area below which the counts (N1, P1, N2, P2) admit no solution."""
    N1, P1, N2, P2 = counts
    if model == "tw":
        return 2.0 * math.pi * (N1 + 2 * N2)
    n1, n2 = N1 - P1, N2 - P2
    return math.pi * max(abs(n1 + n2), abs(n1 + 2 * n2))


def draw(rng, model, grids):
    """One problem: (L1, L2, n, sources, margin), sources as
    `VortexConfiguration` keywords."""
    while True:
        sizes = [int(rng.integers(lo, hi + 1)) for lo, hi in zip(LEAST[model], MOST[model])]
        mults = [rng.integers(1, 4, size=k) for k in sizes]
        area = smallest_area(model, [int(m.sum()) for m in mults])
        if area > 0.0:
            break
    n = int(rng.choice(grids))
    aspect = rng.uniform(1.0, min(16.0, n / 2))
    margin = float(rng.choice(MARGINS))
    L2 = math.sqrt(area * margin / aspect)
    L1 = aspect * L2
    sources = {
        name: [(rng.uniform(0.0, L1), rng.uniform(0.0, L2), int(m)) for m in ms]
        for name, ms in zip(SETS, mults)
    }
    return L1, L2, n, sources, margin


def draws(seed, problems, grids):
    """(model, index, drawn problem) of one seeded pool, in the order that
    `pool` solves them: `problems` of each model, `tw` first."""
    rng = np.random.default_rng(seed)
    for model in MODELS:
        for index in range(problems):
            yield model, index, draw(rng, model, grids)


def pool(src, seed, problems, grids):
    """The outcome counts of one seeded pool."""
    program = workloads.Program(src)
    vl = program.vl
    solvers = {
        "tw": (program.tw.tw_problem, program.tw.solve_tw),
        "vav": (program.vav.vav_problem, program.vav.solve_vav),
    }
    methods = {model: program.diagnostics.MODELS[model].work.methods for model in MODELS}
    outcomes = {model: {m: {s: {} for s in AMPLITUDES} for m in methods[model]} for model in MODELS}
    failed = []
    for model, index, (L1, L2, n, sources, margin) in draws(seed, problems, grids):
        make, solve = solvers[model]
        problem = make(vl.TorusGeometry(L1, L2, n, n), vl.VortexConfiguration(**sources))
        noise = np.random.default_rng((seed, index)).standard_normal((2, n, n))
        for method in methods[model]:
            for start, amplitude in AMPLITUDES.items():
                x0 = (amplitude * noise[0], amplitude * noise[1]) if amplitude else None
                try:
                    solve(problem, method=method, x0=x0)
                    outcome = "converged"
                except program.errors.SolverError as exc:
                    outcome = type(exc).__name__
                    failed.append([model, method, start, index, margin, outcome, str(exc)])
                tally = outcomes[model][method][start]
                tally[outcome] = tally.get(outcome, 0) + 1
    return {"seed": seed, "problems": problems, "grids": list(grids), "outcomes": outcomes,
            "failed": failed}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="the checkout's src directory")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--problems", type=int, default=PROBLEMS, help="problems drawn for each model")
    parser.add_argument("--grids", type=int, nargs="+", default=list(GRIDS))
    args = parser.parse_args(argv)
    print(json.dumps(pool(args.src, args.seed, args.problems, args.grids)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
