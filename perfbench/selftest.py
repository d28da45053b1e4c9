"""Self-test of the benchmark at tiny grids.

    python3 perfbench/selftest.py

For every workload, at a 32x32 grid and a 1-second loop:

* `--trace 0` and `--trace 1` each print, as the last line, every metric
  BENCHMARK.json names for that mode, with its unit, and `correct: true`;
* `--max-iter 1` forces every solve to stop unconverged, and the run must
  then report a fail_frac above 0 and a verified_frac below 1, with no
  output judged wrong.

Exits 1 and names the first miss, or prints "selftest: ok".
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("newton-512", "fixedpoint-128", "cli-io-256", "sweep-128")
GRID = "32"


def run(workload, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--grid", GRID, *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"selftest: {' '.join(cmd[1:])} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def detail(workload, trace):
    path = os.path.join(ROOT, ".perfbench_out", f"{workload}-seed7-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest: FAIL {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for wl in WORKLOADS:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            res = run(wl, "--trace", trace)
            expect(res["correct"] and res["attempted"] >= 1, f"{wl} trace {trace}: {res}")
            for m in spec[section]:
                got = res["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"]
                       and isinstance(got["value"], (int, float)),
                       f"{wl} trace {trace}: metric {m['name']} missing or without unit")
            print(f"selftest: {wl} --trace {trace}: {len(spec[section])} metrics, correct")
        forced = run(wl, "--trace", "0", "--max-iter", "1")
        solves = detail(wl, "0")["solves"]
        expect(forced["correct"], f"{wl} forced failure judged an output wrong")
        expect(solves["fail_frac"] > 0.0, f"{wl}: --max-iter 1 left fail_frac at 0")
        expect(forced["metrics"]["verified_frac"]["value"] < 1.0,
               f"{wl}: --max-iter 1 left verified_frac at 1")
        print(f"selftest: {wl} --max-iter 1: fail_frac {solves['fail_frac']:.2f}, "
              f"classes {solves['error_classes']}")
    print("selftest: ok")


if __name__ == "__main__":
    main()
