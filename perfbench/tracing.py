"""Spans around the calls between vortexlab's modules, recorded from outside.

The traced run replaces, for its duration, the names that each calling
module looks up (for example `vortexlab.tw.pcg_pair`, which `solve_tw`
calls) with a wrapper that records a span: name, start, end, parent span
and the operation it belongs to. Spans stay in memory in flat arrays and
are written once, when the run ends. Nothing inside `src/` is changed.

A layer is a module: `surface` (FFT transforms), `kernels` (exp/tanh),
`linalg` (the `_linalg` module, `pcg_pair`), `sources` (backgrounds),
`tw`, `vav`, `diagnostics` and `cli`. A span's self time is its duration
minus the time its child spans cover.
"""

import math
import os
from array import array
from time import perf_counter

# Complex 2-D FFTs implied by one call of each TorusGeometry transform.
SURFACE_FFT2 = {
    "lap": 2,
    "lap_pair": 2,
    "inv_lap": 2,
    "inv_lap_projected": 2,
    "inv_lap_pair_projected": 2,
    "helmholtz_pair": 2,
    "grad_sq": 1,
}
# A line search that finds no step has made this many trials (both solvers).
LS_FAILED_TRIALS = 40


class Tracer:
    """In-memory span store; one instance per traced phase."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.value = array("d")  # grid points, CG iterations or bytes written
        self._stack = [-1]
        self.current_op = -1
        self.solves = []  # one record per solver call, from its trace

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid):
        idx = len(self.t0)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.value.append(0.0)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(perf_counter())
        return idx

    def end(self, idx):
        self.t1[idx] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span of its own."""
        idx = self.begin(self.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def save(self, path):
        """Write the spans as one .npz file (numpy is loaded by now)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            t0=np.frombuffer(self.t0, dtype=np.float64),
            t1=np.frombuffer(self.t1, dtype=np.float64),
            value=np.frombuffer(self.value, dtype=np.float64),
        )


# ------------------------------------------------------------- wrapping ----


def _solve_record(model, method, trace, error=None):
    """Newton iterations and line-search trials from a solver's trace.

    An accepted step 0.5**k took k+1 trials; a failed search took 40.
    """
    steps = [e["step"] for e in trace if e.get("kind") in ("newton", "gradient")]
    trials = sum(round(-math.log2(t)) + 1 for t in steps if t > 0.0)
    ls_failed = error is not None and "line search" in error[1]
    if ls_failed:
        trials += LS_FAILED_TRIALS
    return {
        "model": model,
        "method": method,
        "iters": max(len(trace) - 1, 0),
        "ls_trials": trials,
        "ls_accepted": len(steps),
        "error": None if error is None else error[0],
    }


def _wrap(tracer, nid, fn, after=None, on_error=None):
    def traced(*args, **kwargs):
        idx = tracer.begin(nid)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.end(idx)
            if on_error is not None:
                on_error(args, kwargs, exc)
            raise
        tracer.end(idx)
        if after is not None:
            after(idx, args, kwargs, result)
        return result

    return traced


class Patches:
    """Context manager that wraps the layer boundaries and restores them."""

    def __init__(self, tracer, program):
        self.tracer = tracer
        self.p = program
        self._saved = []

    def _patch(self, owner, attr, name, after=None, on_error=None):
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        nid = self.tracer.name_id(name)
        setattr(owner, attr, _wrap(self.tracer, nid, fn, after, on_error))

    def __enter__(self):
        t, p = self.tracer, self.p
        value = t.value

        def grid_points(idx, args, kwargs, result):
            value[idx] = args[0].n1 * args[0].n2

        for meth in SURFACE_FFT2:
            self._patch(p.surface.TorusGeometry, meth, "surface." + meth, after=grid_points)

        def cg_iters(idx, args, kwargs, result):
            value[idx] = result[2]

        for mod in (p.tw, p.vav):
            self._patch(mod, "pcg_pair", "linalg.pcg_pair", after=cg_iters)
        self._patch(p.tw, "clipped_exp", "kernels.clipped_exp")
        self._patch(p.vav, "f_half", "kernels.f_half")
        self._patch(p.vav, "df_half", "kernels.df_half")
        self._patch(p.tw, "background", "sources.background")
        self._patch(p.vav, "build_backgrounds", "sources.build_backgrounds")
        self._patch(p.vav, "_shift", "vav._shift")

        def solved(model):
            def after(idx, args, kwargs, sol):
                t.solves.append(_solve_record(model, sol.method, sol.trace))

            def failed(args, kwargs, exc):
                trace = getattr(exc, "trace", None)
                if trace is not None:
                    method = kwargs.get("method", "newton")
                    t.solves.append(
                        _solve_record(model, method, trace, (type(exc).__name__, str(exc)))
                    )

            return after, failed

        for mod in (p.tw, p.cli):
            self._patch(mod, "tw_problem", "tw.tw_problem")
            self._patch(mod, "solve_tw", "tw.solve_tw", *solved("tw"))
        for mod in (p.vav, p.cli):
            self._patch(mod, "vav_problem", "vav.vav_problem")
            self._patch(mod, "solve_vav", "vav.solve_vav", *solved("vav"))
        self._patch(p.cli, "report_tw", "diagnostics.report_tw")
        self._patch(p.cli, "report_vav", "diagnostics.report_vav")

        def written(idx, args, kwargs, result):
            value[idx] = os.path.getsize(args[0])

        self._patch(p.cli, "_write_fields", "cli._write_fields", after=written)
        self._patch(p.cli, "_read_fields", "cli._read_fields")
        self._patch(p.cli, "_write_report", "cli._write_report")
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False


# -------------------------------------------------------------- metrics ----


def layer_of(name):
    return name.split(".", 1)[0]


def per_layer_metrics(tracer, n_ops, extra):
    """Per-layer metrics of one traced phase of `n_ops` operations.

    Counts and times are per operation; shares are of the summed operation
    time; solver figures are per solve of that kind. `extra` carries what
    the spans do not: sweep rows, plot bytes, CPU per wall, overhead.
    """
    import numpy as np

    names = tracer.names
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    op = np.frombuffer(tracer.op, dtype=np.int32)
    dur = np.frombuffer(tracer.t1, dtype=np.float64) - np.frombuffer(tracer.t0, dtype=np.float64)
    value = np.frombuffer(tracer.value, dtype=np.float64)  # see Patches
    inside = op >= 0
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - covered

    def mask(pred):
        ids = [i for i, nm in enumerate(names) if pred(nm)]
        return inside & np.isin(name, ids)

    def parent_in(m):
        out = np.zeros(len(dur), dtype=bool)
        out[has_parent] = m[parent[has_parent]]
        return out & inside

    op_m = mask(lambda nm: nm == "op")
    op_time = float(dur[op_m].sum()) or float("nan")
    ops = max(n_ops, 1)

    surf = mask(lambda nm: layer_of(nm) == "surface")
    fft2 = np.zeros(len(dur))
    for i, nm in enumerate(names):
        if layer_of(nm) == "surface":
            fft2[name == i] = SURFACE_FFT2[nm.split(".", 1)[1]]
    points = np.maximum(value[surf], 2.0)  # grid points of each transform
    surf_flop = float((fft2[surf] * 5.0 * points * np.log2(points)).sum())
    surf_busy = float(dur[surf].sum())

    pcg = mask(lambda nm: nm == "linalg.pcg_pair")
    cg_iters = float(value[pcg].sum())
    fft2_in_pcg = float(fft2[surf & parent_in(pcg)].sum())
    kern = mask(lambda nm: layer_of(nm) == "kernels")
    shift = mask(lambda nm: nm == "vav._shift")
    src = mask(lambda nm: layer_of(nm) == "sources")
    bg_calls = float(src.sum())

    def solves(model, method):
        return [s for s in tracer.solves if s["model"] == model and s["method"] == method]

    def mean(records, key):
        return sum(r[key] for r in records) / len(records) if records else 0.0

    def accept(records):
        trials = sum(r["ls_trials"] for r in records)
        return sum(r["ls_accepted"] for r in records) / trials if trials else 0.0

    tw_n, vav_n, vav_fp = solves("tw", "newton"), solves("vav", "newton"), solves("vav", "fixed_point")
    main_plot = mask(lambda nm: nm == "cli.main.plotdata")
    main_plot_s = float(dur[main_plot].sum())

    def busy(pred):
        return float(dur[mask(pred)].sum()) / ops

    def self_of(layer):
        return float(self_t[mask(lambda nm: layer_of(nm) == layer)].sum()) / ops

    return {
        "surface.calls": float(surf.sum()) / ops,
        "surface.fft2": float(fft2[surf].sum()) / ops,
        "surface.busy_s": surf_busy / ops,
        "surface.share": surf_busy / op_time,
        "surface.gflops_computed": surf_flop / surf_busy / 1e9 if surf_busy else 0.0,
        "linalg.pcg_calls": float(pcg.sum()) / ops,
        "linalg.cg_iters": cg_iters / ops,
        "linalg.busy_s": float(dur[pcg].sum()) / ops,
        "linalg.self_s": float(self_t[pcg].sum()) / ops,
        "linalg.fft2_per_cg_iter": fft2_in_pcg / cg_iters if cg_iters else 0.0,
        "linalg.fft2_share": fft2_in_pcg / float(fft2[surf].sum()) if surf.any() else 0.0,
        "kernels.calls": float(kern.sum()) / ops,
        "kernels.busy_s": float(dur[kern].sum()) / ops,
        "kernels.share": float(dur[kern].sum()) / op_time,
        "vav.shift_calls": float(shift.sum()) / ops,
        "vav.shift_s": float(dur[shift].sum()) / ops,
        "vav.shift_share": float(dur[shift].sum()) / op_time,
        "vav.tanh_per_shift": float((kern & parent_in(shift)).sum()) / float(shift.sum())
        if shift.any()
        else 0.0,
        "vav.fp_iters": mean(vav_fp, "iters"),
        "tw.newton_iters": mean(tw_n, "iters"),
        "vav.newton_iters": mean(vav_n, "iters"),
        "tw.ls_trials": mean(tw_n, "ls_trials"),
        "vav.ls_trials": mean(vav_n, "ls_trials"),
        "tw.accept_frac": accept(tw_n),
        "vav.accept_frac": accept(vav_n),
        "tw.self_s": self_of("tw"),
        "vav.self_s": self_of("vav"),
        "sources.background_calls": bg_calls / ops,
        "sources.busy_s": busy(lambda nm: layer_of(nm) == "sources"),
        "diagnostics.report_s": busy(lambda nm: layer_of(nm) == "diagnostics"),
        "cli.self_s": self_of("cli"),
        "cli.write_fields_s": busy(lambda nm: nm == "cli._write_fields"),
        "cli.write_fields_mb": float(value[mask(lambda nm: nm == "cli._write_fields")].sum()) / 1e6 / ops,
        "cli.read_fields_s": busy(lambda nm: nm == "cli._read_fields"),
        "cli.plotdata_s": main_plot_s / ops,
        "cli.plotdata_mb": extra["plot_bytes"] / 1e6 / ops,
        "cli.write_report_s": busy(lambda nm: nm == "cli._write_report"),
        "cli.sweep_rows": extra["sweep_rows"] / ops,
        "cli.sweep_rows_failed": extra["sweep_rows_failed"] / ops,
        "process.cpu_per_wall": extra["cpu_per_wall"],
        "trace.overhead_frac": extra["overhead_frac"],
    }
