#!/usr/bin/env python3
"""Benchmark of the `plap solve` -> `plap verify` flow, run in process.

    python3 bench/run.py --workload ref-cube8 --seed 0 --seconds 20 --trace 0

Run it from the root of a plap checkout: the package is imported from
`src/` next to this directory, and every artifact goes under
`.bench_out/`.  One operation is one `plap solve` of the workload's
config followed by one `plap verify` of the three CSVs it wrote; a
single caller runs operations back to back (closed loop) until
`--seconds` have passed, and at least twice so reruns can be compared
byte for byte.  BLAS and OpenMP pools are pinned to one thread.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs one
untraced operation, then traced ones (see spans.py) and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; attempted and
failed count descents (three per solve), a descent failing when it is
unconverged or carries an error.  A full report with every sample and
the machine notes is written to `.bench_out/`.  See README.md for the
workloads and what each metric should move.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:            # must precede the first numpy import
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import itertools
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# Every key is spelled out, defaults included, so a change of a CLI
# default does not silently change a workload.  ref-cube8 is
# scripts/reference.cfg; cube16 is the same physics at res 16.
_CUBE = ("dim = 3\np = 2\nq = 4\nr = 4\nfamily = signed\nlambda = 50\n"
         "eps = 1e-8\ngrad-tol = 1e-7\nconstraint-tol = 1e-10\n"
         "max-iters = 5000\n")
_SQUARE = ("dim = 2\np = 1.5\nq = 3\nr = 3\nfamily = signed\nlambda = 20\n"
           "eps = 1e-8\ngrad-tol = 1e-6\nconstraint-tol = 1e-10\n"
           "max-iters = 1000\n")
WORKLOADS = {
    "ref-cube8": "res = 8\n" + _CUBE,
    "cube16": "res = 16\n" + _CUBE,
    "square16-p1.5": "res = 16\n" + _SQUARE,
    # Not a benchmark workload: the tiny config the smoke test runs, and
    # the warm-up every run does before timing.
    "smoke": "res = 4\n" + _SQUARE.replace("max-iters = 1000",
                                           "max-iters = 200"),
}

# Energies of the converged descents at RECORDED_SEED, from the solver as
# it stood when this benchmark was defined.  A converged descent must
# reproduce them to ENERGY_RTOL (relative); K3 on square16-p1.5 stalls at
# the iteration cap, so it has no recorded energy.
RECORDED_SEED = 0
ENERGY_RTOL = 1e-10
RECORDED_ENERGIES = {
    "ref-cube8": {"u1": 0.33017257511936166, "u2": 0.33017257511936166,
                  "u3": 0.7561816218596282},
    "cube16": {"u1": 0.4335200047754141, "u2": 0.4335200047754141,
               "u3": 1.2020545085063872},
    "square16-p1.5": {"u1": 0.45212938135174974,
                      "u2": 0.45212938135174974},
}

MIN_OPS = 2
# After each operation, set-up and verify are sampled for this share of
# its run_s, so the short samples are spread over the whole run rather
# than taken in one burst.
SHORT_SHARE = 0.35
FIELDS = ("u1.csv", "u2.csv", "u3.csv")

# run_s and verify_s are the best (minimum) of their samples in the run.
# On a shared host whose speed swings by up to 2x over seconds,
# interference only ever slows a sample, so the minimum is the statistic
# it disturbs least; the median and tail percentile are printed beside
# it.  setup_s is the median of its samples, so that work moved into
# set-up shows in full.
STATISTIC = {"run_s": "best", "verify_s": "best", "setup_s": "median"}
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "verify_s": "s",
    "converged_frac": "fraction",
    "peak_rss_mb": "MB",
}

# metric prefix -> traced function (span) name
_CALL_METRICS = {
    "mesh.gradient_table": "gradient_table",
    "optimizer.precond.solve": "LaplacePreconditioner.solve",
    "optimizer.retract": "retract",
    "nehari.scale_to_manifold": "scale_to_manifold",
    "nehari.constraint_gradient": "constraint_gradient",
    "nehari.tangent_project": "tangent_project",
    "nehari.constraint_phi": "constraint_phi",
    "nehari.constraint_scale": "constraint_scale",
    "functional.energy": "energy",
    "functional.energy_residual": "energy_residual",
    "functional.p_stiffness_vector": "p_stiffness_vector",
    "functional.nonlin_eval": "nonlin_eval",
}

PER_LAYER = {
    "mesh.build_mesh.s": "s",
    "mesh.n_vertices": "count",
    "mesh.n_simplices": "count",
    "optimizer.precond.factor_s": "s",
    **{f"optimizer.descend.{k}.{m}": u
       for k in ("K1", "K2", "K3")
       for m, u in (("iterations", "count"), ("s", "s"))},
    "optimizer.descend.ms_per_iter": "ms",
    "optimizer.retract.lost_sign": "count",
    "optimizer.line_search.accept_ratio": "ratio",
    "nehari.root.evals": "count",
    "nehari.root.evals_per_call": "ratio",
    **{f"{prefix}.{m}": u
       for prefix in _CALL_METRICS
       for m, u in (("calls", "count"), ("self_s", "s"))},
    "verify.verify_fields.s": "s",
    "verify.checks_failed": "count",
    "cli.solve.self_s": "s",
    "cli.verify.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}
# per-layer metrics that are exact counts; the rest are timings
COUNT_UNITS = ("count", "bytes", "ratio")


def import_plap():
    src = ROOT / "src"
    if not (src / "plap" / "__init__.py").is_file():
        raise SystemExit(f"error: no plap package under {src}; "
                         "run from the root of a plap checkout")
    sys.path.insert(0, str(src))
    import plap
    import plap.cli
    return plap


def machine_notes() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def timing_stats(samples) -> dict:
    """Best (minimum) and median, plus the highest of p99.9/p99/p90/p50
    that has at least ten samples beyond it (nearest rank), with the
    sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "best": ordered[0], "median": statistics.median(ordered)}
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            out[f"p{pct:g}"] = ordered[max(math.ceil(pct / 100.0 * n) - 1, 0)]
            break
    return out


class Workload:
    def __init__(self, plap, name: str, seed: int):
        self.plap = plap
        self.name = name
        self.seed = seed
        run_dir = OUT / f"{name}-seed{seed}"
        self.fields_dir = run_dir / "fields"
        self.fields_dir.mkdir(parents=True, exist_ok=True)
        self.config = run_dir / "run.cfg"
        self.config.write_text(WORKLOADS[name] + f"seed = {seed}\n"
                               f"out-dir = {self.fields_dir}\n")
        self.solve_argv = ["solve", "--config", str(self.config)]
        self.verify_argv = ["verify", "--config", str(self.config),
                            *(str(self.fields_dir / f) for f in FIELDS)]
        cfg = plap.cli.load_config(self.config).solver
        self.dim, self.res = cfg.params.dim, cfg.cells_per_side


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def short_samples(wl: Workload, budget: float, setup: list, verify: list):
    """Take extra `plap verify` samples for `budget` seconds, and a set-up
    sample (build_mesh plus the preconditioner's LU factor) with every
    second one; at least one of each."""
    plap = wl.plap
    deadline = time.perf_counter() + budget
    for i in itertools.count():
        verify.append(_timed(lambda: _cli(plap, wl.verify_argv)))
        if i % 2 == 0:
            setup.append(_timed(lambda: plap.LaplacePreconditioner(
                plap.build_mesh(wl.dim, wl.res))))
        if time.perf_counter() >= deadline:
            return


def _cli(plap, argv, tracer=None, span=""):
    buf = io.StringIO()
    ctx = tracer.span(span) if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(buf), ctx:
        t0 = time.perf_counter()
        rc = plap.cli.main(argv)
        elapsed = time.perf_counter() - t0
    return rc, elapsed, buf.getvalue()


def _check_lines(text: str) -> dict[str, bool]:
    checks = {}
    for line in text.splitlines():
        name, sep, rest = line.partition(": ")
        if sep and rest.split()[:1] in (["PASS"], ["FAIL"]):
            checks[name] = rest.startswith("PASS")
    return checks


def run_op(wl: Workload, tracer=None) -> dict:
    """One closed-loop operation: plap solve, then plap verify."""
    rc_solve, run_s, _ = _cli(wl.plap, wl.solve_argv, tracer, "cli.solve")
    rc_verify, verify_s, verify_out = _cli(wl.plap, wl.verify_argv, tracer,
                                           "cli.verify")
    triple_path = wl.fields_dir / "triple.json"
    triple = json.loads(triple_path.read_text())
    csv = {name: (wl.fields_dir / name).read_bytes() for name in FIELDS}
    return {
        "run_s": run_s,
        "verify_s": verify_s,
        "rc_solve": rc_solve,
        "rc_verify": rc_verify,
        "reports": triple["reports"],
        "solve_checks": {c["name"]: c["passed"] for c in triple["checks"]},
        "verify_checks": _check_lines(verify_out),
        "csv": csv,
        "bytes_written": sum(map(len, csv.values()))
        + triple_path.stat().st_size,
    }


class Gate:
    """Correctness gate over every operation of a run."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first_csv = None

    def check(self, op: dict) -> None:
        err = self.errors.append
        if op["rc_solve"] not in (0, 1) or op["rc_verify"] not in (0, 1):
            err(f"exit codes solve={op['rc_solve']} verify={op['rc_verify']}")
        recorded = (RECORDED_ENERGIES.get(self.wl.name, {})
                    if self.wl.seed == RECORDED_SEED else {})
        converged = []
        for i in (1, 2, 3):
            rep = op["reports"].get(f"u{i}")
            self.attempted += 1
            if rep is None or not rep["converged"] or rep["error"]:
                self.failed += 1
                continue
            converged.append(i)
            for source in ("solve_checks", "verify_checks"):
                mine = {k: v for k, v in op[source].items()
                        if k.startswith(f"u{i}_")}
                if len(mine) < 3 or not all(mine.values()):
                    err(f"u{i} converged but {source} has {mine}")
            want = recorded.get(f"u{i}")
            if want is not None and not (
                    abs(rep["energy"] - want) <= ENERGY_RTOL * abs(want)):
                err(f"u{i} energy {rep['energy']!r} != recorded {want!r}")
        if len(converged) == 3:
            for source in ("solve_checks", "verify_checks"):
                if not op[source].get("sign_structure", False):
                    err(f"sign_structure fails in {source}")
            if op["rc_solve"] != 0 or op["rc_verify"] != 0:
                err("all descents converged but an exit code is nonzero")
        if self.first_csv is None:
            self.first_csv = op["csv"]
        elif op["csv"] != self.first_csv:
            err("rerun wrote different CSV bytes")


def run_ops(wl: Workload, gate: Gate, seconds: float, tracer=None,
            on_op=None, min_ops: int = MIN_OPS) -> list[dict]:
    ops = []
    t_start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - t_start < seconds:
        if tracer is not None:
            tracer.reset()
        op = run_op(wl, tracer)
        if on_op is not None:
            on_op(op)
        gate.check(op)
        op.pop("csv")
        ops.append(op)
    return ops


def warm_up(plap) -> None:
    wl = Workload(plap, "smoke", 0)
    run_op(wl)


def end_to_end(wl: Workload, gate: Gate, seconds: float) -> dict:
    setup, verify = [], []

    def after_op(op):
        verify.append(op["verify_s"])
        short_samples(wl, SHORT_SHARE * op["run_s"], setup, verify)

    ops = run_ops(wl, gate, seconds, on_op=after_op)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples = {"run_s": [op["run_s"] for op in ops],
               "setup_s": setup, "verify_s": verify}
    stats = {name: timing_stats(vals) for name, vals in samples.items()}
    values = {name: st[STATISTIC[name]] for name, st in stats.items()}
    values["converged_frac"] = (gate.attempted - gate.failed) / gate.attempted
    values["peak_rss_mb"] = rss_kb / 1024.0
    return {"values": values, "stats": stats, "samples": samples}


def layer_metrics(summary, op: dict, mesh_size) -> dict:
    s = summary
    m = {}
    build_calls = s.calls("build_mesh")
    m["mesh.build_mesh.s"] = s.total_s("build_mesh") / max(build_calls, 1)
    m["mesh.n_vertices"], m["mesh.n_simplices"] = mesh_size
    factors = s.calls("LaplacePreconditioner.__init__")
    m["optimizer.precond.factor_s"] = (
        s.total_s("LaplacePreconditioner.__init__") / max(factors, 1))
    for prefix, fn in _CALL_METRICS.items():
        m[f"{prefix}.calls"] = s.calls(fn)
        m[f"{prefix}.self_s"] = s.self_s(fn)

    iters = {"K1": 0, "K2": 0, "K3": 0}
    secs = {"K1": 0.0, "K2": 0.0, "K3": 0.0}
    accepted = 0
    for idx in s.spans_of("descend"):
        args, kwargs, out = s.results[int(idx)]
        k = kwargs.get("k", args[2] if len(args) > 2 else None)
        report = getattr(out, "report", None) if isinstance(out, Exception) \
            else out[1]
        name = getattr(k, "name", str(k))
        secs[name] = secs.get(name, 0.0) + float(s.dur[idx])
        if report is not None:
            iters[name] = iters.get(name, 0) + report.iterations
            accepted += len(report.energy_history) - 1
    for name in ("K1", "K2", "K3"):
        m[f"optimizer.descend.{name}.iterations"] = iters[name]
        m[f"optimizer.descend.{name}.s"] = secs[name]
    total_iters = sum(iters.values())
    m["optimizer.descend.ms_per_iter"] = (
        1e3 * sum(secs.values()) / total_iters if total_iters else 0.0)
    retracts = s.calls("retract")
    m["optimizer.retract.lost_sign"] = s.raised_count("retract",
                                                      "LostSignError")
    m["optimizer.line_search.accept_ratio"] = (
        accepted / retracts if retracts else 0.0)

    evals = s.under("nonlin_eval", "scale_to_manifold")
    scales = s.calls("scale_to_manifold")
    m["nehari.root.evals"] = evals
    m["nehari.root.evals_per_call"] = evals / scales if scales else 0.0

    verifies = s.calls("verify_fields")
    m["verify.verify_fields.s"] = s.total_s("verify_fields") / max(verifies, 1)
    m["verify.checks_failed"] = sum(
        1 for ok in op["verify_checks"].values() if not ok)
    m["cli.solve.self_s"] = s.self_s("cli.solve")
    m["cli.verify.self_s"] = s.self_s("cli.verify")
    m["cli.bytes_written"] = op["bytes_written"]
    return m


def reconcile(summary, op: dict, baseline_run_s: float) -> list[str]:
    """The span tree must account for the measured run: self times add up
    to the top-level spans, and the top-level solve span differs from the
    untraced run_s by no more than this operation's tracing overhead."""
    errors = []
    tops = summary.parents < 0
    top_total = float(summary.dur[tops].sum())
    self_total = float(summary.self_time.sum())
    if abs(self_total - top_total) > 1e-9 * max(top_total, 1.0):
        errors.append(f"self times sum to {self_total}, top spans {top_total}")
    solve_top = summary.total_s("cli.solve")
    overhead = op["run_s"] - baseline_run_s
    if abs(solve_top - baseline_run_s) > abs(overhead) + 1e-3:
        errors.append(f"solve span {solve_top} vs untraced run_s "
                      f"{baseline_run_s} beyond overhead {overhead}")
    return errors


def per_layer(wl: Workload, gate: Gate, seconds: float, trace_path) -> dict:
    from spans import Tracer

    baseline = run_ops(wl, gate, 0.0, min_ops=1)[0]
    mesh = wl.plap.build_mesh(wl.dim, wl.res)
    mesh_size = (mesh.n_vertices, mesh.n_simplices)
    tracer = Tracer()
    per_op = []
    counts = []
    last = None

    def collect(op):
        nonlocal last
        last = tracer.summary()
        per_op.append(layer_metrics(last, op, mesh_size))
        counts.append(last.counts())
        gate.errors.extend(reconcile(last, op, baseline["run_s"]))

    tracer.install()
    try:
        ops = run_ops(wl, gate, seconds, tracer, collect)
    finally:
        tracer.uninstall()
    last.save(trace_path)

    if any(c != counts[0] for c in counts[1:]):
        gate.errors.append("span call counts differ between traced runs")
    traced_run_s = statistics.median(op["run_s"] for op in ops)
    values = {"trace.overhead_s": traced_run_s - baseline["run_s"]}
    for name, unit in PER_LAYER.items():
        if name in values:
            continue
        vals = [m[name] for m in per_op]
        if unit not in COUNT_UNITS:
            values[name] = statistics.median(vals)
            continue
        if any(v != vals[0] for v in vals):
            gate.errors.append(f"{name} differs between traced runs: {vals}")
        values[name] = vals[0]
    return {"values": values, "per_op": per_op,
            "untraced_run_s": baseline["run_s"],
            "traced_run_s": [op["run_s"] for op in ops]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    plap = import_plap()
    notes = machine_notes()
    print("# machine: " + json.dumps(notes, sort_keys=True))
    warm_up(plap)
    wl = Workload(plap, args.workload, args.seed)
    gate = Gate(wl)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = per_layer(wl, gate, args.seconds, OUT / f"spans-{tag}.npz")
        units = PER_LAYER
    else:
        result = end_to_end(wl, gate, args.seconds)
        units = END_TO_END
    values = result["values"]

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": notes, "errors": gate.errors,
              "attempted": gate.attempted, "failed": gate.failed, **result}
    (OUT / f"report-{tag}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str) + "\n")

    for name, unit in units.items():
        extra = ""
        st = result.get("stats", {}).get(name)
        if st:
            extra = "  (" + ", ".join(
                f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in st.items() if k != STATISTIC[name]) + ")"
        print(f"# {name} = {values[name]:.6g} {unit}{extra}")
    print(f"# failed_frac = {gate.failed}/{gate.attempted} descents")
    for msg in dict.fromkeys(gate.errors):
        print(f"# gate: {msg}")
    print(json.dumps({
        "correct": not gate.errors,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
