#!/usr/bin/env python3
"""lrsketch benchmark: one workload, closed-loop, from one process.

    python3 perfbench/run.py --workload sgd_train --seed 1 --seconds 20 --trace 0

Workloads: sgd_train, sketch_eval, cli_pipeline (see
workloads.py and BENCHMARK.json). The run imports lrsketch from the
checkout's src/, generates its inputs from --seed, repeats the
workload's unit of work until --seconds are spent, checks every output,
and prints each metric by name with its unit. The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced iterations: per-layer metrics come from the traced ones, and
the difference of the two medians is the tracing overhead. The line
before the last holds machine facts, sample counts, raw times and check
failures; a traced run also writes its spans to .bench_out/.

Every reported time is speed-normalized (see calibrate.py): each timed
call is scaled by a fixed reference kernel timed just before and after
it, because a shared virtual machine can change speed by up to 2x from
one second to the next.

--size tiny shrinks every workload for the harness self-test.
"""

import os

BLAS_THREADS = "1"
# Pin BLAS before numpy loads; this process and its children only.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
from calibrate import NOMINAL_S, reference_seconds  # noqa: E402
from tracer import SPAN_FIELDS, Tracer, ancestors, summarize  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

IMPORT_REPEATS = 5
PREPARE_REPEATS = 3

# Per-layer metrics read from spans: span name -> fields reported.
# calls: calls per traced iteration; self_s: span time minus child spans;
# s: span time; bytes: file bytes written or read.
SPAN_METRICS = {
    "linalg.reference_svd": ("calls", "self_s"),
    "linalg.best_rank_k": ("calls", "self_s"),
    "linalg.matmul": ("calls", "self_s"),
    "evalbench.generate_dataset": ("calls", "self_s"),
    "evalbench.normalize_top_singular": ("calls",),
    "evalbench.optimal_loss": ("calls", "self_s"),
    "scw.scw_approximate": ("calls", "self_s"),
    "sketch.apply_sketch": ("calls", "self_s"),
    "sketch.scatter_rows": ("calls",),
    "diffsvd.scw_forward_with_tape": ("calls", "self_s"),
    "diffsvd.backward": ("self_s",),
    "autodiff.Tape.backward_values": ("self_s",),
    "diffsvd.scw_power_loss": ("calls", "self_s"),
    "trainer.train": ("self_s",),
    "seeding.derived_seed": ("calls",),
    "formats.save_dmat": ("calls", "self_s", "bytes"),
    "formats.load_dmat": ("calls", "self_s", "bytes"),
    "formats.save_sketch": ("calls", "self_s", "bytes"),
    "formats.load_sketch": ("calls", "self_s", "bytes"),
    "cli.cmd_gen_data": ("s",),
    "cli.cmd_train": ("s",),
    "cli.cmd_eval": ("s",),
}
FIELD_UNITS = {"calls": "count", "self_s": "s", "s": "s", "bytes": "bytes"}
FIELD_KEYS = {"calls": "calls", "self_s": "self_s", "s": "total_s", "bytes": "measure"}
DERIVED_METRICS = {
    "autodiff.tape_nodes_per_step": "count",
    "trainer.sgd_step_ms.p50": "ms",
    "trainer.sgd_step_ms.tail": "ms",
    "trainer.sgd_step_ms.samples": "count",
    "cli.cpu_util": "ratio",
    "sgd_steps_per_s": "1/s",
    "scw_evals_per_s": "1/s",
    "excess_err": "frobenius",
    "train_loss": "sq_frobenius",
    "fail_rate": "ratio",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {f"{span}.{field}": FIELD_UNITS[field]
             for span, fields in SPAN_METRICS.items() for field in fields}
    units.update(DERIVED_METRICS)
    return units


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values):
    """(percentile, value) of the highest of p99/p90/p50 with >= 10 samples beyond."""
    for pct in (99, 90, 50):
        if len(values) * (100 - pct) / 100 >= 10:
            return pct, float(np.percentile(values, pct))
    return None, 0.0


def machine_facts(args) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": BLAS_THREADS,
            "machine": platform.machine(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "size": args.size, "trace": args.trace}


def measure(fn) -> dict:
    """Time one call and scale it by the machine speed measured around it.

    scaled = raw * NOMINAL_S / (mean reference-kernel time just before and
    just after the call); see calibrate.py.
    """
    before = reference_seconds()
    c0, t0 = os.times(), time.perf_counter()
    fn()
    t1, c1 = time.perf_counter(), os.times()
    after = reference_seconds()
    raw = t1 - t0
    cpu = sum(c1[j] - c0[j] for j in range(4))  # user, system and children's
    return {"raw": raw, "scaled": raw * NOMINAL_S / ((before + after) / 2), "cpu": cpu,
            "refs": (before, after)}


def import_lrsketch() -> dict:
    """Time `import lrsketch` in a fresh interpreter.

    numpy is imported first and untimed: its cost is numpy's, varies with
    the file cache, and no change to lrsketch can move it. The child then
    measures the machine speed, and the import time is scaled by it like
    every other timing.
    """
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; import numpy; "
            "from calibrate import reference_seconds; t0 = time.perf_counter(); "
            "import lrsketch, lrsketch.cli; t1 = time.perf_counter(); "
            "print(t1 - t0, reference_seconds())")
    proc = subprocess.run([sys.executable, "-c", code, SRC, HERE], cwd=ROOT, timeout=120,
                          capture_output=True, text=True, check=True)
    raw, ref = (float(x) for x in proc.stdout.split())
    return {"raw": raw, "scaled": raw * NOMINAL_S / ref}


def sgd_steps(spans, scale: dict):
    """Forward+backward pairs made inside trainer.train: (scaled seconds, tape nodes)."""
    anc = ancestors(spans)
    pending: dict = {}
    steps, nodes = [], []
    for sid, name, t0, t1, parent, run, tid, value in sorted(spans, key=lambda s: s[2]):
        if "trainer.train" not in anc[sid]:
            continue
        if name == "diffsvd.scw_forward_with_tape":
            pending[tid] = t0
            nodes.append(value)
        elif name == "diffsvd.backward" and tid in pending:
            steps.append((t1 - pending.pop(tid)) * scale[run])
    return steps, nodes


def layer_metrics(w, iters, tracer) -> tuple[dict, dict]:
    traced = [it for it in iters if it["traced"]]
    plain = [it for it in iters if not it["traced"]]
    # span times get the speed scaling of the iteration they ran in
    scale = {it["i"]: it["seconds"] / it["raw_seconds"] for it in traced}
    summary = summarize(tracer.spans)
    metrics = {}
    for span, fields in SPAN_METRICS.items():
        for field in fields:
            key = FIELD_KEYS[field]
            factor = field in ("self_s", "s")
            per_iter = [summary[it["i"]][span][key] * (scale[it["i"]] if factor else 1)
                        if span in summary[it["i"]] else 0 for it in traced]
            metrics[f"{span}.{field}"] = _median(per_iter)
    steps, nodes = sgd_steps(tracer.spans, scale)
    step_ms = [1e3 * s for s in steps]
    tail_pct, tail_ms = tail(step_ms)
    metrics["autodiff.tape_nodes_per_step"] = _median(nodes)
    metrics["trainer.sgd_step_ms.p50"] = _median(step_ms)
    metrics["trainer.sgd_step_ms.tail"] = tail_ms
    metrics["trainer.sgd_step_ms.samples"] = len(step_ms)
    metrics["cli.cpu_util"] = _median([it["cpu_util"] for it in plain])
    metrics["sgd_steps_per_s"] = _median([w.sgd_steps_per_iter / it["seconds"]
                                          for it in plain])
    metrics["scw_evals_per_s"] = _median([w.scw_evals_per_iter / it["seconds"]
                                          for it in plain])
    metrics["excess_err"] = w.excess_err
    metrics["train_loss"] = w.train_loss
    metrics["trace.overhead_s"] = (_median([it["seconds"] for it in traced])
                                   - _median([it["seconds"] for it in plain]))
    metrics["trace.spans"] = _median([sum(r["calls"] for r in summary[it["i"]].values())
                                      for it in traced])
    # cross-checks against the recorded baseline: Jacobi calls per normalization
    norm_ids = {s[0] for s in tracer.spans if s[1] == "evalbench.normalize_top_singular"}
    svd_in_norm = sum(1 for s in tracer.spans
                      if s[1] == "linalg.reference_svd" and s[4] in norm_ids)
    detail = {"sgd_step_tail_percentile": tail_pct,
              "svd_calls_per_normalization": svd_in_norm / len(norm_ids) if norm_ids else None,
              "traced_iterations": len(traced), "untraced_iterations": len(plain)}
    return metrics, detail


def dump_trace(path: str, facts: dict, spans) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"machine": facts, "fields": SPAN_FIELDS, "spans": spans}, fh)


def traced_call(tracer, run_id, call) -> None:
    """Run one workload step, under the tracer when one is given."""
    if tracer is None:
        return call()
    tracer.run_id = run_id
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lrsketch", "__init__.py")):
        print(f"error: no lrsketch sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import lrsketch
    import lrsketch.cli  # noqa: F401  (the package does not import cli)

    if not os.path.abspath(lrsketch.__file__).startswith(SRC + os.sep):
        print(f"error: lrsketch imported from {lrsketch.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    facts = machine_facts(args)
    work_dir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    w = WORKLOADS[args.workload](args.seed, args.size, work_dir)
    tracer = Tracer() if args.trace else None
    try:
        imports = [import_lrsketch() for _ in range(IMPORT_REPEATS)]
        prep = [measure(functools.partial(w.prepare, r)) for r in range(PREPARE_REPEATS)]
        iters = []
        loop_start = time.perf_counter()
        while True:
            i = len(iters)
            # untraced, traced, traced, untraced, ...: order effects cancel
            traced = tracer is not None and i % 4 in (1, 2)
            w.before(i)
            tracer_run = tracer if traced else None
            parts = [measure(functools.partial(traced_call, tracer_run, i, call))
                     for call in w.steps(i)]
            w.after(i)
            it = {key: sum(p[key] for p in parts) for key in ("raw", "scaled", "cpu")}
            iters.append({"i": i, "seconds": it["scaled"], "raw_seconds": it["raw"],
                          "traced": traced, "cpu_util": it["cpu"] / it["raw"],
                          "steps": [(p["raw"],) + p["refs"] for p in parts]})
            spent = time.perf_counter() - loop_start
            if len(iters) >= (2 if tracer else 1) and spent + it["raw"] > args.seconds:
                break
        w.finish()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(w.ops)
    failures = [f"{op.label}: {e}" for op in w.ops for e in op.errors]
    failed = sum(1 for op in w.ops if op.errors)
    plain = [it for it in iters if not it["traced"]]
    walls = [it["seconds"] for it in plain]
    setup = [p["scaled"] for p in imports], [p["scaled"] for p in prep]
    detail = {"machine": facts, "nominal_ref_s": NOMINAL_S, "iterations": len(iters),
              "wall_samples": walls, "raw_wall_samples": [it["raw_seconds"] for it in plain],
              "import_s": setup[0], "prepare_s": setup[1],
              "raw_setup_s": _median([p["raw"] for p in imports])
              + _median([p["raw"] for p in prep]),
              "steps": [it["steps"] for it in plain], "failures": failures[:20]}
    if tracer is None:
        tail_pct, tail_s = tail(walls)
        detail["wall_tail"] = {"percentile": tail_pct, "s": tail_s}
        values = {"wall_s": _median(walls),
                  "setup_s": _median(setup[0]) + _median(setup[1]),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
    else:
        values, extra = layer_metrics(w, iters, tracer)
        values["fail_rate"] = failed / attempted if attempted else 0.0
        detail.update(extra)
        units = per_layer_units()
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        dump_trace(path, facts, tracer.spans)
        detail["trace_file"] = os.path.relpath(path, ROOT)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:14s} medians of {len(plain)} untraced and {len(iters) - len(plain)} "
          f"traced iterations, {IMPORT_REPEATS} imports, {PREPARE_REPEATS} set-ups; "
          f"{attempted} operations, {failed} failed")
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
