"""One measured sample in a fresh process: set up, run, summarise.

Usage: python3 child.py CONFIG_JSON RESULT_JSON [--setup-only] [--trace OUT.jsonl]

CONFIG_JSON is a workload config from workloads.json plus ``out`` and
``run_id``. The
result file receives the set-up time, the wall time of
``afem.bench.run_experiment``, the per-level clock, the peak RSS and a
summary of every convergence history. With ``--trace`` the run is traced
(see spans.py) and the per-layer metrics are added.
"""

import json
import resource
import sys
import time


def main(argv):
    cfg_path, result_path = argv[0], argv[1]
    setup_only = "--setup-only" in argv
    trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    with open(cfg_path) as fh:
        cfg = json.load(fh)

    t0 = time.perf_counter()
    import afem
    from afem import adapt, bench, problem

    problem.benchmark(cfg["problem"]).start_mesh()
    setup_s = time.perf_counter() - t0

    result = {"setup_s": setup_s, "afem_file": afem.__file__}
    if not setup_only:
        config = bench.ExperimentConfig(
            problem=cfg["problem"], mode=cfg["mode"], theta=cfg["theta"],
            max_ndof=cfg["max_ndof"], out=cfg["out"],
        )
        if trace_path:
            result.update(_traced(bench, config, trace_path, cfg["run_id"]))
        else:
            result.update(_timed(adapt, bench, config))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def _quiet(*_args):
    pass


def _timed(adapt, bench, config):
    """Untraced run with a level clock: one timestamp per level start."""
    marks = []  # (loop, ndof, t) per level start, (loop, None, t) per loop end
    loop_fn, p0_fn = adapt.adaptive_loop, adapt.project_p0
    loop_no = [-1]

    def project_p0(coeffs, mesh):
        marks.append((loop_no[0], mesh.ndof_mixed, time.perf_counter()))
        return p0_fn(coeffs, mesh)

    def adaptive_loop(*args, **kwargs):
        loop_no[0] += 1
        try:
            return loop_fn(*args, **kwargs)
        finally:
            marks.append((loop_no[0], None, time.perf_counter()))

    adapt.project_p0, adapt.adaptive_loop = project_p0, adaptive_loop
    try:
        t0 = time.perf_counter()
        res = bench.run_experiment(config, echo=_quiet)
        wall_s = time.perf_counter() - t0
    finally:
        adapt.project_p0, adapt.adaptive_loop = p0_fn, loop_fn
    levels = [
        {"loop": lp, "ndof": n, "wall_s": nxt[2] - t}
        for (lp, n, t), nxt in zip(marks, marks[1:])
        if n is not None
    ]
    return {"wall_s": wall_s, "levels": levels, **_summary(res)}


def _traced(bench, config, trace_path, run_id):
    from spans import Tracer

    tracer = Tracer(run_id)
    tracer.install()
    try:
        t0 = time.perf_counter()
        res = bench.run_experiment(config, echo=_quiet)
        wall_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    tracer.write_jsonl(trace_path)
    levels = tracer.level_summary()
    return {
        "wall_s": wall_s,
        "layers": tracer.metrics(),
        "accounted_frac": min(lv["accounted_frac"] for lv in levels),
        **_summary(res),
    }


def _summary(res):
    return {
        "exit_code": res.exit_code,
        "csv_paths": res.csv_paths,
        "histories": {
            key: {
                "ndof": h.ndofs,
                "eta": h.column("eta"),
                "e_u": h.column("e_u"),
                "e_p": h.column("e_p"),
                "equivalence": [max(r.equivalence) for r in h.records],
                "failure": h.failure,
            }
            for key, h in res.histories.items()
        },
    }


if __name__ == "__main__":
    main(sys.argv[1:])
