"""Span tracer that instruments afem from outside, through module attributes.

Each public function listed in ``LAYERS`` is replaced, in every ``afem``
module that holds a reference to it, by a wrapper that records a span
(name, start, end, parent span, run id, level) in memory. Spans are written
as JSONL only when the run ends, each with its self time (``self_s``).
Nothing inside the package is edited; the originals are put back by
:meth:`Tracer.uninstall`.

Level spans are synthetic: each call of ``project_p0`` made directly from
``adaptive_loop`` (the first step of every solve/estimate/mark/refine pass)
closes the current level span and opens the next; the loop's end closes the
last. A level span therefore holds the level's solve, checks, estimate,
marking and the refinement that produces the next mesh. The start mesh is
built in the loop before level 0.
"""

import json
import sys
import time
from collections import defaultdict

ROUTE_OF = {"solver.route_direct": "direct", "solver.route_recon": "recon"}

# (module, attribute, span name); a span name is also the layer name
LAYERS = [
    ("afem.bench", "run_experiment", "bench.run_experiment"),
    ("afem.adapt", "adaptive_loop", "adapt.loop"),
    ("afem.mesh", "build_mesh", "mesh.build"),
    ("afem.problem", "lshape_start_mesh", "problem.start_mesh"),
    ("afem.problem", "crack_start_mesh", "problem.start_mesh"),
    ("afem.refine", "uniform_red_refine", "refine.red"),
    ("afem.refine", "rgb_refine", "refine.rgb"),
    ("afem.problem", "project_p0", "problem.project_p0"),
    ("afem.assembly", "assemble_modified_ncfem", "assembly.modified_nc"),
    ("afem.assembly", "assemble_mixed_direct", "assembly.mixed_direct"),
    ("afem.solver", "solve_mixed_via_equivalence", "solver.route_recon"),
    ("afem.solver", "solve_mixed_direct", "solver.route_direct"),
    ("afem.solver", "solve_sparse", "solver.solve_sparse"),
    ("afem.solver", "reconstruct_mixed", "solver.reconstruct"),
    ("afem.solver", "equivalence_residual", "solver.verify"),
    ("afem.adapt", "estimate_mixed", "adapt.estimate"),
    ("afem.adapt", "dorfler_mark", "adapt.mark"),
    ("afem.bench", "error_norms", "bench.error_norms"),
]

# per-layer self-time metrics: <span name>_s is the span's total self time;
# bench.output_s is run_experiment minus adaptive_loop (CSV and table output)
SELF_TIME_METRICS = {
    "mesh.build_s": "mesh.build",
    "refine.red_s": "refine.red",
    "refine.rgb_s": "refine.rgb",
    "problem.project_p0_s": "problem.project_p0",
    "assembly.modified_nc_s": "assembly.modified_nc",
    "assembly.mixed_direct_s": "assembly.mixed_direct",
    "solver.factor_direct_s": "solver.factor_direct",
    "solver.factor_recon_s": "solver.factor_recon",
    "solver.solve_sparse_s": "solver.solve_sparse",
    "solver.reconstruct_s": "solver.reconstruct",
    "solver.verify_s": "solver.verify",
    "adapt.estimate_s": "adapt.estimate",
    "adapt.mark_s": "adapt.mark",
    "bench.error_norms_s": "bench.error_norms",
    "bench.output_s": "bench.run_experiment",
}

# per-layer counts; each must repeat exactly between runs of one commit
COUNT_METRICS = (
    "mesh.triangles_built", "refine.marked", "refine.triangles_out",
    "solver.factorizations", "solver.nnz_lu_direct", "solver.nnz_lu_recon",
    "solver.singular",
)


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent, level, loop, extra]
        self.stack = []
        self.counts = defaultdict(int)
        self.level = None
        self.loop = -1
        self._restore = []
        self._factors = []  # (route, SuperLU) not yet counted

    # -- span bookkeeping ------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        sid = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), None, parent, self.level, self.loop, {}]
        )
        self.stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        top = self.stack.pop()
        if top != sid:
            raise RuntimeError(f"span {sid} closed out of order (top {top})")

    def _top_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def _route(self):
        for sid in reversed(self.stack):
            route = ROUTE_OF.get(self.spans[sid][0])
            if route:
                return route
        return "other"

    # -- hooks run around particular layers ---------------------------------

    def _enter(self, name):
        if name == "adapt.loop":
            self.loop += 1
        elif name == "problem.project_p0" and self._top_name() in ("adapt.loop", "level"):
            if self._top_name() == "level":
                self._close(self.stack[-1])
                self.level += 1
            else:
                self.level = 0
            self._open("level")

    def _before_close(self, name):
        if name == "adapt.loop":
            if self._top_name() == "level":
                self._close(self.stack[-1])
            self.level = None

    def _count_fill(self):
        """nnz(L) + nnz(U) of the factors made so far. Read after the solve:
        solve_sparse's ``lu.U`` builds and caches both factors, so reading
        them here costs nothing and moves no time between layers."""
        for route, lu in self._factors:
            self.counts[f"solver.nnz_lu_{route}"] += lu.L.nnz + lu.U.nnz
        self._factors.clear()

    def _count(self, name, args, result):
        c = self.counts
        if name == "mesh.build":
            c["mesh.triangles_built"] += result.num_triangles
        elif name in ("refine.red", "refine.rgb"):
            c["refine.triangles_out"] += result.num_triangles
            if name == "refine.rgb":
                c["refine.marked"] += len(args[1])
        elif name == "adapt.mark":
            c["adapt.marked"] += len(result.indices)
            c["adapt.mark_candidates"] += len(args[0])

    # -- installation ----------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._enter(name)
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.spans[sid][6]["error"] = type(exc).__name__
                if type(exc).__name__ == "SingularMatrix" and name == "solver.solve_sparse":
                    tracer.counts["solver.singular"] += 1
                raise
            finally:
                tracer._before_close(name)
                tracer._close(sid)
                tracer._count_fill()
            tracer._count(name, args, result)
            return result

        return wrapper

    def _splu(self, fn):
        tracer = self

        def splu(*args, **kwargs):
            route = tracer._route()
            sid = tracer._open(f"solver.factor_{route}")
            try:
                lu = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            tracer.counts["solver.factorizations"] += 1
            tracer._factors.append((route, lu))
            return lu

        return splu

    def install(self):
        """Replace every reference to each layer function inside afem."""
        modules = [m for k, m in sys.modules.items() if k == "afem" or k.startswith("afem.")]
        for mod_name, attr, name in LAYERS:
            fn = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(name, fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, wrapped)
        import scipy.sparse.linalg as spla

        self._patch(spla, "splu", self._splu(spla.splu))

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- reduction -------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the part its direct children cover."""
        out = [end - start for _name, start, end, *_ in self.spans]
        for _name, start, end, parent, *_ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def level_summary(self):
        """Per level span: wall time and the share its child spans cover."""
        self_t = self.self_times()
        return [
            {
                "loop": loop,
                "level": level,
                "wall_s": end - start,
                "accounted_frac": 1.0 - self_t[i] / (end - start),
            }
            for i, (name, start, end, _parent, level, loop, _x) in enumerate(self.spans)
            if name == "level"
        ]

    def metrics(self):
        totals = defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            totals[span[0]] += self_s
        out = {m: totals[n] for m, n in SELF_TIME_METRICS.items()}
        for key in COUNT_METRICS:
            out[key] = self.counts[key]
        cand = self.counts["adapt.mark_candidates"]
        out["adapt.marked_frac"] = self.counts["adapt.marked"] / cand if cand else 0.0
        return out

    def write_jsonl(self, path):
        self_t = self.self_times()
        with open(path, "w") as fh:
            for i, (name, start, end, parent, level, loop, extra) in enumerate(self.spans):
                rec = {
                    "run": self.run_id, "span": i, "name": name, "start": start,
                    "end": end, "self_s": self_t[i], "parent": parent,
                    "level": level, "loop": loop,
                }
                rec.update(extra)
                fh.write(json.dumps(rec) + "\n")
            for rec in self.level_summary():
                fh.write(json.dumps({"run": self.run_id, "kind": "level", **rec}) + "\n")
