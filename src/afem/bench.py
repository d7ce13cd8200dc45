"""Error norms, convergence rates, experiment orchestration, CSV output.

Rates follow the dof-based definition CR(e) = log(e_prev/e_cur) /
log(N_cur/N_prev). Error integrals use the degree-5 rule with three levels
of dyadic subdivision on triangles touching the singular vertex, which
under-resolves nothing at the four-digit level the tables need. Off that
vertex they take the level's degree-5 points, with f and gamma there, from
the estimator (:class:`quadrature.Degree5Data`), and each point evaluates
the exact solution's closed form once, for u and the flux together.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import quadrature
from .errors import AfemError, ConfigError, InsufficientLevels, NoExactSolution

SINGULAR_QUAD_DEPTH = 3

CSV_HEADER = "level,ndof,e_u,rate_u,e_p,rate_p,e_div,eta,rate_eta,c_rel,efficiency"


@dataclass
class LevelRecord:
    level: int
    ndof: int
    e_u: float = math.nan
    e_p: float = math.nan
    e_div: float = math.nan
    eta: float = math.nan
    rate_u: float = math.nan
    rate_p: float = math.nan
    rate_eta: float = math.nan
    c_rel: float = math.nan
    efficiency: float = math.nan
    equivalence: tuple = (math.nan, math.nan)

    def finalize(self):
        """Fill the derived ratio columns from the primary ones."""
        if not math.isnan(self.e_p) and self.eta > 0:
            h_div = math.hypot(self.e_p, self.e_div)
            self.c_rel = (h_div + self.e_u) / self.eta
            self.efficiency = self.eta / self.e_p
        return self


@dataclass
class ConvergenceHistory:
    problem: str = ""
    mode: str = ""
    theta: float = math.nan
    params: dict = field(default_factory=dict)
    records: List[LevelRecord] = field(default_factory=list)
    failure: Optional[str] = None

    @property
    def ndofs(self):
        return [r.ndof for r in self.records]

    def column(self, name):
        return [getattr(r, name) for r in self.records]

    def to_csv(self):
        lines = [CSV_HEADER]
        for r in self.records:
            cells = [str(r.level), str(r.ndof)] + [
                _fmt(v)
                for v in (
                    r.e_u, r.rate_u, r.e_p, r.rate_p, r.e_div,
                    r.eta, r.rate_eta, r.c_rel, r.efficiency,
                )
            ]
            lines.append(",".join(cells))
        if self.failure:
            lines.append(f"# aborted: {self.failure}")
        return "\n".join(lines) + "\n"

    def summary_table(self):
        """Aligned text table mirroring the convergence tables."""
        cols = ["N", "e_u", "CR(e_u)", "e_p", "CR(e_p)", "eta", "CR(eta)",
                "C_rel", "eta/e_p"]
        rows = []
        for r in self.records:
            rows.append([
                str(r.ndof), _tab(r.e_u), _tab(r.rate_u), _tab(r.e_p),
                _tab(r.rate_p), _tab(r.eta), _tab(r.rate_eta),
                _tab(r.c_rel), _tab(r.efficiency),
            ])
        widths = [max(len(c), *(len(row[i]) for row in rows)) if rows else len(c)
                  for i, c in enumerate(cols)]
        out = ["  ".join(c.rjust(w) for c, w in zip(cols, widths))]
        for row in rows:
            out.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if self.failure:
            out.append(f"aborted: {self.failure}")
        return "\n".join(out)


def _fmt(v):
    return "" if (isinstance(v, float) and math.isnan(v)) else repr(float(v))


def _tab(v):
    return "-" if (isinstance(v, float) and math.isnan(v)) else f"{v:.8f}"


def _singular_corners(mesh, point, tol=1e-12):
    """(T, 3) mask of the triangle corners at ``point``: the vertices within
    ``tol`` of it in the max norm, looked up through ``mesh.triangles``."""
    if point is None:
        return np.zeros(mesh.triangles.shape, dtype=bool)
    near = np.abs(mesh.vertices - np.asarray(point)).max(axis=1) < tol
    return near[mesh.triangles]


def _rotate_singular_first(verts, corners):
    """Reorder each triangle so its first singular corner (a True of the
    (M, 3) ``corners`` mask) is local vertex 0."""
    order = (corners.argmax(axis=1)[:, None] + np.arange(3)) % 3
    return np.take_along_axis(verts, order[:, :, None], axis=1)


def error_norms(mixed, instance, data):
    """L2 errors (e_u, e_p, e_div) of a mixed solution against the exact one.

    e_div compares the elementwise divergence f_h - gamma_h u_M with the
    analytic div p = f - gamma u. One pass integrates the three squared
    errors together, each point evaluating the exact solution once. Off the
    singular vertex the points and their f and gamma values are ``data``,
    the level's :class:`quadrature.Degree5Data` (the estimator report's
    ``data``); the dyadic subdivision at the singular vertex evaluates the
    callbacks at its own points.
    """
    ex, cf = instance.exact, instance.field
    if ex is None:
        raise NoExactSolution(f"benchmark {instance.name!r} has no exact solution")
    mesh = mixed.mesh
    corners = _singular_corners(mesh, instance.singular_point)
    sing = corners.any(axis=1)
    q = len(quadrature.DEGREE5[1])

    def squared_errors(idx, x, y, f, gamma):
        # the mixed solution repeated over the q points of each triangle
        u_m = np.repeat(mixed.u[idx], q)
        consts = np.repeat(mixed.flux_const[idx], q, axis=0)
        slopes = np.repeat(mixed.flux_slope[idx], q)[:, None]
        div_m = np.repeat(2.0 * mixed.flux_slope[idx], q)
        u, p = ex.u_and_flux(x, y)
        diff = p - (consts + slopes * np.stack([x, y], axis=-1))
        return np.stack([
            (u - u_m) ** 2,
            np.einsum("nd,nd->n", diff, diff),
            (f - gamma * u - div_m) ** 2,
        ])

    sq = np.zeros((3, mesh.num_triangles))
    off = np.flatnonzero(~sing)
    if len(off):
        values = squared_errors(
            off, *(a[off].ravel() for a in (data.x, data.y, data.f, data.gamma))
        )
        sq[:, off] = quadrature.element_sums(values, mesh.area[off])
    on = np.flatnonzero(sing)
    if len(on):
        tri = _rotate_singular_first(mesh.triangle_vertices()[on], corners[on])
        sq[:, on] = quadrature.integrate_dyadic(
            lambda x, y: squared_errors(on, x, y, cf.f(x, y), cf.gamma(x, y)),
            tri, mesh.area[on], SINGULAR_QUAD_DEPTH,
        )
    return tuple(float(np.sqrt(row.sum())) for row in sq)


def convergence_rate(history):
    """Fill the CR(e) columns: log(e_prev/e_cur) / log(N_cur/N_prev)."""
    if len(history.records) < 2:
        raise InsufficientLevels("need at least two levels for rates")
    for prev, cur in zip(history.records, history.records[1:]):
        growth = math.log(cur.ndof / prev.ndof)
        for err, rate in (("e_u", "rate_u"), ("e_p", "rate_p"), ("eta", "rate_eta")):
            e0, e1 = getattr(prev, err), getattr(cur, err)
            if e0 > 0 and e1 > 0 and not (math.isnan(e0) or math.isnan(e1)):
                setattr(cur, rate, math.log(e0 / e1) / growth)
    return history


def sensitivity_event(history):
    """Flag the near-eigenvalue signatures of a reaction sweep run: a
    singular factorization or an estimator that grows under refinement."""
    if history.failure:
        return history.failure
    etas = [r.eta for r in history.records]
    if len(etas) >= 2 and etas[-1] > etas[0]:
        return (
            f"large-error: estimator grew under refinement"
            f" ({etas[0]:.3g} -> {etas[-1]:.3g})"
        )
    return None


# -- experiment orchestration ------------------------------------------------


@dataclass
class ExperimentConfig:
    problem: str
    mode: str = "uniform"
    theta: float = 0.5
    max_ndof: int = 50000
    gamma: Optional[float] = None  # eigen_sweep only; None runs the default grid
    out: str = "."
    mesh_path: Optional[str] = None
    dump_systems: bool = False

    def validate(self):
        from .problem import _REGISTRY

        if self.problem not in _REGISTRY:
            raise ConfigError(
                f"unknown problem {self.problem!r}; registered: {sorted(_REGISTRY)}"
            )
        if self.mode not in ("uniform", "adaptive"):
            raise ConfigError(f"mode must be uniform|adaptive, got {self.mode!r}")
        if not (0.0 < self.theta <= 1.0):
            raise ConfigError(f"theta must lie in (0, 1], got {self.theta}")
        if self.max_ndof < 1:
            raise ConfigError("max-ndof must be positive")
        if self.gamma is not None and self.problem != "eigen_sweep":
            raise ConfigError("gamma applies to eigen_sweep only")
        if self.gamma is not None and not math.isfinite(self.gamma):
            raise ConfigError("gamma must be finite")
        return self


@dataclass
class ExperimentResult:
    histories: dict
    csv_paths: list
    events: dict
    exit_code: int


def run_experiment(config, echo=print):
    """Execute one experiment configuration and emit CSV plus tables.

    Returns an :class:`ExperimentResult`; exit_code 2 flags a run that hit
    a singular factorization (partial CSV still written).
    """
    import os

    from . import adapt
    from .mesh import read_mesh_file
    from .problem import DEFAULT_GAMMA_SWEEP, benchmark

    config.validate()
    os.makedirs(config.out, exist_ok=True)

    def start_mesh():
        """The ``--mesh`` file's mesh, or None for the problem's own."""
        if not config.mesh_path:
            return None
        try:
            return read_mesh_file(config.mesh_path)
        except (OSError, ValueError, OverflowError, AfemError) as exc:
            raise ConfigError(
                f"cannot read mesh file {config.mesh_path!r}: {exc}"
            ) from None

    if config.problem == "eigen_sweep":
        gammas = [config.gamma] if config.gamma is not None else list(
            DEFAULT_GAMMA_SWEEP
        )
    else:
        gammas = [None]
    # the histories of a sweep start from one mesh, so a uniform sweep walks
    # one hierarchy (each red child is kept on its parent, each order on its
    # mesh); a single history holds no start mesh and frees its coarse levels
    sweep = len(gammas) > 1
    shared = None
    if sweep:
        shared = start_mesh() or benchmark(config.problem).start_mesh()

    histories = {}
    events = {}
    csv_paths = []
    singular = False
    for g in gammas:
        params = {} if g is None else {"gamma": g}
        instance = benchmark(config.problem, **params)
        key = config.problem if g is None else f"{config.problem}_gamma{g:g}"
        on_level = None
        if config.dump_systems:
            prefix = f"{key}_" if sweep else ""
            on_level = _system_dumper(config.out, instance, prefix)
        hist = adapt.adaptive_loop(
            instance,
            theta=config.theta,
            max_ndof=config.max_ndof,
            mode=config.mode,
            start_mesh=shared or start_mesh(),
            on_level=on_level,
        )
        histories[key] = hist
        event = sensitivity_event(hist) if config.problem == "eigen_sweep" else (
            hist.failure
        )
        if event:
            events[key] = event
        singular = singular or bool(hist.failure)
        path = os.path.join(config.out, f"{key}_{config.mode}.csv")
        with open(path, "w") as fh:
            fh.write(hist.to_csv())
        csv_paths.append(path)
        with open(path[:-4] + ".gp", "w") as fh:
            fh.write(_gnuplot_script(os.path.basename(path)))
        echo(f"== {key} ({config.mode}, theta={config.theta}) ==")
        echo(hist.summary_table())
        if event:
            echo(f"event: {event}")
        echo("")

    if config.problem == "eigen_sweep":
        path = os.path.join(config.out, f"eigen_sweep_{config.mode}_combined.csv")
        with open(path, "w") as fh:
            fh.write(_combined_sweep_csv(histories))
        csv_paths.append(path)

    return ExperimentResult(
        histories=histories,
        csv_paths=csv_paths,
        events=events,
        exit_code=2 if singular else 0,
    )


def _gnuplot_script(csv_name):
    """Companion gnuplot script: convergence history on log-log axes."""
    stem = csv_name[:-4]
    return (
        "set datafile separator ','\n"
        "set logscale xy\n"
        "set xlabel 'Ndof'\n"
        "set key bottom left\n"
        f"set title '{stem}'\n"
        f"plot '{csv_name}' using 2:3 with linespoints title 'e_u', \\\n"
        f"     '{csv_name}' using 2:5 with linespoints title 'e_p', \\\n"
        f"     '{csv_name}' using 2:8 with linespoints title 'eta', \\\n"
        f"     '{csv_name}' using 2:10 with linespoints title 'C_rel'\n"
    )


def _combined_sweep_csv(histories):
    """One row per level: ndof plus the estimator of every sweep value.

    The exact solution of the sweep problem is unknown, so the C_rel
    columns of the figures are replaced by the estimator columns here.
    The ndof cell is empty where the sweep values' dof counts differ, as
    adaptive meshes do.
    """
    keys = sorted(histories)
    recs = [histories[k].records for k in keys]
    header = ["level", "ndof"] + [f"eta_{k.split('gamma')[-1]}" for k in keys]
    lines = [",".join(header)]
    for lev in range(max(map(len, recs))):
        ndofs = {r[lev].ndof for r in recs if lev < len(r)}
        ndof = str(ndofs.pop()) if len(ndofs) == 1 else ""
        cells = [_fmt(r[lev].eta) if lev < len(r) else "" for r in recs]
        lines.append(",".join([str(lev), ndof] + cells))
    return "\n".join(lines) + "\n"


def _system_dumper(out_dir, instance, prefix):
    """on_level callback writing both assembled systems per level, to
    ``systems/<prefix>level<N>_<kind>.txt``."""
    import os

    from .assembly import assemble_mixed_direct, assemble_modified_ncfem

    sysdir = os.path.join(out_dir, "systems")
    os.makedirs(sysdir, exist_ok=True)

    def dump(pw, mixed, u_tilde, report, record):
        u_d = instance.field.u_dirichlet
        assemble_modified_ncfem(pw.mesh, pw, u_dirichlet=u_d).dump_triplets(
            os.path.join(sysdir, f"{prefix}level{record.level}_modified_nc.txt")
        )
        assemble_mixed_direct(pw.mesh, pw, u_dirichlet=u_d).dump_triplets(
            os.path.join(sysdir, f"{prefix}level{record.level}_mixed.txt")
        )

    return dump
