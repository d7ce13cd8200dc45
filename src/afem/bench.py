"""Error norms, convergence rates, experiment orchestration, CSV output.

Rates follow the dof-based definition CR(e) = log(e_prev/e_cur) /
log(N_cur/N_prev). Error integrals use the degree-5 rule with three levels
of dyadic subdivision on triangles touching the singular vertex. That depth
under-resolves the flux error there: measured against depth 60, e_p is off
by 3.0e-3 relative on the finest uniform L-shape level (246,272 dofs), and
e_p and e_div by 1.9e-3 and 2.5e-3 on the adaptive slit disc at 41,536
dofs; ROADMAP item 3 holds the measurements. Off that vertex they take the
level's degree-5 points, with gamma and the exact solution's u, flux and
load there, from the estimator (:class:`quadrature.Degree5Data`); each
point, there and at the singular vertex, evaluates the exact solution's
closed form once, for all three together, and every value is checked to be
finite.

:data:`COLUMNS` gives the CSV, the summary table and the gnuplot columns.
:meth:`ConvergenceHistory.add` fills a level's derived columns, and
:func:`run_experiment` writes its CSV row as the level completes. Every
directory and file a run writes goes through :func:`_writing`, so a path
that cannot be written is a :class:`ConfigError`.
"""

import contextlib
import math
import os
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import problem, quadrature
from .assembly import assemble_mixed_direct, assemble_modified_ncfem
from .errors import AfemError, ConfigError, NoExactSolution
from .mesh import read_mesh_file

SINGULAR_QUAD_DEPTH = 3
ERROR_BLOCK = 4096  # triangles whose pointwise errors error_norms forms at once
MODES = ("uniform", "adaptive")  # the refinements of adapt.adaptive_loop

# (LevelRecord field, summary-table title or None), in CSV column order
COLUMNS = (
    ("level", None), ("ndof", "N"), ("e_u", "e_u"), ("rate_u", "CR(e_u)"),
    ("e_p", "e_p"), ("rate_p", "CR(e_p)"), ("e_div", None), ("eta", "eta"),
    ("rate_eta", "CR(eta)"), ("c_rel", "C_rel"), ("efficiency", "eta/e_p"),
)
# the fields the gnuplot script draws over ndof, titled as in the table
PLOTTED = ("e_u", "e_p", "eta", "c_rel")


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
    # equivalence_residual (flux, scalar) of the hybrid recovery from u~
    # against the reconstruction
    equivalence: tuple = (math.nan, math.nan)


@dataclass
class ConvergenceHistory:
    records: List[LevelRecord] = field(default_factory=list)
    failure: Optional[str] = None

    @property
    def ndofs(self):
        return [r.ndof for r in self.records]

    def column(self, name):
        return [getattr(r, name) for r in self.records]

    def add(self, record):
        """Fill ``record``'s ratio columns and its rates against the previous
        record (NaN on a first one), then append it."""
        if record.eta > 0:
            h_div = math.hypot(record.e_p, record.e_div)
            record.c_rel = (h_div + record.e_u) / record.eta
            record.efficiency = record.eta / record.e_p
        if self.records:
            prev = self.records[-1]
            growth = math.log(record.ndof / prev.ndof)
            for err, rate in (("e_u", "rate_u"), ("e_p", "rate_p"), ("eta", "rate_eta")):
                e0, e1 = getattr(prev, err), getattr(record, err)
                if e0 > 0 and e1 > 0:
                    setattr(record, rate, math.log(e0 / e1) / growth)
        self.records.append(record)

    def summary_table(self):
        """Aligned text table mirroring the convergence tables."""
        titled = [(name, title) for name, title in COLUMNS if title]
        table = [[title for _, title in titled]] + [
            [_cell(getattr(r, name), "-", ".8f") for name, _ in titled]
            for r in self.records
        ]
        widths = [max(map(len, column)) for column in zip(*table)]
        out = ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in table]
        if self.failure:
            out.append(f"aborted: {self.failure}")
        return "\n".join(out)


def _cell(v, nan="", spec=""):
    """Output cell: a count as is, NaN as ``nan`` and any other float in the
    format ``spec``; the default, str, round-trips."""
    if not isinstance(v, float):
        return str(v)
    return nan if math.isnan(v) else format(float(v), spec)


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
    errors together. Off the singular vertex the points and the values of
    u, p, f and gamma there are ``data``, the level's
    :class:`quadrature.Degree5Data` built with ``instance.exact`` (the
    estimator report's ``data``); the dyadic subdivision at the singular
    vertex calls ``instance.exact`` and gamma once at its own points.
    A value that is not finite raises NonFiniteCoefficient.
    """
    ex, cf = instance.exact, instance.field
    if ex is None:
        raise NoExactSolution(f"benchmark {instance.name!r} has no exact solution")
    if data.u is None:
        raise ValueError("data holds no exact solution: build it with instance.exact")
    mesh = mixed.mesh
    corners = _singular_corners(mesh, instance.singular_point)
    sing = corners.any(axis=1)
    q = len(quadrature.DEGREE5[1])

    div = mixed.div()

    def squared_errors(out, idx, x, y, u, p, f, gamma):
        # the three squared errors into the rows of the (3, n) ``out``, the
        # mixed solution repeated over the q points of each triangle
        u_m = np.repeat(mixed.u[idx], q)
        consts = np.repeat(mixed.flux_const[idx], q, axis=0)
        slopes = np.repeat(mixed.flux_slope[idx], q)[:, None]
        div_m = np.repeat(div[idx], q)
        diff = p - (consts + slopes * np.stack([x, y], axis=-1))
        np.square(u - u_m, out=out[0])
        np.einsum("nd,nd->n", diff, diff, out=out[1])
        np.square(f - gamma * u - div_m, out=out[2])
        return out

    sq = np.zeros((3, mesh.num_triangles))
    off = np.flatnonzero(~sing)
    if len(off):
        # pointwise values filled block by block, so that only one block's
        # temporaries exist at a time; one sum over all of them
        values = np.empty((3, len(off) * q))
        for start in range(0, len(off), ERROR_BLOCK):
            idx = off[start:start + ERROR_BLOCK]
            squared_errors(values[:, start * q:(start + len(idx)) * q], idx, *(
                a[idx].reshape((-1,) + a.shape[2:])
                for a in (data.x, data.y, data.u, data.p, data.f, data.gamma)
            ))
        sq[:, off] = quadrature.element_sums(values, mesh.area[off])
    on = np.flatnonzero(sing)
    if len(on):
        tri = _rotate_singular_first(mesh.triangle_vertices()[on], corners[on])

        def at_dyadic_points(x, y):
            u, p, f = ex(x, y)
            values = zip(("u", "p", "f", "gamma"), (u, p, f, cf.gamma(x, y)))
            return squared_errors(np.empty((3, len(x))), on, x, y, *(
                problem.require_finite(name, v, "dyadic point", on, q)
                for name, v in values
            ))

        sq[:, on] = quadrature.integrate_dyadic(
            at_dyadic_points, tri, mesh.area[on], SINGULAR_QUAD_DEPTH
        )
    return tuple(float(np.sqrt(row.sum())) for row in sq)


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


def require_mode(mode):
    """ConfigError unless ``mode`` is one of :data:`MODES`."""
    if mode not in MODES:
        raise ConfigError(f"mode must be {'|'.join(MODES)}, got {mode!r}")


@dataclass
class ExperimentConfig:
    problem: str
    mode: str = "uniform"
    theta: float = 0.5
    max_ndof: int = 50000
    gamma: Optional[float] = None  # eigen_sweep only; None runs the default grid
    out: str = "."
    mesh: Optional[str] = None
    dump_systems: bool = False

    def validate(self):
        if self.problem not in problem._REGISTRY:
            known = sorted(problem._REGISTRY)
            raise ConfigError(f"unknown problem {self.problem!r}; registered: {known}")
        require_mode(self.mode)
        if not (0.0 < self.theta <= 1.0):
            raise ConfigError(f"theta must lie in (0, 1], got {self.theta}")
        if not self.max_ndof >= 1:  # NaN too
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
    """Execute one experiment configuration: each level's CSV row, and its
    systems with ``dump_systems``, as the level completes, the tables at the
    end. exit_code 2 flags a singular factorization (partial CSV written)."""
    from . import adapt  # not at the top: adapt imports bench

    config.validate()
    with _writing(config.out):
        os.makedirs(config.out, exist_ok=True)
    sysdir = os.path.join(config.out, "systems")
    if config.dump_systems:
        with _writing(sysdir):
            os.makedirs(sysdir, exist_ok=True)

    def start_mesh():
        """The ``--mesh`` file's mesh, or None for the problem's own."""
        if not config.mesh:
            return None
        try:
            return read_mesh_file(config.mesh)
        except (OSError, ValueError, OverflowError, AfemError) as exc:
            raise ConfigError(
                f"cannot read mesh file {config.mesh!r}: {exc}"
            ) from None

    # off the eigen sweep validate() leaves gamma None; the sweep without
    # gamma runs the default grid, one history per value, all in one loop:
    # they start from one mesh, so a uniform sweep walks one hierarchy (each
    # red child is kept on its parent, each order on its mesh)
    eigen = config.problem == "eigen_sweep"
    sweep = eigen and config.gamma is None
    gammas = problem.DEFAULT_GAMMA_SWEEP if sweep else [config.gamma]
    runs = []  # (key, CSV stem, CSV lines written, instance) per history
    for g in gammas:
        key = config.problem if g is None else f"{config.problem}_gamma{g:g}"
        params = {} if g is None else {"gamma": g}
        runs.append((key, f"{key}_{config.mode}", [],
                     problem.benchmark(config.problem, **params)))
    hists = [ConvergenceHistory() for _ in runs]
    try:
        adapt.adaptive_loop(
            [instance for *_, instance in runs],
            theta=config.theta,
            max_ndof=config.max_ndof,
            mode=config.mode,
            start_mesh=start_mesh(),
            on_level=[
                _level_writer(config, stem, lines, f"{key}_" if sweep else "",
                              instance.field.u_dirichlet)
                for key, stem, lines, instance in runs
            ],
            histories=hists,
        )
    except BaseException:
        # the loop gave each history it stopped the exception as its failure
        for (_, stem, lines, _), hist in zip(runs, hists):
            if lines and hist.failure:
                with contextlib.suppress(ConfigError):  # the CSV may be the fault
                    _append_csv(config.out, stem, lines, f"# aborted: {hist.failure}")
        raise

    histories = {}
    events = {}
    csv_paths = []
    for (key, stem, lines, _), hist in zip(runs, hists):
        if hist.failure:
            _append_csv(config.out, stem, lines, f"# aborted: {hist.failure}")
        histories[key] = hist
        csv_paths.append(os.path.join(config.out, stem + ".csv"))
        event = sensitivity_event(hist) if eigen else hist.failure
        if event:
            events[key] = event
        echo(f"== {key} ({config.mode}, theta={config.theta}) ==")
        echo(hist.summary_table())
        if event:
            echo(f"event: {event}")
        echo("")

    if eigen:
        path = os.path.join(config.out, f"eigen_sweep_{config.mode}_combined.csv")
        _write(path, _combined_sweep_csv(dict(zip(gammas, histories.values()))))
        csv_paths.append(path)

    singular = any(h.failure for h in histories.values())
    return ExperimentResult(histories, csv_paths, events, 2 if singular else 0)


def _level_writer(config, stem, lines, prefix, u_d):
    """The ``on_level`` callback of one history: its CSV row into
    ``<stem>.csv`` and ``lines``, and with ``dump_systems`` its systems
    with Dirichlet data ``u_d``, each file named by ``prefix`` and the level."""
    sysdir = os.path.join(config.out, "systems")

    def on_level(level):
        pw, record = level.pw, level.record
        row = ",".join(_cell(getattr(record, name)) for name, _ in COLUMNS)
        _append_csv(config.out, stem, lines, row)
        if not config.dump_systems:
            return
        for kind, assemble in (
            ("modified_nc",
             lambda: assemble_modified_ncfem(pw.mesh, pw, u_dirichlet=u_d)[0]),
            ("mixed", lambda: assemble_mixed_direct(pw.mesh, pw, u_dirichlet=u_d)),
        ):
            path = os.path.join(sysdir, f"{prefix}level{record.level}_{kind}.txt")
            with _writing(path):
                assemble().dump_triplets(path)

    return on_level


@contextlib.contextmanager
def _writing(path):
    """Turn an OSError raised while writing ``path``, a directory or a file
    of the run, into a :class:`ConfigError` naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _write(path, text, mode="w"):
    """Write, or with ``mode="a"`` append, ``text`` to the file ``path``."""
    with _writing(path), open(path, mode) as fh:
        fh.write(text)


def _append_csv(out, stem, lines, line):
    """Append ``line`` to ``<stem>.csv`` and to ``lines``, those written. The
    first one writes the ``.gp`` and the header, replacing any old file; no
    handle stays open across a solve."""
    path = os.path.join(out, stem + ".csv")
    if not lines:
        _write(os.path.join(out, stem + ".gp"), _gnuplot_script(stem))
        _write(path, ",".join(name for name, _ in COLUMNS) + "\n")
    _write(path, line + "\n", "a")
    lines.append(line)


def _gnuplot_script(stem):
    """Companion gnuplot script of ``<stem>.csv``: the :data:`PLOTTED`
    columns over ndof on log-log axes."""
    col = {name: i for i, (name, _) in enumerate(COLUMNS, 1)}
    curves = ", \\\n     ".join(
        f"'{stem}.csv' using {col['ndof']}:{col[name]} with linespoints"
        f" title '{dict(COLUMNS)[name]}'" for name in PLOTTED
    )
    return (
        "set datafile separator ','\n"
        "set logscale xy\n"
        "set xlabel 'Ndof'\n"
        "set key bottom left\n"
        f"set title '{stem}'\n"
        f"plot {curves}\n"
    )


def _combined_sweep_csv(histories):
    """One row per level: ndof plus the estimator of every sweep value.

    ``histories`` maps each sweep value to its history; the columns sort
    by the values' text, as their file names do. The exact solution of the
    sweep problem is unknown, so the C_rel columns of the figures are
    replaced by the estimator columns here. The ndof cell is empty where
    the sweep values' dof counts differ, as adaptive meshes do.
    """
    texts = sorted((f"{g:g}", g) for g in histories)
    recs = [histories[g].records for _, g in texts]
    header = ["level", "ndof"] + [f"eta_{text}" for text, _ in texts]
    lines = [",".join(header)]
    for lev in range(max(map(len, recs))):
        ndofs = {r[lev].ndof for r in recs if lev < len(r)}
        ndof = str(ndofs.pop()) if len(ndofs) == 1 else ""
        cells = [_cell(r[lev].eta) if lev < len(r) else "" for r in recs]
        lines.append(",".join([str(lev), ndof] + cells))
    return "\n".join(lines) + "\n"
