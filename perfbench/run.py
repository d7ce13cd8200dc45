"""afem benchmark: timed convergence runs through the user-facing path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``). Each sample is a fresh process (child.py) with BLAS threads
pinned to 1 that calls ``afem.bench.run_experiment`` -- what ``afem run``
calls -- and writes its CSVs to a temporary directory under
``.perfbench/``. Every sample is checked (checks.py) before any number is
printed. The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (samples run), ``failed`` (samples that failed a
check) and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run (spans.py) with ``--trace 1``.

Every time metric is a wall time scaled to the reference machine speed:
calibrate.py runs a fixed kernel (no afem code) before and after each
sample, and the sample's times are multiplied by CAL_REF_S over the mean of
the two probes. Shared hosts drift by 25% and more within minutes; this
keeps most of that drift out of the comparison between two commits. The raw wall
times are printed on the ``#`` lines. Traced runs report raw times.

The workload inputs are deterministic; ``--seed`` is recorded in the run
ids and trace file names and changes nothing else.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from checks import check_sample
from spans import COUNT_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 3    # set-up-only processes per run, besides the samples
MIN_SAMPLES = 2     # samples per run (traced ones in a traced run), however long
HARD_LIMIT_S = 170  # no child may still run after this
CAL_REF_S = 0.6     # calibrate.py kernel time at the reference machine speed


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, workload, seed, config, tmp):
        self.workload, self.seed, self.config, self.tmp = workload, seed, config, tmp
        self.started = time.perf_counter()
        self.n = 0

    def calibrate(self):
        """Run the machine-speed probe in its own process; return its time."""
        return float(self._run([sys.executable, os.path.join(HERE, "calibrate.py")]))

    def _run(self, cmd):
        budget = HARD_LIMIT_S - (time.perf_counter() - self.started)
        if budget <= 0:
            raise BenchError("time limit reached before the run finished")
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=child_env(), timeout=budget,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{cmd[1]} exceeded the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
        return proc.stdout

    def spawn(self, setup_only=False, trace=False):
        """Run one child process and return its result, CSV texts included."""
        self.n += 1
        run_id = f"{self.workload}-seed{self.seed}-{self.n}"
        out = os.path.join(self.tmp, f"out{self.n}")
        cfg_path = os.path.join(self.tmp, f"cfg{self.n}.json")
        res_path = os.path.join(self.tmp, f"res{self.n}.json")
        with open(cfg_path, "w") as fh:
            json.dump({**self.config, "out": out, "run_id": run_id}, fh)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), cfg_path, res_path]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--trace", os.path.join(WORK, f"trace-{run_id}.jsonl")]
        self._run(cmd)
        with open(res_path) as fh:
            result = json.load(fh)
        if not result["afem_file"].startswith(SRC + os.sep):
            raise BenchError(f"afem imported from {result['afem_file']}, not {SRC}")
        result["csv_text"] = {}
        for path in result.get("csv_paths", []):
            with open(path) as fh:
                result["csv_text"][os.path.basename(path)] = fh.read()
        return result


def finest_level_s(sample):
    """Wall time of the levels at the largest dof count attempted."""
    top = max(lv["ndof"] for lv in sample["levels"])
    return sum(lv["wall_s"] for lv in sample["levels"] if lv["ndof"] == top)


def completed_dofs(sample):
    return sum(sum(h["ndof"]) for h in sample["histories"].values())


def run(workload, seed, seconds, trace):
    with open(os.path.join(HERE, "workloads.json")) as fh:
        workloads = json.load(fh)["workloads"]
    if workload not in workloads:
        raise BenchError(f"unknown workload {workload!r}; known: {sorted(workloads)}")
    spec = workloads[workload]
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[workload]
    config = spec["config"]

    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        runner = Runner(workload, seed, config, tmp)
        runner.spawn(setup_only=True)  # warm-up: bytecode and file caches
        deadline = time.perf_counter() + seconds
        # cal[0], cal[1] bracket the set-up probes; cal[i + 1], cal[i + 2] sample i
        cal = [runner.calibrate()]
        setups = [runner.spawn(setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
        untraced, traced = [], []
        while True:
            started = time.perf_counter()
            cal.append(runner.calibrate())
            untraced.append(runner.spawn())
            if trace:  # each traced sample follows an untraced one
                traced.append(runner.spawn(trace=True))
            done = traced if trace else untraced
            last = time.perf_counter() - started
            if len(done) >= MIN_SAMPLES and time.perf_counter() + last > deadline:
                break
        cal.append(runner.calibrate())

    # times in seconds at the reference machine speed (see calibrate.py)
    speed = [CAL_REF_S / statistics.mean(pair) for pair in zip(cal, cal[1:])]
    setups = [t * speed[0] for t in setups]
    for s, k in zip(untraced, speed[1:]):
        s["raw_wall_s"] = s["wall_s"]
        s["wall_s"] *= k
        s["setup_s"] *= k
        for lv in s["levels"]:
            lv["wall_s"] *= k

    samples = untraced + traced
    checks = [check_sample(workload, config["mode"], s, reference) for s in samples]
    problems = [p for c in checks for p in c.problems]
    problems += determinism_problems(untraced, traced)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    if trace:
        values = layer_metrics(untraced, traced)
    else:
        setups += [s["setup_s"] for s in untraced]
        walls = [s["wall_s"] for s in untraced]
        med = statistics.median
        values = {
            "wall_s": med(walls),
            "finest_level_s": med(map(finest_level_s, untraced)),
            "dof_per_s": med(completed_dofs(s) / s["wall_s"] for s in untraced),
            "peak_rss_mb": med(s["peak_rss_mb"] for s in untraced),
            "setup_s": med(setups),
            "completed_frac": sum(c.completed for c in checks) / sum(c.attempted for c in checks),
        }
        raw = sorted(round(s["raw_wall_s"], 3) for s in untraced)
        print(f"# {workload}: {len(walls)} samples; raw wall_s {raw}")
        print(f"# calibration kernel {[round(c, 3) for c in cal]} s (reference {CAL_REF_S} s)")
        print(f"# setup_s over {len(setups)} set-ups")
    units = declared_units(trace)
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(samples),
        "failed": sum(1 for c in checks if not c.ok),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if not problems else 1


def declared_units(trace):
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def determinism_problems(untraced, traced):
    """Counts must repeat exactly across this run's own samples."""
    out = []
    dofs = {json.dumps({k: h["ndof"] for k, h in s["histories"].items()}) for s in untraced + traced}
    if len(dofs) > 1:
        out.append(f"dof sequences differ between repeats: {sorted(dofs)}")
    for key in COUNT_METRICS:
        seen = {s["layers"][key] for s in traced}
        if len(seen) > 1:
            out.append(f"count {key} differs between repeats: {sorted(seen)}")
    return out


def layer_metrics(untraced, traced):
    med = statistics.median
    out = {key: med(s["layers"][key] for s in traced) for key in traced[0]["layers"]}
    out["trace.accounted_frac"] = min(s["accounted_frac"] for s in traced)
    out["trace.wall_s"] = med(s["wall_s"] for s in traced)
    out["trace.overhead_s"] = med(t["wall_s"] - u["raw_wall_s"] for t, u in zip(traced, untraced))
    print(f"# {len(traced)} traced samples, {len(untraced)} untraced; spans in {WORK}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "afem", "__init__.py")):
        print(f"perfbench: no afem sources under {SRC}", file=sys.stderr)
        return 2
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
