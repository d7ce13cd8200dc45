"""Correctness checks applied to every measured sample.

A sample is the summary written by child.py. Its levels are checked
against the frozen reference in reference.json (written by freeze.py):

* the attempted dof sequence of every convergence history is identical;
* every level's estimator eta matches the frozen value to 1e-6 relative;
* every completed level passed the reconstruction-vs-direct cross-check;
* the first six lshape_uniform levels match the published reference
  tables (copied from the acceptance tests, not imported);
* the exit code and the CSVs written agree with the histories.

A level fails when it aborted (SingularMatrix) or failed a check. A level
that completes where the reference aborted is not a check failure.
"""

ETA_RTOL = 1e-6
EQUIVALENCE_TOL = 1e-8  # afem.adapt.EQUIVALENCE_TOL, the loop's own limit

# reference tables of the uniform L-shape run; a value matches under the
# acceptance gate's own rule (criterion 4): within 20% relative
REF_UNIFORM_N = [68, 256, 992, 3904, 15488, 61696]
REF_UNIFORM_EU = [0.16656920, 0.08258681, 0.04098066, 0.02034316, 0.01011251, 0.00503450]
REF_UNIFORM_EP = [0.26578962, 0.19505767, 0.12772995, 0.08188794, 0.05215656, 0.03310369]
REF_UNIFORM_ETA = [1.01064602, 0.52572088, 0.27713363, 0.14883131, 0.08185377, 0.04621899]
TABLE_RTOL = 0.20


class CheckResult:
    def __init__(self):
        self.attempted = 0
        self.completed = 0  # completed and passed every check
        self.problems = []

    @property
    def ok(self):
        return not self.problems


def check_sample(workload, mode, sample, reference):
    """Check one sample against the frozen reference of its workload."""
    res = CheckResult()
    hists = sample["histories"]
    # run_experiment exits 2 when a history aborted, else 0
    want = 2 if any(h["failure"] for h in hists.values()) else 0
    if sample["exit_code"] != want:
        res.problems.append(f"exit code {sample['exit_code']}, histories imply {want}")
    if sorted(hists) != sorted(reference["histories"]):
        res.problems.append(f"history keys {sorted(hists)} differ from the reference")
    for key, ref in reference["histories"].items():
        hist = hists.get(key)
        if hist is None:
            res.attempted += len(ref["ndof"])
            continue
        tables = _table_problems(hist) if workload == "lshape_uniform" else {}
        _check_history(key, hist, ref, tables, res)
    _check_csvs(sample, mode, res)
    return res


def _check_history(key, hist, ref, tables, res):
    ndof = hist["ndof"]
    attempted = len(ndof) + (1 if hist["failure"] else 0)
    res.attempted += attempted
    if attempted != len(ref["ndof"]) or ndof != ref["ndof"][: len(ndof)]:
        res.problems.append(f"{key}: dof sequence {ndof} differs from {ref['ndof']}")
        return
    for lev, n in enumerate(ndof):
        bad = []
        if lev < len(ref["eta"]):
            want, got = ref["eta"][lev], hist["eta"][lev]
            if not abs(got - want) <= ETA_RTOL * abs(want):
                bad.append(f"eta {got!r} vs frozen {want!r}")
        if not hist["equivalence"][lev] <= EQUIVALENCE_TOL:
            bad.append(f"routes differ by {hist['equivalence'][lev]:.3e}")
        if lev in tables:
            bad.append(tables[lev])
        if bad:
            res.problems.append(f"{key} level {lev} (N={n}): " + "; ".join(bad))
        else:
            res.completed += 1


def _table_problems(hist):
    """Per level, the first disagreement with the reference tables."""
    if len(hist["ndof"]) < len(REF_UNIFORM_N):
        return {0: "fewer levels than the reference tables"}
    out = {}
    for lev, n in enumerate(REF_UNIFORM_N):
        pairs = (
            ("N", hist["ndof"][lev], n),
            ("e_u", hist["e_u"][lev], REF_UNIFORM_EU[lev]),
            ("e_p", hist["e_p"][lev], REF_UNIFORM_EP[lev]),
            ("eta", hist["eta"][lev], REF_UNIFORM_ETA[lev]),
        )
        for tag, got, want in pairs:
            if not abs(got - want) <= TABLE_RTOL * want:
                out[lev] = f"{tag} {got!r} vs table {want!r}"
                break
    return out


def _check_csvs(sample, mode, res):
    """The CSVs written must carry the histories' dofs and estimators."""
    for key, hist in sample["histories"].items():
        text = sample["csv_text"].get(f"{key}_{mode}.csv")
        if text is None:
            res.problems.append(f"{key}: no CSV written")
            continue
        rows = [
            ln.split(",") for ln in text.splitlines()[1:]
            if ln and not ln.startswith("#")
        ]
        if [(int(r[1]), float(r[7])) for r in rows] != list(zip(hist["ndof"], hist["eta"])):
            res.problems.append(f"{key}: CSV rows differ from the history")
