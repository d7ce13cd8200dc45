"""SHA-1 digests of the files written by three small runs.

The kernels behind every output (assembly, estimator, quadrature, mesh
geometry) may be rewritten only if the arithmetic stays the same, bit for
bit. The system digests were taken before the array kernels replaced the
lexsort and einsum formulations, the CSV digests once every system was
factored in the mesh order, the eigen-sweep digests before its histories
shared one mesh hierarchy; a change to any of them is a change of output.
"""

import contextlib
import hashlib
import io

from afem.cli import main

LSHAPE_UNIFORM_4000 = {
    "lshape_uniform.csv": "95d4045e64afb024c9e0dfddbc5a8416eafe788e",
    "systems/level0_mixed.txt": "a53bae53b8f3945633690e1d91f488cc4ac3f3b0",
    "systems/level0_modified_nc.txt": "2038ecaf4fbe58d5a0a31892369ecda0b6a27e41",
    "systems/level1_mixed.txt": "81179b31d30b229316128c24a8c85b72aead22e4",
    "systems/level1_modified_nc.txt": "80a55cc379f0a4b8681d6b57de11c28e3f712711",
    "systems/level2_mixed.txt": "e25f529fe27bdc5e75899cca5adc7f2da811242b",
    "systems/level2_modified_nc.txt": "d94c318a9bc2b0514cdb16aa1b41f3336b7a97ad",
    "systems/level3_mixed.txt": "b86cf38803437c3bd246473d57a290263f953829",
    "systems/level3_modified_nc.txt": "679500597c473257bf42f90cbf5b31e9566a05c0",
}

CRACK_ADAPTIVE_15000 = {
    "crack_adaptive.csv": "7a2211f5e774a6a4299a69e18b4e7690644a9af3",
}

EIGEN_SWEEP_UNIFORM_4000 = {
    "eigen_sweep_gamma8_uniform.csv": "e0ed1e4b9a210277f6cf5cf23ce43279a638f9b6",
    "eigen_sweep_gamma9_uniform.csv": "6042137defbb9172c2a6e997396fcab23221aa04",
    "eigen_sweep_gamma9.5_uniform.csv": "3959013023851caf26cc07f61dcb0f000371ae38",
    "eigen_sweep_gamma9.63_uniform.csv": "e7fda2572c9747dcc1eb907c3d511ac732693902",
    "eigen_sweep_gamma9.64_uniform.csv": "f785365f009cf8309f802b0acd353250a9691cf4",
    "eigen_sweep_gamma9.7_uniform.csv": "433b2c3e607527dc7a39d198a33234ffa313dffd",
    "eigen_sweep_gamma10_uniform.csv": "959aef5aca05e6f73291d5b9671b71698b049ef9",
    "eigen_sweep_gamma12_uniform.csv": "32f132db5c1f9547f7b4d503f9b63b9e2b9cf42e",
    "eigen_sweep_uniform_combined.csv": "589922b3f77772b7a74f10f7517c84d1d798b48b",
}
EIGEN_SWEEP_UNIFORM_4000_STDOUT = "89c1cb7445d4bd8971cdfdc4c3eb811dc76db3bf"


def _digests(out, names):
    return {n: hashlib.sha1((out / n).read_bytes()).hexdigest() for n in names}


def _run(out, *args, stdout=None):
    with contextlib.redirect_stdout(stdout or io.StringIO()):
        return main(["run", *args, "--out", str(out)])


def test_lshape_uniform_dump_bytes_pinned(tmp_path):
    code = _run(
        tmp_path, "--problem", "lshape", "--mode", "uniform",
        "--max-ndof", "4000", "--dump-systems",
    )
    assert code == 0
    files = sorted(p.relative_to(tmp_path).as_posix()
                   for p in tmp_path.rglob("*.*") if p.suffix != ".gp")
    assert files == sorted(LSHAPE_UNIFORM_4000)
    assert _digests(tmp_path, LSHAPE_UNIFORM_4000) == LSHAPE_UNIFORM_4000


def test_crack_adaptive_csv_bytes_pinned(tmp_path):
    code = _run(
        tmp_path, "--problem", "crack", "--mode", "adaptive",
        "--max-ndof", "15000",
    )
    assert code == 0
    assert _digests(tmp_path, CRACK_ADAPTIVE_15000) == CRACK_ADAPTIVE_15000


def test_eigen_sweep_uniform_bytes_pinned(tmp_path):
    stdout = io.StringIO()
    code = _run(
        tmp_path, "--problem", "eigen_sweep", "--mode", "uniform",
        "--max-ndof", "4000", stdout=stdout,
    )
    assert code == 0
    files = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert files == sorted(EIGEN_SWEEP_UNIFORM_4000)
    assert _digests(tmp_path, EIGEN_SWEEP_UNIFORM_4000) == EIGEN_SWEEP_UNIFORM_4000
    digest = hashlib.sha1(stdout.getvalue().encode()).hexdigest()
    assert digest == EIGEN_SWEEP_UNIFORM_4000_STDOUT
