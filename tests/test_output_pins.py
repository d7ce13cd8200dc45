"""SHA-1 digests of the files written by two small runs.

The kernels behind every output (assembly, estimator, quadrature, mesh
geometry) may be rewritten only if the arithmetic stays the same, bit for
bit. The system digests were taken before the array kernels replaced the
lexsort and einsum formulations, the CSV digests once every system was
factored in the mesh order; a change to any of them is a change of output.
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


def _digests(out, names):
    return {n: hashlib.sha1((out / n).read_bytes()).hexdigest() for n in names}


def _run(out, *args):
    with contextlib.redirect_stdout(io.StringIO()):
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
