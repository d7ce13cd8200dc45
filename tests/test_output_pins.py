"""SHA-1 digests of the files and text written by small runs.

The kernels behind every output (assembly, estimator, quadrature, mesh
geometry) may be rewritten only if the arithmetic stays the same, bit for
bit. The system files hold the bytes that the lexsort and einsum
formulations wrote, with plain float reprs for the matrix entries. The CSV
and stdout digests were taken once every system was factored in the mesh
order with minimum vertex separators and every solve took one refinement
step; the last bits of the CSV values, and one rounded digit of the sweep's
stdout, move with the factorization's roundoff. A change to any of them is
a change of output.

The digests were taken with numpy 2.4.6 and scipy 1.17.1 on Python 3.11;
another numpy or SuperLU may round differently, so the tier-1 workflow
installs exactly those two versions, on Python 3.11 and 3.12.
"""

import contextlib
import hashlib
import io
from types import SimpleNamespace

import pytest

from afem import cli
from afem.cli import main

LSHAPE_UNIFORM_4000 = {
    "lshape_uniform.csv": "741ed2466d588921bd4abaa495ca48d0e364a18c",
    "systems/level0_mixed.txt": "e3093c15fe41ba4f406d440a8b3c06f4b16a24d9",
    "systems/level0_modified_nc.txt": "2e44b12513100f20e9ddb41d05dc821da078d949",
    "systems/level1_mixed.txt": "72c204fc92ee2110a525442f943f7fc67549b353",
    "systems/level1_modified_nc.txt": "afcf3d8a0897d1617d76f22fabd51c9d622d7265",
    "systems/level2_mixed.txt": "285dfe31fffd912c259c6a528d9c1f762b79a889",
    "systems/level2_modified_nc.txt": "2729d6df81c29260120792d5d871fa7fc70f6639",
    "systems/level3_mixed.txt": "af04fd8c50976df5fc83cee79bfd823b6b2b25ff",
    "systems/level3_modified_nc.txt": "bf7a97cc6b1b6c30e7412312f154aa0fa3618602",
}

# adaptive slit disc: the zero reaction block, green and blue closures and
# the natural boundary term along both sides of the slit
CRACK_ADAPTIVE_3000 = {
    "crack_adaptive.csv": "5511df442cd84db8591584a0976404ec9efb2af8",
    "systems/level0_mixed.txt": "5449eb8074cf17345f07c2391aa9188f29852bf5",
    "systems/level0_modified_nc.txt": "e204242ffe9cfbb37387b391e34a2776aea38be6",
    "systems/level1_mixed.txt": "8ffa53f1bf1a67a96c4dac980c90dd1ddb5acc7b",
    "systems/level1_modified_nc.txt": "366a99d931f9cc83fc0d91545d85d92c9601d5a6",
    "systems/level2_mixed.txt": "801d514b57d9fb3460857a6d7ab3eb297fe9b341",
    "systems/level2_modified_nc.txt": "79c0da6ab229de4d0765f4f1284961fe52f90127",
    "systems/level3_mixed.txt": "52722ba27c8ac5c8f901acd90786e8b650f44dfe",
    "systems/level3_modified_nc.txt": "5c43d0c1df723dfb79271b3b3df538ee7ea89970",
    "systems/level4_mixed.txt": "62e676f1427ccdd6235aad64a6a85ec173f60b55",
    "systems/level4_modified_nc.txt": "ea7e17cffca8ff2be5d681b2d80e42ed10d395c0",
    "systems/level5_mixed.txt": "c69e2fafce7674b2d485b6d83597f5abd9f921d4",
    "systems/level5_modified_nc.txt": "63d55e35cda44134f120a87fafee230e7abb8f6e",
    "systems/level6_mixed.txt": "9e60ba4730d90ab43b43acb165d84fc15e5d99dd",
    "systems/level6_modified_nc.txt": "af0ee469693ef00bb29243455ff1cf05536d4d21",
}

CRACK_ADAPTIVE_15000 = {
    "crack_adaptive.csv": "2d9357aa927453c057a3f03eaeb4315e94cec311",
}

EIGEN_SWEEP_UNIFORM_4000 = {
    "eigen_sweep_gamma8_uniform.csv": "efada681b2240718e71664d2cbc6de0cdd6a880a",
    "eigen_sweep_gamma9_uniform.csv": "56778d36b6c27bfee2ce0c786ad9f1231f1fbda0",
    "eigen_sweep_gamma9.5_uniform.csv": "79f08dce3068ac9f9e5b0aebbde8eca87852e518",
    "eigen_sweep_gamma9.63_uniform.csv": "d2a6b97e2b5c018fe96ad3fc9b7e3cb8681ae1c8",
    "eigen_sweep_gamma9.64_uniform.csv": "4441af398547492b19b632e6f7b1d72856c4fc26",
    "eigen_sweep_gamma9.7_uniform.csv": "d033155cb0bb761434ee2ad4934c08c575c027b3",
    "eigen_sweep_gamma10_uniform.csv": "6da57d1ad0219ef07e2e6de19ab52b155e02e8ee",
    "eigen_sweep_gamma12_uniform.csv": "4b4bbd98f3663975f2770ed38f76445410ce5361",
    "eigen_sweep_uniform_combined.csv": "349f7da451e902fdb50adaa19d1264b50166dd31",
}
EIGEN_SWEEP_UNIFORM_4000_STDOUT = "2d7201cd9280141bf04d9afce5b8916c97a86c76"


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


def test_crack_adaptive_dump_bytes_pinned(tmp_path):
    code = _run(
        tmp_path, "--problem", "crack", "--mode", "adaptive",
        "--max-ndof", "3000", "--dump-systems",
    )
    assert code == 0
    files = sorted(p.relative_to(tmp_path).as_posix()
                   for p in tmp_path.rglob("*.*") if p.suffix != ".gp")
    assert files == sorted(CRACK_ADAPTIVE_3000)
    assert _digests(tmp_path, CRACK_ADAPTIVE_3000) == CRACK_ADAPTIVE_3000


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


# front end: the help text, the gnuplot scripts and the summary tables
RUN_HELP = "e4f1fbbda57d47d2f13cedfe0415f9a540e1f1b1"
LSHAPE_UNIFORM_4000_FRONT = {
    "lshape_uniform.csv": "741ed2466d588921bd4abaa495ca48d0e364a18c",
    "lshape_uniform.gp": "2eab91ebb853f6792588576222e0376225371fb0",
}
LSHAPE_UNIFORM_4000_STDOUT = "cbb9bdab9a5229a251067f13766dbaf1f4744032"
# one sweep value: the gamma in the key, the file names and the combined CSV
EIGEN_SWEEP_964_ADAPTIVE_300 = {
    "eigen_sweep_gamma9.64_adaptive.csv": "a9c79138503205a780689237d5bef4d6247f58eb",
    "eigen_sweep_gamma9.64_adaptive.gp": "c09b5f93181680e70e86e16708c47071cff92caf",
    "eigen_sweep_adaptive_combined.csv": "25264a1a14f2b8ba11edcb43c500acf9917c3421",
}
EIGEN_SWEEP_964_ADAPTIVE_300_STDOUT = "bf3c0390b5f907040fe6ab80098f6386b7187725"


def test_run_help_bytes_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), pytest.raises(SystemExit) as done:
        main(["run", "--help"])
    assert done.value.code == 0
    assert hashlib.sha1(stdout.getvalue().encode()).hexdigest() == RUN_HELP


@pytest.mark.parametrize(
    "args, pins, stdout_pin",
    [
        (["--problem", "lshape", "--mode", "uniform", "--max-ndof", "4000"],
         LSHAPE_UNIFORM_4000_FRONT, LSHAPE_UNIFORM_4000_STDOUT),
        (["--problem", "eigen_sweep", "--mode", "adaptive", "--gamma", "9.64",
          "--max-ndof", "300"],
         EIGEN_SWEEP_964_ADAPTIVE_300, EIGEN_SWEEP_964_ADAPTIVE_300_STDOUT),
    ],
    ids=["lshape-uniform-4000", "eigen-sweep-9.64-adaptive-300"],
)
def test_front_end_bytes_pinned(tmp_path, args, pins, stdout_pin):
    stdout = io.StringIO()
    assert _run(tmp_path, *args, stdout=stdout) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(pins)
    assert _digests(tmp_path, pins) == pins
    assert hashlib.sha1(stdout.getvalue().encode()).hexdigest() == stdout_pin


# option key -> (its text on the command line or in a config file, the value)
OPTION_SAMPLES = {
    "problem": ("crack", "crack"),
    "mode": ("adaptive", "adaptive"),
    "theta": ("0.25", 0.25),
    "max_ndof": ("123", 123),
    "gamma": ("9.5", 9.5),
    "out": ("results", "results"),
    "mesh": ("start.mesh", "start.mesh"),
    "dump_systems": ("yes", True),
}


@pytest.mark.parametrize("key", list(cli._OPTIONS))
def test_option_reaches_the_config_as_flag_or_file_key(tmp_path, monkeypatch, key):
    text, value = OPTION_SAMPLES[key]
    seen = []

    def capture(config):
        seen.append(config)
        return SimpleNamespace(exit_code=0)

    monkeypatch.setattr(cli, "run_experiment", capture)
    flag = "--" + key.replace("_", "-")
    base = [] if key == "problem" else ["--problem", "lshape"]
    assert main(["run", *base, flag, *([] if key == "dump_systems" else [text])]) == 0
    for spelling in (key, key.replace("_", "-")):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{spelling} = {text}\n")
        assert main(["run", *base, "--config", str(cfg)]) == 0
    from_flag, *from_files = seen
    assert getattr(from_flag, key) == value
    assert from_files == [from_flag, from_flag]
