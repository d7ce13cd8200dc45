"""The README's code runs as written."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(heading):
    """The first ```python block under the README section ``heading``."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_sketch_runs(capsys):
    namespace = {}
    exec(compile(_python_block("Library sketch"), str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    # the two equivalence values it prints: the hybrid recovery and the
    # direct saddle-point solve, each against the reconstruction
    for line in printed[:2]:
        rel_p, rel_u = ast.literal_eval(line)
        assert 0.0 <= rel_p <= 1e-12 and 0.0 <= rel_u <= 1e-12
    assert namespace["history"].failure is None
    assert len(namespace["history"].records) >= 2
