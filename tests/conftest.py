"""Runs that more than one test module reads."""

import pytest

from afem.problem import benchmark
from oracles import unchecked_adaptive_loop


@pytest.fixture(scope="session")
def crack_unchecked_120000():
    """:func:`oracles.unchecked_adaptive_loop` on ``crack adaptive 120000``:
    the 15 solved levels with their marks, and the 172,400-dof mesh that the
    loop built and rejected."""
    return unchecked_adaptive_loop(benchmark("crack"), max_ndof=120000)
