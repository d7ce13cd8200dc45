"""Machine-speed probe: time a fixed kernel that uses no afem code.

    python3 perfbench/calibrate.py     # prints the kernel's wall time in s

The kernel mixes the three kinds of work afem does: a SuperLU
factorization of a fixed sparse matrix, a Python dict loop and NumPy array
passes. run.py runs it between samples and divides its timings by the
probe's drift from CAL_REF_S, so that a busy neighbour on a shared host
does not read as a regression.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def kernel():
    m = 150
    t = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(m, m))
    a = (sp.kron(t, sp.eye(m)) + sp.kron(sp.eye(m), t)).tocsc()
    x = np.random.default_rng(0).random(2_000_000)
    start = time.perf_counter()
    for _ in range(3):
        spla.splu(a)
    d = {}
    for i in range(300_000):
        d[(i * 7919) % 100_003] = i
    for _ in range(10):
        np.sort(x)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(kernel()))
