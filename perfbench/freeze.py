"""Write reference.json: the frozen dof sequences and estimators.

    python3 perfbench/freeze.py

Runs every workload once, untraced, and records per convergence history
the attempted dof sequence (an aborted level included) and the estimator
of every completed level. Run it only on a commit whose behaviour is the
reference; the benchmark fails any later run that departs from it.
"""

import json
import os
import tempfile

from run import HERE, WORK, Runner


def main():
    with open(os.path.join(HERE, "workloads.json")) as fh:
        workloads = json.load(fh)["workloads"]
    frozen = {}
    os.makedirs(WORK, exist_ok=True)
    for name, spec in workloads.items():
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            sample = Runner(name, 0, spec["config"], tmp).spawn()
        histories = {}
        for loop, (key, hist) in enumerate(sample["histories"].items()):
            histories[key] = {
                "ndof": [lv["ndof"] for lv in sample["levels"] if lv["loop"] == loop],
                "eta": hist["eta"],
            }
        frozen[name] = {"histories": histories}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(frozen, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
