"""Write the reference values of the correctness gates to ``bench/frozen.json``.

    python3 bench/freeze.py

``grid`` holds the 160 ``default_grid()`` values in grid order (the grid-cold
seed-0 rows, and every grid-cold seed after rescaling; the mc-paths analytic
references).  ``sweep`` holds the sweep-shared seed-0 values in sweep order.
The committed file was produced at the commit it names; regenerate it only
when a change is meant to move these values.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src")]

from aimdexit import evaluate  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, text=True,
                            capture_output=True).stdout.strip()
    frozen = {
        "commit": commit,
        "grid": [evaluate(*row) for row in workloads.grid_rows(0)],
        "sweep": [evaluate(*row) for row in workloads.sweep_rows(0)],
    }
    with open(os.path.join(HERE, "frozen.json"), "w") as fh:
        json.dump(frozen, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
