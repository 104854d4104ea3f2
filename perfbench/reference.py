"""Recompute `chain_law.json`, the exact finite-t law of the benchmark chains.

    python3 perfbench/reference.py

Runs `tests/finite_t.ChainLaw` (64 affine steps from 0, on its log grid,
from the coefficients' survival functions alone; no Monte Carlo) for the
independent model and for the signed model with p_plus = 0.75, and stores
P[X > t] and P[X < -t] at the grid nodes.  Between nodes the benchmark
interpolates log P linearly in log t, as ChainLaw does.  It takes about
30 s, which is why the benchmark reads the stored values.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

from finite_t import ChainLaw  # noqa: E402
from sfpe.dist import LogPareto  # noqa: E402
from sfpe.maps import INDEPENDENT, SIGNED, CoeffLaw  # noqa: E402

import models  # noqa: E402

PATH = os.path.join(HERE, "chain_law.json")


def main():
    lp = LogPareto(*models.LOG_PARETO)
    laws = {
        "independent": CoeffLaw(lp, lp, INDEPENDENT, c_b=models.C_B),
        "signed": CoeffLaw(lp, lp, SIGNED, p_plus=models.P_PLUS, c_b=models.C_B),
    }
    out = {}
    for name, coeff in laws.items():
        law = ChainLaw(coeff, steps=models.BURN_IN)
        out[name] = {
            "t": law.grid.t.tolist(),
            "right": law.right.surv.tolist(),
            "left": law.left.surv.tolist(),
        }
    with open(PATH, "w") as fh:
        json.dump(out, fh)
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
