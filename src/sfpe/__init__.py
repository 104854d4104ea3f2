"""Simulation and verification toolkit for tail asymptotics of stochastic
fixed-point equations R = Psi(R) in distribution."""

import numpy as np

__version__ = "0.1.0"


def _csv_cell(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer, np.bool_)):  # counts and pass flags
        return str(int(v))
    return repr(float(v))


def csv_text(header, rows):
    """The one CSV writer of every output file: text as is, integers and
    pass flags as str(int(v)), every other number as repr(float(v))."""
    lines = [header] + [",".join(map(_csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"
