"""Closed-form symplectic paths for the tests: t -> exp(t B)."""
import numpy as np
import scipy.linalg

from localfloer.paths import SymplecticPath
from localfloer.symplectic import standard_j


def exponential_path(generator, span=1.0):
    """t -> exp(t B) for B in the symplectic Lie algebra (J B symmetric),
    evaluated on an array of times with one stacked expm."""
    gen = np.asarray(generator, dtype=float)
    n = gen.shape[0] // 2
    j = standard_j(n)
    sym_defect = float(np.max(np.abs(j @ gen + gen.T @ j)))
    if sym_defect > 1e-9 * max(1.0, float(np.max(np.abs(gen)))):
        raise ValueError(f"generator not in sp(2n): defect {sym_defect:.3e}")
    return SymplecticPath(n, span, lambda ts: scipy.linalg.expm(ts[:, None, None] * gen))
