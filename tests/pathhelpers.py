"""Symplectic paths and matrices for the tests: closed-form paths
t -> exp(t B), random symplectic matrices, pointwise products, direct sums
and iterates of paths, and the Maslov index of a loop."""
import numpy as np
import scipy.linalg

from localfloer.errors import LocalFloerError, WindingUnresolved
from localfloer.paths import SymplecticPath, winding
from localfloer.symplectic import (
    SymplecticMatrix,
    direct_sum_indices,
    standard_j,
    validate_symplectic,
    vectorfield_j,
)

RANDOM_SCALE = 0.8
LOOP_TOL = 1e-6


class NotALoop(LocalFloerError):
    """Loop operation applied to a path whose endpoint is not the identity."""


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


def random_symplectic(n: int, rng: np.random.Generator) -> SymplecticMatrix:
    """Random symplectic matrix exp(J_vf S) with S symmetric."""
    s = rng.standard_normal((2 * n, 2 * n))
    s = RANDOM_SCALE * (s + s.T) / 2.0
    gen = vectorfield_j(n) @ s
    return validate_symplectic(scipy.linalg.expm(gen), tol=1e-8)


def path_product(first: SymplecticPath, second: SymplecticPath) -> SymplecticPath:
    """Pointwise product path; same span required."""
    if abs(first.span - second.span) > 1e-12 or first.n != second.n:
        raise ValueError("product requires matching span and dimension")
    return SymplecticPath(
        first.n, first.span, lambda ts: first.evaluate(ts) @ second.evaluate(ts)
    )


def path_direct_sum(first: SymplecticPath, second: SymplecticPath) -> SymplecticPath:
    """Block path in split coordinates (x1, x2, y1, y2)."""
    if abs(first.span - second.span) > 1e-12:
        raise ValueError("direct sum requires matching span")
    n = first.n + second.n
    i1, i2 = direct_sum_indices(first.n, second.n)

    def ev(ts: np.ndarray) -> np.ndarray:
        out = np.zeros((len(ts), 2 * n, 2 * n))
        out[:, i1[:, None], i1] = first.evaluate(ts)
        out[:, i2[:, None], i2] = second.evaluate(ts)
        return out

    return SymplecticPath(n, first.span, ev)


def iterated(path: SymplecticPath, k: int) -> SymplecticPath:
    """Path of the k-th iterate: on [j, j+1] it is t -> Psi(t - j) E^j.

    The winding of rho along it is the oracle of the iteration formula
    (`paths._iterate_index`).  The first iterate is the path itself.
    """
    if k < 1:
        raise ValueError("iteration order must be >= 1")
    if abs(path.span - 1.0) > 1e-12:
        raise ValueError("iteration requires a unit-span path")
    if k == 1:
        return path
    e = path(1.0)
    powers = [np.eye(2 * path.n)]
    for _ in range(k - 1):
        powers.append(e @ powers[-1])
    powers = np.array(powers)

    def ev(ts: np.ndarray) -> np.ndarray:
        legs = np.clip(np.floor(ts).astype(int), 0, k - 1)
        return path.evaluate(ts - legs) @ powers[legs]

    return SymplecticPath(path.n, float(k), ev)


def maslov_loop(path: SymplecticPath, **winding_kwargs) -> int:
    """Winding number of a loop at the identity: winding / (2 pi)."""
    defect = float(np.max(np.abs(path(path.span) - path(0.0))))
    if defect > LOOP_TOL:
        raise NotALoop(f"endpoint differs from start by {defect:.3e}")
    w = winding(path, **winding_kwargs)
    raw = w / (2.0 * np.pi)
    nearest = round(raw)
    if abs(raw - nearest) > 0.1:
        raise WindingUnresolved(f"loop winding {raw} not close to an integer")
    return int(nearest)
