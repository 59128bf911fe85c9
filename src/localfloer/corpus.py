"""Reference germs and scalar fields used across tests and the CLI.

Every germ here has hand-computed structure worth cross-checking against
the numerics: linear flows with known monodromy, radial twists with known
resonant circles, homogeneous critical points with known local homology.
Constructor functions are parametrized; the GERMS registry pins specific
instances under stable names so command-line runs are reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from .germs import HamiltonianGerm, concatenate

__all__ = ["GERMS", "FIELDS"]


def _split(z):
    return z[:, 0], z[:, 1]


def zero_germ() -> HamiltonianGerm:
    return HamiltonianGerm(
        n=1,
        value=lambda t, z: np.zeros(len(z)),
        grad=lambda t, z: np.zeros_like(z),
        jet=lambda t, z: (np.zeros_like(z), np.zeros((len(z), 2, 2))),
        name="zero",
    )


def linear_rotation(alpha: float) -> HamiltonianGerm:
    """H = -pi alpha (x^2 + y^2); time-1 flow rotates by 2 pi alpha, mean index 2 alpha."""
    a = np.pi * alpha

    def grad(t, z):
        return -2.0 * a * z

    def jet(t, z):
        return grad(t, z), np.broadcast_to(-2.0 * a * np.eye(2), (len(z), 2, 2)).copy()

    return HamiltonianGerm(
        n=1,
        value=lambda t, z: -a * (z[:, 0] ** 2 + z[:, 1] ** 2),
        grad=grad,
        jet=jet,
        name=f"rotation({alpha})",
    )


def hyperbolic(lam: float) -> HamiltonianGerm:
    """H = log(lam) x y, for lam > 0; time-1 flow is diag(lam, 1/lam)."""
    if not lam > 0:
        raise ValueError(f"hyperbolic needs lam > 0, got {lam}")
    c = np.log(lam)
    h = c * np.array([[0.0, 1.0], [1.0, 0.0]])

    def grad(t, z):
        x, y = _split(z)
        return c * np.stack([y, x], axis=1)

    return HamiltonianGerm(
        n=1,
        value=lambda t, z: c * z[:, 0] * z[:, 1],
        grad=grad,
        jet=lambda t, z: (grad(t, z), np.broadcast_to(h, (len(z), 2, 2)).copy()),
        name=f"hyperbolic({lam})",
    )


def negative_hyperbolic(lam: float) -> HamiltonianGerm:
    """Half rotation then squeeze; time-1 flow is diag(-lam, -1/lam)."""
    g = concatenate(linear_rotation(0.5), hyperbolic(lam))
    g.name = f"negative-hyperbolic({lam})"
    return g


def shear() -> HamiltonianGerm:
    """H = y^2 / 2; time-1 flow is the unipotent map (x, y) -> (x + y, y)."""

    def grad(t, z):
        return np.stack([np.zeros(len(z)), z[:, 1]], axis=1)

    def jet(t, z):
        out = np.zeros((len(z), 2, 2))
        out[:, 1, 1] = 1.0
        return grad(t, z), out

    return HamiltonianGerm(
        n=1,
        value=lambda t, z: 0.5 * z[:, 1] ** 2,
        grad=grad,
        jet=jet,
        name="shear",
    )


def quartic(sign: int) -> HamiltonianGerm:
    """H = sign (x^4 + y^4) / 4; totally degenerate extremum at the origin."""
    s = float(sign)

    def grad(t, z):
        return s * z * z * z

    def jet(t, z):
        out = np.zeros((len(z), 2, 2))
        out[:, [0, 1], [0, 1]] = 3.0 * s * z**2
        return grad(t, z), out

    return HamiltonianGerm(
        n=1,
        value=lambda t, z: s * (z[:, 0] ** 4 + z[:, 1] ** 4) / 4.0,
        grad=grad,
        jet=jet,
        name=f"quartic({sign:+g})",
    )


def _monkey_parts(eps: float):
    def value(z):
        x, y = _split(z)
        return eps * (x * x * x - 3.0 * x * y**2)

    def grad(z):
        x, y = _split(z)
        return eps * np.stack([3.0 * x**2 - 3.0 * y**2, -6.0 * x * y], axis=1)

    def jet(z):
        x, y = _split(z)
        out = np.empty((len(z), 2, 2))
        out[:, 0, 0] = 6.0 * eps * x
        out[:, 0, 1] = out[:, 1, 0] = -6.0 * eps * y
        out[:, 1, 1] = -6.0 * eps * x
        return grad(z), out

    return value, grad, jet


def monkey_saddle(eps: float = 0.2) -> HamiltonianGerm:
    """H = eps (x^3 - 3 x y^2); degenerate saddle with identity linearization."""
    v, g, j = _monkey_parts(eps)
    return HamiltonianGerm(
        n=1,
        value=lambda t, z: v(z),
        grad=lambda t, z: g(z),
        jet=lambda t, z: j(z),
        name=f"monkey-saddle({eps})",
    )


def resonant_rotation(twist: float = 40.0, ring_radius: float = 0.15) -> HamiltonianGerm:
    """Rotation by 2 pi / 3 with a radial twist that revisits the resonance.

    With s = x^2 + y^2 the rotation number is rho(s) = 1/3 + twist s (s - s*)
    where s* = ring_radius^2, realized by
    H = -pi [ s/3 + twist (s^3/3 - s* s^2/2) ].

    The linearization rotates by exactly 2 pi / 3, so orders divisible by 3
    are inadmissible.  The cube of the map fixes the whole circle of radius
    ring_radius (rho returns to 1/3 there): a ring of genuine non-fixed
    3-periodic points.  Orders coprime to 3 see only the origin nearby,
    since rho stays close to 1/3 on small balls.
    """
    s_star = ring_radius**2

    def rho_terms(s):
        # dH/ds = -pi (1/3 + twist s (s - s_star))
        return -np.pi * (1.0 / 3.0 + twist * s * (s - s_star))

    def value(t, z):
        s = z[:, 0] ** 2 + z[:, 1] ** 2
        return -np.pi * (s / 3.0 + twist * (s**3 / 3.0 - s_star * s**2 / 2.0))

    def grad(t, z):
        s = (z[:, 0] ** 2 + z[:, 1] ** 2)[:, None]
        return 2.0 * rho_terms(s) * z

    def jet(t, z):
        s = z[:, 0] ** 2 + z[:, 1] ** 2
        d2 = -np.pi * twist * (2.0 * s - s_star)
        out = 4.0 * d2[:, None, None] * (z[:, :, None] * z[:, None, :])
        radial = 2.0 * rho_terms(s)
        out[:, 0, 0] += radial
        out[:, 1, 1] += radial
        return radial[:, None] * z, out

    return HamiltonianGerm(n=1, value=value, grad=grad, jet=jet, name="resonant-rotation")


def twisted_rotation(alpha: float = 0.3, beta: float = 2.0 * np.pi) -> HamiltonianGerm:
    """Radial germ H = -2 pi alpha rho - (beta/2) rho^2 with rho = (x^2+y^2)/2.

    Rotates the circle with rho = const counterclockwise by
    2 pi alpha + beta rho, so invariant circles resonate at explicitly
    computable radii; the fixed circle for the m-th resonance sits at
    rho = 2 pi (m - alpha) / beta and carries action beta rho^2 / 2.
    """

    def h_prime(rho):
        return -2.0 * np.pi * alpha - beta * rho

    def value(t, z):
        rho = 0.5 * (z[:, 0] ** 2 + z[:, 1] ** 2)
        return -2.0 * np.pi * alpha * rho - 0.5 * beta * rho**2

    def grad(t, z):
        rho = 0.5 * (z[:, 0] ** 2 + z[:, 1] ** 2)
        return h_prime(rho)[:, None] * z

    def jet(t, z):
        rho = 0.5 * (z[:, 0] ** 2 + z[:, 1] ** 2)
        out = -beta * (z[:, :, None] * z[:, None, :])
        radial = h_prime(rho)
        out[:, 0, 0] += radial
        out[:, 1, 1] += radial
        return radial[:, None] * z, out

    return HamiltonianGerm(n=1, value=value, grad=grad, jet=jet, name="twisted-rotation")


def morse_triple(eps: float = 0.05) -> HamiltonianGerm:
    """H = eps (x^4/4 - x^2/2 + y^2/2): rest points at 0 and (+-1, 0)."""

    def value(t, z):
        x, y = _split(z)
        return eps * (x**4 / 4.0 - x**2 / 2.0 + y**2 / 2.0)

    def grad(t, z):
        x, y = _split(z)
        return eps * np.stack([x**3 - x, y], axis=1)

    def jet(t, z):
        out = np.zeros((len(z), 2, 2))
        out[:, 0, 0] = eps * (3.0 * z[:, 0] ** 2 - 1.0)
        out[:, 1, 1] = eps
        return grad(t, z), out

    return HamiltonianGerm(n=1, value=value, grad=grad, jet=jet, name=f"morse-triple({eps})")


def direct_sum_germ(g1: HamiltonianGerm, g2: HamiltonianGerm) -> HamiltonianGerm:
    """Split germ H(z) = H1(z1) + H2(z2) in interleaved (x1, x2, y1, y2)
    coordinates.  It carries no callbacks: ``factors=(g1, g2)`` is the germ,
    and its flows are its factors' flows side by side."""
    return HamiltonianGerm(n=g1.n + g2.n, name=f"{g1.name}(+){g2.name}", factors=(g1, g2))


# ------------------------------------------------------------------ registries


@dataclass(frozen=True)
class GermEntry:
    name: str
    factory: Callable[[], HamiltonianGerm]
    box_radius: float
    summary: str


GERMS: Dict[str, GermEntry] = {
    e.name: e
    for e in [
        GermEntry("zero", zero_germ, 1.0, "identically zero Hamiltonian"),
        GermEntry(
            "rotation-a", lambda: linear_rotation(0.3183), 1.0, "irrational rotation, alpha=0.3183"
        ),
        GermEntry(
            "rotation-b", lambda: linear_rotation(0.4142), 1.0, "irrational rotation, alpha=0.4142"
        ),
        GermEntry("hyperbolic-2", lambda: hyperbolic(2.0), 1.0, "saddle, eigenvalues 2 and 1/2"),
        GermEntry(
            "negative-hyperbolic-2",
            lambda: negative_hyperbolic(2.0),
            1.0,
            "saddle with reflection, eigenvalues -2 and -1/2",
        ),
        GermEntry("shear", shear, 1.0, "unipotent shear (x, y) -> (x + y, y)"),
        GermEntry("quartic-max", lambda: quartic(-1), 0.8, "totally degenerate maximum"),
        GermEntry("quartic-min", lambda: quartic(+1), 0.8, "totally degenerate minimum"),
        GermEntry("monkey-saddle", monkey_saddle, 0.6, "degenerate saddle of order 3"),
        GermEntry(
            "resonant-rotation",
            resonant_rotation,
            0.25,
            "rotation by 2 pi/3 with a period-3 island chain",
        ),
        GermEntry(
            "twisted-rotation", twisted_rotation, 1.0, "radial twist with resonant circles"
        ),
        GermEntry("morse-triple", morse_triple, 1.4, "double well times harmonic factor"),
        GermEntry(
            "product-rot-rot",
            lambda: direct_sum_germ(linear_rotation(0.3183), linear_rotation(0.4142)),
            0.8,
            "4D split germ, two rotations",
        ),
        GermEntry(
            "product-rot-quartic",
            lambda: direct_sum_germ(linear_rotation(0.3183), quartic(-1)),
            0.8,
            "4D split germ, rotation times degenerate maximum",
        ),
    ]
}


@dataclass(frozen=True)
class FieldEntry:
    name: str
    m: int
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    summary: str


def _f_neg_r2(p):
    return -(p[:, 0] ** 2 + p[:, 1] ** 2)


def _g_neg_r2(p):
    return -2.0 * p


def _f_r2(p):
    return p[:, 0] ** 2 + p[:, 1] ** 2


def _g_r2(p):
    return 2.0 * p


def _f_saddle(p):
    return p[:, 0] ** 2 - p[:, 1] ** 2


def _g_saddle(p):
    return np.stack([2.0 * p[:, 0], -2.0 * p[:, 1]], axis=1)


def _f_cubic(p):
    x = p[:, 0]
    return x * x * x


def _g_cubic(p):
    return 3.0 * p[:, 0:1] ** 2


def _f_quartic_neg(p):
    x2, y2 = p[:, 0] * p[:, 0], p[:, 1] * p[:, 1]
    return -(x2 * x2 + y2 * y2) / 4.0


def _g_quartic_neg(p):
    return -(p * p * p)


FIELDS: Dict[str, FieldEntry] = {
    e.name: e
    for e in [
        FieldEntry("neg-r2", 2, _f_neg_r2, _g_neg_r2, "nondegenerate maximum"),
        FieldEntry("r2", 2, _f_r2, _g_r2, "nondegenerate minimum"),
        FieldEntry("saddle", 2, _f_saddle, _g_saddle, "nondegenerate saddle"),
        FieldEntry("cubic-1d", 1, _f_cubic, _g_cubic, "inflection on the line"),
        FieldEntry("monkey", 2, *_monkey_parts(1.0)[:2], "monkey saddle"),
        FieldEntry("quartic-neg", 2, _f_quartic_neg, _g_quartic_neg, "degenerate maximum"),
    ]
}
