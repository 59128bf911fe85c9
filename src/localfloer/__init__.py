"""Iteration invariants of isolated fixed points of Hamiltonian germs.

The package computes, at desk scale, the invariants attached to an
isolated fixed point of a Hamiltonian diffeomorphism germ and how they
behave under iteration: rotation-quantity and index functions of
symplectic paths, admissible and good iteration orders, generating
functions of close-to-identity maps, local Morse homology over Z2 on
cubical grids, local Floer-type graded ranks with their shift law, the
sharp zero-mean L1 constant c(k) with a Newton search for nearby
periodic points, and a scenario-driven command line runner over a
corpus of model germs.

Each module's ``__all__`` decides its share of the package surface; the
package re-exports those lists in module order.
"""
from .errors import LocalFloerError
from . import symplectic, paths, germs, fields, genfun
from . import cubical, invariants, isolation, corpus, scenarios
from .symplectic import *
from .paths import *
from .germs import *
from .fields import *
from .genfun import *
from .cubical import *
from .invariants import *
from .isolation import *
from .corpus import *
from .scenarios import *

__version__ = "0.1.0"

__all__ = [
    "LocalFloerError",
    *symplectic.__all__,
    *paths.__all__,
    *germs.__all__,
    *fields.__all__,
    *genfun.__all__,
    *cubical.__all__,
    *invariants.__all__,
    *isolation.__all__,
    *corpus.__all__,
    *scenarios.__all__,
    "__version__",
]
