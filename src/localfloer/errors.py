"""Exception types shared across the package.

Every error raised on a contract violation derives from LocalFloerError so
callers can catch the library's failures in one clause without swallowing
programming errors.
"""


class LocalFloerError(Exception):
    """Base class for all contract violations raised by this package."""


# ---------------------------------------------------------------- linear algebra


class NotSymplectic(LocalFloerError):
    """Matrix fails the symplectic identity M^T J M = J beyond tolerance."""


class ClusterAmbiguous(LocalFloerError):
    """Two eigenvalue clusters sit too close for a reliable classification."""


class NotAdmissible(LocalFloerError):
    """The requested iteration order is excluded by a root-of-unity eigenvalue."""


# ---------------------------------------------------------------- path indices


class WindingUnresolved(LocalFloerError):
    """Bisection hit the sample cap or float resolution before the winding settled."""


class DegenerateEndpoint(LocalFloerError):
    """Endpoint has an eigenvalue too close to 1 for an integer index."""


class KreinDegenerate(LocalFloerError):
    """The invariant Hermitian form is numerically degenerate on an eigenspace."""


# ---------------------------------------------------------------- flows


class StepFailure(LocalFloerError):
    """The adaptive integrator could not meet the requested tolerance, met a
    right-hand side that is not finite, or did not finish within budget."""


class NewtonDivergence(LocalFloerError):
    """Newton iteration failed to converge within the iteration budget."""


class NotClosed(LocalFloerError):
    """Action requested for a sample sequence that does not close up."""


class NonIsolated(LocalFloerError):
    """A fixed point, periodic point or critical point is not isolated at the working scale."""


class SearchTooLarge(LocalFloerError):
    """A periodic-point search whose Newton matrices would not fit its memory budget."""


# ---------------------------------------------------------------- generating functions


class NotInvertibleOnBox(LocalFloerError):
    """The mixed-coordinate map psi is not invertible on the requested box."""


class NotC1Small(LocalFloerError):
    """Map is not C^1-close enough to the identity for the requested operation."""


class ClosednessDefect(LocalFloerError):
    """Recovered gradient field fails the plaquette closedness gate."""


# ---------------------------------------------------------------- cubical homology


class CriticalValueInWindow(LocalFloerError):
    """A spurious near-critical value lies inside the sublevel collar window."""


class NotStabilized(LocalFloerError):
    """Homology ranks disagree across the two finest grid resolutions."""


# ---------------------------------------------------------------- invariant assembly


class RouteUnavailable(LocalFloerError):
    """No computation route applies to the given fixed-point record."""


class HypothesisFailed(LocalFloerError):
    """A quantitative hypothesis of the homology bridge failed its check."""


class ShiftAmbiguous(LocalFloerError):
    """More than one degree shift aligns two graded rank vectors."""


# ---------------------------------------------------------------- scenarios / CLI


class ScenarioError(LocalFloerError):
    """Scenario file malformed: unknown keys, bad schema, or bad values."""


class ParseError(ScenarioError):
    """Scenario file is not valid JSON; the message names the offending line."""


class UnknownFormula(ScenarioError):
    """Requested corpus formula id is not registered."""


class MissingReport(ScenarioError):
    """Plot emission asked for report files that do not exist."""
