"""Exception types raised across the radiopose package."""

import numpy as np


class RadioPoseError(Exception):
    """Base class for all radiopose errors.

    ``rows`` is None when the error concerns the whole call. A call over a
    leading run axis that fails in some runs only names them in ``rows``
    (``in_rows``), so that the caller can drop those runs and go on with
    the others.
    """

    rows = None


def in_rows(error: RadioPoseError, failing) -> RadioPoseError:
    """``error`` with ``rows`` set to the flat indices where the boolean array
    ``failing`` holds; an unbatched (0-d) ``failing``, or one that holds
    nowhere, leaves the error to the whole call."""
    if np.ndim(failing) and np.count_nonzero(failing):
        error.rows = np.flatnonzero(failing)
    return error


class NotSkew(RadioPoseError):
    """Input matrix is not skew-symmetric within tolerance."""


class NearPiRotation(RadioPoseError):
    """Rotation angle too close to pi for a well-conditioned SE(3) log."""


class CoincidentPositions(RadioPoseError):
    """Transmitter and receiver positions coincide; geometry undefined."""


class PolarSingularity(RadioPoseError):
    """Direction vector too close to +/-z for the azimuth/elevation chart."""


class UnobservableState(RadioPoseError):
    """State FIM is rank deficient; geometry does not pin down the 6D state."""


class SingularNuisanceBlock(UnobservableState):
    """Nuisance (gain) block of the FIM is singular even after regularization,
    as when the signal carries no information."""


class SingularNormalEquations(RadioPoseError):
    """Gauss-Newton normal equations are singular."""


class SingularInnovationCovariance(RadioPoseError):
    """Innovation covariance cannot be inverted in the Kalman update."""


class GimbalLock(RadioPoseError):
    """Euler-angle pitch within guard band of +/-pi/2."""


class LengthMismatch(RadioPoseError):
    """Paired sequences have different lengths."""


class ConfigError(RadioPoseError):
    """Scenario configuration file is missing keys, has unknown ones, or fails validation."""
