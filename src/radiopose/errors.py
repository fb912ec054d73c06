"""Exception types raised across the radiopose package.

A filter call over a leading run axis raises for the whole call when any
run fails; the caller that steps a batch of runs finds the failing runs by
taking the step again one run at a time (``simkit._track``). The bound
pipeline instead keeps a numerical failure in its row: a batch of poses or
powers marks a row whose gain block, state FIM or scaled bound fails as
unobservable, with NaN bounds, where an unbatched call raises.
"""


class RadioPoseError(Exception):
    """Base class for all radiopose errors."""


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
