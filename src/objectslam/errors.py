"""Exception types shared across the package."""


class InvalidRotationError(ValueError):
    """Matrix fails the orthonormality / determinant check."""


class LogDomainError(ValueError):
    """Rotation angle at or beyond the logarithm's principal domain."""


class DimensionMismatchError(ValueError):
    """Operands have inconsistent feature counts or ids."""


class UnknownFeatureError(KeyError):
    """Observation refers to a feature id not present in the state."""


class DuplicateFeatureError(ValueError):
    """Feature id is already part of the state."""


class IllConditionedInnovationError(RuntimeError):
    """Innovation covariance condition number exceeds the usable bound."""


class FilterDivergedError(RuntimeError):
    """A filter state checked during a run is unusable; carries the cause."""


class SingularCovarianceError(RuntimeError):
    """A covariance block required by a metric is singular."""


class MalformedRecordError(ValueError):
    """A measurement-log line cannot be parsed; carries the line number."""


class RankToleranceError(ValueError):
    """A relative rank tolerance that would count every direction as null."""


class MissingOdometryError(ValueError):
    """A measurement stream lacks odometry at a step and no synthesis noise was given."""
