"""Exception types shared across the toolkit."""


class CdmlfcError(Exception):
    """Base class for toolkit errors."""


class ZeroCoefficient(CdmlfcError):
    """A polynomial coefficient required to be nonzero is zero."""


class InvalidGamma(CdmlfcError):
    """Stability indices must be strictly positive."""


class SingularSystem(CdmlfcError):
    """The Sylvester synthesis system is rank-deficient, or its target overflows floats."""


class UnstableDesign(CdmlfcError):
    """A controller set's design loop is not Hurwitz."""


class ImproperController(CdmlfcError):
    """Controller numerator degree exceeds denominator degree."""


class NonFiniteState(CdmlfcError):
    """Simulation state became non-finite (diverged)."""

    def __init__(self, time, detail=""):
        self.time = time
        super().__init__(f"non-finite state at t={time:.6g} s{': ' + detail if detail else ''}")


class ObjectiveFailure(CdmlfcError):
    """Cost callback returned a non-finite value."""


class ConfigError(CdmlfcError):
    """Run configuration failed schema validation."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
