"""Exception types shared across the package."""


class ResiduaError(Exception):
    """Base class for mathematically meaningful failures."""


class InfiniteMultiplicityError(ResiduaError):
    """The two curves share a component through the point."""


class DegenerateFoliationError(ResiduaError):
    """The one-form has a common factor, so its zero set is not finite."""


class UnsupportedInputError(ResiduaError):
    """The computation is out of scope for the implemented methods."""


class RootFindingError(ResiduaError):
    """Numeric root finding failed its residual certificate: the worst
    residual |f(z)| exceeds bound, f of the given degree, max|z| max_abs."""

    def __init__(self, degree: int, max_abs: float, residual: float,
                 bound: float):
        super().__init__(
            f"Durand-Kerner residual {residual:.3e} exceeds {bound:.3e} "
            f"(degree {degree}, max |z| {max_abs:.3e})")
        self.degree = degree
        self.max_abs = max_abs
        self.residual = residual
        self.bound = bound


class NonIntegralMultiplicityError(ArithmeticError):
    """A Jacobian residue, held in value, that should be a multiplicity
    is not a nonnegative integer: a defect of the package, not the input."""

    def __init__(self, value):
        super().__init__(
            f"Jacobian residue {value} is not a nonnegative integer")
        self.value = value
