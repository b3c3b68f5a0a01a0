"""Exception taxonomy for the reconstruction pipeline.

``ContractError`` marks misuse (bad dimensions, invalid inputs) and maps to
CLI exit code 2.  ``AlgorithmError`` subclasses mark typed failures of the
reconstruction itself on well-formed inputs and map to exit code 3.
"""


class ContractError(ValueError):
    """An argument violates a documented precondition."""


class AlgorithmError(Exception):
    """Base class for typed failures of the reconstruction algorithm."""

    # Smallest retained rho_A/rho_C eigenvalue spacing; None until both exist.
    min_spectral_gap: float | None = None


class NumericalError(AlgorithmError):
    """A dense linear-algebra primitive failed to converge or lost precision."""


class SpectrumMismatch(AlgorithmError):
    """Spectra that must coincide for marginals of one pure state do not."""


class GenericityViolation(AlgorithmError):
    """Degenerate eigenvalues make the reconstruction non-unique."""


class PhaseGraphDisconnected(AlgorithmError):
    """The phase-constraint graph leaves some phases undetermined."""


class PhaseInconsistency(AlgorithmError):
    """Redundant phase constraints disagree beyond tolerance."""


class ExpansionLeakage(AlgorithmError):
    """An eigenvector leaks out of the retained product eigenbasis."""


class MarginalInconsistency(AlgorithmError):
    """The two inputs disagree on the shared subsystem, or the output fails to reproduce them."""
