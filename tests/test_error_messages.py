"""The class and message of each typed algorithm error, pinned at its raise site.

Reports and stderr carry these messages, so a refactor of the checks must
keep them.  Each case plants the one failure it names.
"""

import re

import numpy as np
import pytest

from tripure import (
    DensityMatrix,
    Dims,
    ExpansionLeakage,
    GenericityViolation,
    MarginalInconsistency,
    NumericalError,
    PhaseGraphDisconnected,
    PhaseInconsistency,
    SpectrumMismatch,
    coefficient_tensors,
    eig_hermitian,
    match_spectra,
    partial_trace,
    reconstruct_tripartite,
    solve_phases,
)
from tripure import reconstruct
from tripure.spectral import SpectralDecomposition

from conftest import haar, marginal_pair


def spec_of(vals):
    vals = np.asarray(vals, dtype=float)
    return SpectralDecomposition(vals, np.eye(len(vals), dtype=complex), len(vals), len(vals))


def raises_exactly(cls, message):
    return pytest.raises(cls, match="^" + re.escape(message) + "$")


def test_eigensolver_failure(monkeypatch):
    rho = DensityMatrix(("A",), (2,), np.eye(2) / 2.0)

    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    message = "eigensolver failed to converge: Eigenvalues did not converge"
    with raises_exactly(NumericalError, message):
        eig_hermitian(rho)


def test_degenerate_clusters():
    spec = spec_of([0.4, 0.4, 0.2])
    message = "first spectrum has degenerate clusters [[0, 1]] at tolerance 1.0e-08"
    with raises_exactly(GenericityViolation, message):
        match_spectra(spec, spec)


def test_paired_eigenvalues_differ():
    message = "paired eigenvalues differ by up to 1.000e-01 (> 1.0e-08)"
    with raises_exactly(SpectrumMismatch, message):
        match_spectra(spec_of([0.7, 0.3]), spec_of([0.6, 0.4]))


def test_expansion_leaks(product_state):
    # a Haar state's bipartite eigenvectors against the product state's rank-1 bases
    haar_state = haar(2, 2, 2, 5)
    single = [eig_hermitian(partial_trace(product_state, (s,))) for s in "ABC"]
    ab, bc = (eig_hermitian(rho) for rho in marginal_pair(haar_state))
    pattern = (
        r"^eigenvector expansion leaks \d\.\d{3}e[+-]\d\d of its weight outside the "
        r"retained product basis$"
    )
    with pytest.raises(ExpansionLeakage, match=pattern):
        coefficient_tensors(bc, ab, *single, Dims(2, 2, 2))


def test_all_edge_weights_vanish():
    message = "all edge weights vanish; no phase is determined"
    with raises_exactly(PhaseGraphDisconnected, message):
        solve_phases(np.zeros((2, 2)))


def test_phase_graph_disconnected():
    message = (
        "phase graph is disconnected: undetermined branch phases a[1] / c[1] "
        "(vanishing overlap coefficients)"
    )
    with raises_exactly(PhaseGraphDisconnected, message):
        solve_phases(np.eye(2))


def test_redundant_phase_constraints_disagree():
    message = (
        "redundant phase constraints disagree by 3.142e+00 rad (> 1.0e-06); "
        "inputs are not marginals of one pure state"
    )
    with raises_exactly(PhaseInconsistency, message):
        solve_phases(np.array([[1.0, 1.0], [1.0, -1.0]]))


def test_state_fails_to_reproduce_the_inputs(monkeypatch):
    psi = haar(2, 3, 4, 7)
    monkeypatch.setattr(reconstruct, "_marginal_residual", lambda state, rho: 1.0)
    message = (
        "reconstructed state fails to reproduce the inputs: residuals "
        "1.000e+00 / 1.000e+00 (> 1.0e-08)"
    )
    with raises_exactly(MarginalInconsistency, message):
        reconstruct_tripartite(*marginal_pair(psi), psi.dims)
