"""Finite-grid spatial tomography: recover psi(x, y, z) from two planar densities.

A wavefunction sampled on an n_x * n_y * n_z grid is treated as a tripartite
state with X -> A, Y -> B, Z -> C.  The planar densities are Riemann-sum
discretizations of the continuum projections, rescaled to trace one, and the
grid reconstruction simply delegates to the tripartite pipeline.  Smooth
wavefunctions have rapidly decaying marginal spectra, so near-degenerate
eigenvalues surface here as GenericityViolation rather than silent noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .reconstruct import ReconstructionConfig, reconstruct_tripartite
from .states import (
    DensityMatrix,
    Dims,
    PureState,
    _array,
    _choice,
    _entries,
    _instance,
    _integer,
    _positive_real,
    partial_trace,
)

GRID_NORM_TOL = 1e-9
MAX_GRID_POINTS = 4096

PROFILES = ("separable", "correlated", "symmetric")


def _grid_shape(shape) -> tuple[int, int, int]:
    return _entries("shape", shape, _integer, 3)


def _grid_spacings(spacings) -> tuple[float, float, float]:
    """Three spacings as Python floats; each must be a positive finite real."""
    return _entries("spacings", spacings, _positive_real, 3)


@dataclass(frozen=True)
class GridWavefunction:
    """Complex samples on a rectangular grid, flattened x-slowest, z-fastest.

    Normalized in the discrete L2 sense: sum |psi|^2 * h_x h_y h_z = 1.
    """

    shape: tuple[int, int, int]
    spacings: tuple[float, float, float]
    values: np.ndarray

    def __post_init__(self):
        shape = _grid_shape(self.shape)
        spacings = _grid_spacings(self.spacings)
        vals = _array("values", self.values, (shape[0] * shape[1] * shape[2],))
        norm_sq = float((np.abs(vals) ** 2).sum() * np.prod(spacings))
        if abs(norm_sq - 1.0) > GRID_NORM_TOL:
            raise ContractError(f"discrete L2 norm^2 is {norm_sq!r}, expected 1")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "spacings", spacings)
        object.__setattr__(self, "values", vals)

    @property
    def measure(self) -> float:
        return float(np.prod(self.spacings))


def normalize_grid(shape, spacings, raw_values) -> GridWavefunction:
    """Build a GridWavefunction from unnormalized samples."""
    spacings = _grid_spacings(spacings)
    raw = _array("raw_values", raw_values).reshape(-1)
    norm = np.sqrt((np.abs(raw) ** 2).sum() * np.prod(spacings))
    if norm <= 0.0:
        raise ContractError("cannot normalize identically zero samples")
    return GridWavefunction(shape, spacings, raw / norm)


def grid_fidelity(g1: GridWavefunction, g2: GridWavefunction) -> float:
    """|<g1|g2>|^2 under the discrete L2 inner product."""
    _instance("g1", g1, GridWavefunction)
    if _instance("g2", g2, GridWavefunction).shape != g1.shape or g2.spacings != g1.spacings:
        raise ContractError("grids differ in shape or spacing")
    return float(abs(np.vdot(g1.values, g2.values) * g1.measure) ** 2)


def planar_density(psi: GridWavefunction, plane: str) -> DensityMatrix:
    """Riemann-sum planar projection of |psi><psi|, rescaled to trace one.

    ``plane`` is "XY" (integrate out z, subsystems A and B) or "YZ"
    (integrate out x, subsystems B and C).  Rescaled to trace one, the sum
    is the partial trace of the unit vector ``values / ||values||`` (the
    spacings cancel), and that is how it is computed.
    """
    psi = _instance("psi", psi, GridWavefunction)
    keep = {"XY": "AB", "YZ": "BC"}[_choice("plane", plane, ("XY", "YZ"))]
    values = psi.values / np.linalg.norm(psi.values)
    return partial_trace(PureState(Dims(*psi.shape), values), keep)


def reconstruct_grid(
    rho_xy: DensityMatrix,
    rho_yz: DensityMatrix,
    shape,
    spacings,
    config: ReconstructionConfig | None = None,
) -> GridWavefunction:
    """Recover the grid wavefunction from its two planar densities.

    Maps X -> A, Y -> B, Z -> C and delegates to the tripartite pipeline;
    raises the same typed errors.  The returned wavefunction matches the
    original up to a global phase whenever the planar spectra are generic.
    """
    spacings = _grid_spacings(spacings)
    shape = _grid_shape(shape)
    report = reconstruct_tripartite(rho_xy, rho_yz, Dims(*shape), config)
    values = report.state.amplitudes / np.sqrt(float(np.prod(spacings)))
    return GridWavefunction(shape, spacings, values)


def default_spacings(shape) -> tuple[float, float, float]:
    """Spacings placing each axis on [-3.2, 3.2] regardless of point count."""
    shape = _grid_shape(shape)
    if any(n < 2 for n in shape):
        raise ContractError(f"profiles need at least 2 points per axis, got {shape!r}")
    return tuple(6.4 / (n - 1) for n in shape)


def _axes(shape, spacings):
    return [
        (np.arange(n) - (n - 1) / 2.0) * h
        for n, h in zip(shape, spacings)
    ]


def build_profile(name: str, shape, spacings=None) -> GridWavefunction:
    """Construct one of the named demo wavefunctions on the given grid.

    separable   product of three offset Gaussian wavepackets; every planar
                density has rank one.
    correlated  Gaussian with moderate cross-axis couplings and a complex
                phase ramp; generic, well separated planar spectra.
    symmetric   equal-weight sum of two orthonormal branches whose z factors
                are the even and odd parts of an off-center Gaussian; the Z
                marginal has an exactly degenerate eigenvalue pair, so
                reconstruction must refuse.
    """
    name = _choice("name", name, PROFILES)
    shape = _grid_shape(shape)
    if shape[0] * shape[1] * shape[2] > MAX_GRID_POINTS:
        raise ContractError(
            f"grid has {shape[0] * shape[1] * shape[2]} points, cap is {MAX_GRID_POINTS}"
        )
    spacings = default_spacings(shape) if spacings is None else _grid_spacings(spacings)
    xs, ys, zs = _axes(shape, spacings)
    x = xs[:, None, None]
    y = ys[None, :, None]
    z = zs[None, None, :]

    if name == "separable":
        fx = np.exp(-0.5 * ((xs - 0.3) / 1.1) ** 2 + 0.20j * xs)
        gy = np.exp(-0.5 * ((ys + 0.2) / 0.9) ** 2 - 0.15j * ys)
        qz = np.exp(-0.5 * ((zs - 0.1) / 1.3) ** 2 + 0.10j * zs)
        raw = fx[:, None, None] * gy[None, :, None] * qz[None, None, :]
    elif name == "correlated":
        # Couplings strong enough that every single-axis marginal keeps a
        # full, well-separated spectrum; weak coupling drops eigenvalues
        # into the rank-truncation window and destabilizes the expansion.
        quad = (
            1.40 * x**2 + 1.61 * y**2 + 1.26 * z**2
            + 2.0 * (1.05 * x * y + 0.8925 * y * z + 0.3675 * x * z)
        )
        ramp = 0.23 * x - 0.11 * y + 0.17 * z + 0.12 * x * y - 0.09 * y * z
        raw = np.exp(-0.5 * quad + 1j * ramp)
    else:  # "symmetric"
        gauss_x = np.exp(-0.5 * (xs / 1.0) ** 2)
        gauss_y = np.exp(-0.5 * (ys / 1.2) ** 2)
        f1 = np.outer(gauss_x, gauss_y)
        f1 = f1 / np.linalg.norm(f1)
        f2 = np.outer(xs * gauss_x, gauss_y + 0.3 * ys * gauss_y)
        f2 = f2 - (f1.reshape(-1).conj() @ f2.reshape(-1)) * f1
        f2 = f2 / np.linalg.norm(f2)
        # even / odd parts of a Gaussian centered at z = 1.1; exactly
        # orthogonal on the symmetric grid, giving the Z marginal the
        # eigenvalue pair (1/2, 1/2).
        bump = np.exp(-0.5 * ((zs - 1.1) / 0.8) ** 2)
        h_even = bump + bump[::-1]
        h_even = h_even / np.linalg.norm(h_even)
        h_odd = bump - bump[::-1]
        h_odd = h_odd - (h_even.conj() @ h_odd) * h_even
        h_odd = h_odd / np.linalg.norm(h_odd)
        raw = (
            f1[:, :, None] * h_even[None, None, :]
            + f2[:, :, None] * h_odd[None, None, :]
        ) / np.sqrt(2.0)
    return normalize_grid(shape, spacings, raw)
