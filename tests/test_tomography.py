import numpy as np
import pytest

from tripure import (
    ContractError,
    GenericityViolation,
    GridWavefunction,
    build_profile,
    grid_fidelity,
    normalize_grid,
    planar_density,
    reconstruct_grid,
)
from tripure.tomography import default_spacings

from oracles import planar_density_loops

SHAPE = (8, 8, 8)
SPACINGS = default_spacings(SHAPE)


def product_grid():
    xs, ys, zs = [(np.arange(n) - (n - 1) / 2.0) * h for n, h in zip(SHAPE, SPACINGS)]
    f = np.exp(-0.5 * (xs - 0.4) ** 2)
    g = np.exp(-0.5 * ((ys + 0.3) / 1.2) ** 2)
    q = np.exp(-0.5 * (zs / 0.9) ** 2 + 0.3j * zs)
    return normalize_grid(SHAPE, SPACINGS, np.einsum("x,y,z->xyz", f, g, q))


class TestGridWavefunction:
    def test_norm_enforced(self):
        with pytest.raises(ContractError):
            GridWavefunction(SHAPE, SPACINGS, np.ones(512, dtype=complex))

    def test_normalize_grid(self):
        psi = product_grid()
        total = (np.abs(psi.values) ** 2).sum() * psi.measure
        assert abs(total - 1.0) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            GridWavefunction((2, 2, 2), (1.0, 1.0, 1.0), np.ones(9, dtype=complex))


class TestPlanarDensity:
    def test_separable_is_rank_one(self):
        rho = planar_density(product_grid(), "XY")
        vals = np.linalg.eigvalsh(rho.matrix)
        assert vals[-1] == pytest.approx(1.0, abs=1e-10)
        assert abs(vals[:-1]).max() <= 1e-12

    @pytest.mark.parametrize("plane", ["XY", "YZ"])
    def test_trace_one(self, plane):
        psi = build_profile("correlated", SHAPE, SPACINGS)
        rho = planar_density(psi, plane)
        assert abs(np.trace(rho.matrix) - 1.0) <= 1e-10

    @pytest.mark.parametrize("plane", ["XY", "YZ"])
    def test_matches_loop_oracle(self, plane):
        psi = build_profile("correlated", SHAPE, SPACINGS)
        rho = planar_density(psi, plane)
        expected = planar_density_loops(psi.values, SHAPE, SPACINGS, plane)
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)

    def test_subsystem_labels(self):
        psi = product_grid()
        assert planar_density(psi, "XY").subsystems == ("A", "B")
        assert planar_density(psi, "YZ").subsystems == ("B", "C")

    def test_unknown_plane(self):
        with pytest.raises(ContractError):
            planar_density(product_grid(), "XZ")


class TestReconstructGrid:
    def test_separable_round_trip(self):
        psi = build_profile("separable", SHAPE, SPACINGS)
        rec = reconstruct_grid(
            planar_density(psi, "XY"), planar_density(psi, "YZ"), SHAPE, SPACINGS
        )
        assert grid_fidelity(psi, rec) >= 1.0 - 1e-10

    def test_correlated_round_trip(self):
        psi = build_profile("correlated", SHAPE, SPACINGS)
        rec = reconstruct_grid(
            planar_density(psi, "XY"), planar_density(psi, "YZ"), SHAPE, SPACINGS
        )
        assert grid_fidelity(psi, rec) >= 1.0 - 1e-6

    def test_symmetric_profile_refused(self):
        psi = build_profile("symmetric", SHAPE, SPACINGS)
        with pytest.raises(GenericityViolation):
            reconstruct_grid(
                planar_density(psi, "XY"), planar_density(psi, "YZ"), SHAPE, SPACINGS
            )

    def test_smaller_grid_round_trip(self):
        shape = (6, 5, 7)
        spacings = default_spacings(shape)
        psi = build_profile("correlated", shape, spacings)
        rec = reconstruct_grid(
            planar_density(psi, "XY"), planar_density(psi, "YZ"), shape, spacings
        )
        assert grid_fidelity(psi, rec) >= 1.0 - 1e-6


class TestProfiles:
    def test_symmetric_z_marginal_degenerate(self):
        from tripure import eig_hermitian, partial_trace

        psi = build_profile("symmetric", SHAPE, SPACINGS)
        rho_z = partial_trace(planar_density(psi, "YZ"), ("C",))
        spec = eig_hermitian(rho_z)
        assert spec.rank == 2
        assert abs(spec.eigenvalues[0] - 0.5) <= 1e-12
        assert abs(spec.eigenvalues[1] - 0.5) <= 1e-12

    def test_unknown_profile(self):
        with pytest.raises(ContractError):
            build_profile("vortex", SHAPE, SPACINGS)

    def test_grid_cap(self):
        with pytest.raises(ContractError):
            build_profile("separable", (17, 16, 16))

    def test_default_spacings_match_axis_span(self):
        assert default_spacings((8, 8, 8)) == pytest.approx((6.4 / 7,) * 3)


class TestGridBoundary:
    @pytest.mark.parametrize("bad", [(True, 2, 4), (2.9, 2, 2), ("2", "2", "2")])
    def test_rejects_non_integer_shape(self, bad):
        with pytest.raises(ContractError, match="must be a positive integer"):
            GridWavefunction(bad, (1.0, 1.0, 1.0), np.full(8, 1 / np.sqrt(8), dtype=complex))

    def test_rejects_nan_value(self):
        values = np.full(8, 1 / np.sqrt(8), dtype=complex)
        values[3] = np.nan
        with pytest.raises(ContractError, match="non-finite"):
            GridWavefunction((2, 2, 2), (1.0, 1.0, 1.0), values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_spacing(self, bad):
        values = np.full(8, 1 / np.sqrt(8), dtype=complex)
        with pytest.raises(ContractError, match="spacings"):
            GridWavefunction((2, 2, 2), (1.0, bad, 1.0), values)

    def test_normalize_grid_rejects_inf_sample(self):
        raw = np.ones(8, dtype=complex)
        raw[5] = np.inf
        with pytest.raises(ContractError, match="non-finite"):
            normalize_grid((2, 2, 2), (1.0, 1.0, 1.0), raw)

    def test_grid_fidelity_rejects_grids_of_different_shape(self):
        flat = normalize_grid((2, 2, 2), (1.0, 1.0, 1.0), np.ones(8, dtype=complex))
        long = normalize_grid((2, 2, 4), (1.0, 1.0, 1.0), np.ones(16, dtype=complex))
        with pytest.raises(ContractError) as caught:
            grid_fidelity(flat, long)
        assert type(caught.value) is ContractError
        assert str(caught.value) == "grids differ in shape or spacing"


# Spacings that float() would have coerced or let through to a misleading
# error; every entry point names the bad entry instead.
BAD_SPACINGS = [(1.0, True, 1.0), (1.0, "1.0", 1.0), (1.0, 0.0, 1.0), (1.0, -0.5, 1.0)]


class TestSpacingChecks:
    @pytest.mark.parametrize("bad", BAD_SPACINGS)
    def test_grid_wavefunction(self, bad):
        values = np.full(8, 1 / np.sqrt(8), dtype=complex)
        with pytest.raises(ContractError, match=r"spacings\[1\] must be a positive finite real"):
            GridWavefunction((2, 2, 2), bad, values)

    @pytest.mark.parametrize("bad", BAD_SPACINGS)
    def test_normalize_grid(self, bad):
        with pytest.raises(ContractError, match=r"spacings\[1\] must be a positive finite real"):
            normalize_grid((2, 2, 2), bad, np.ones(8))

    @pytest.mark.parametrize("bad", BAD_SPACINGS)
    def test_build_profile(self, bad):
        with pytest.raises(ContractError, match=r"spacings\[1\] must be a positive finite real"):
            build_profile("separable", (4, 4, 4), bad)

    @pytest.mark.parametrize("bad", [(1.0, True, 1.0), (1.0, "1.0", 1.0)])
    def test_reconstruct_grid(self, bad):
        psi = product_grid()
        rho_xy, rho_yz = planar_density(psi, "XY"), planar_density(psi, "YZ")
        with pytest.raises(ContractError, match=r"spacings\[1\] must be a positive finite real"):
            reconstruct_grid(rho_xy, rho_yz, SHAPE, bad)


class TestShapeChecks:
    @pytest.mark.parametrize("bad", [(2.9, 2, 2), (True, 2, 2), ("2", "2", "2")])
    def test_build_profile(self, bad):
        with pytest.raises(ContractError, match="must be a positive integer"):
            build_profile("separable", bad)

    @pytest.mark.parametrize("bad", [(2.9, 2, 2), (True, 2, 2), ("2", "2", "2")])
    def test_default_spacings(self, bad):
        with pytest.raises(ContractError, match="must be a positive integer"):
            default_spacings(bad)
