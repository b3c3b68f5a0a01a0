"""Independent brute-force reference implementations used as test oracles.

Everything here works by explicit scalar loops and flat-index arithmetic,
or by a dense einsum the package no longer uses, so that it shares no code
path with the package implementation it checks.
"""

import numpy as np


def partial_trace_pure_loops(amplitudes, dims, keep_labels):
    """Reduced density matrix of a pure state by direct summation.

    ``dims`` is (d_a, d_b, d_c); ``keep_labels`` a subset of "ABC" in order.
    Index (i, j, k) maps to (i * d_b + j) * d_c + k, matching the package
    convention, but the summation below is written from scratch.
    """
    d = dict(zip("ABC", dims))
    keep = [lab for lab in "ABC" if lab in keep_labels]
    traced = [lab for lab in "ABC" if lab not in keep]
    keep_dim = int(np.prod([d[lab] for lab in keep]))
    out = np.zeros((keep_dim, keep_dim), dtype=complex)

    def flat(idx):
        return (idx["A"] * d["B"] + idx["B"]) * d["C"] + idx["C"]

    def kept_flat(idx):
        val = 0
        for lab in keep:
            val = val * d[lab] + idx[lab]
        return val

    ranges = {lab: range(d[lab]) for lab in "ABC"}
    for ka in ranges["A"]:
        for kb in ranges["B"]:
            for kc in ranges["C"]:
                for la in ranges["A"]:
                    for lb in ranges["B"]:
                        for lc in ranges["C"]:
                            row = {"A": ka, "B": kb, "C": kc}
                            col = {"A": la, "B": lb, "C": lc}
                            if any(row[lab] != col[lab] for lab in traced):
                                continue
                            out[kept_flat(row), kept_flat(col)] += (
                                amplitudes[flat(row)] * np.conj(amplitudes[flat(col)])
                            )
    return out


def bc_overlaps_loops(bc_vectors, b_vectors, c_vectors, d_b, d_c):
    """Overlap tensor <j k | i;BC> by scalar loops.

    ``bc_vectors`` has columns of length d_b * d_c (index b * d_c + c),
    ``b_vectors`` / ``c_vectors`` columns of length d_b / d_c.
    """
    r_bc = bc_vectors.shape[1]
    r_b = b_vectors.shape[1]
    r_c = c_vectors.shape[1]
    out = np.zeros((r_bc, r_b, r_c), dtype=complex)
    for i in range(r_bc):
        for j in range(r_b):
            for k in range(r_c):
                acc = 0.0 + 0.0j
                for b in range(d_b):
                    for c in range(d_c):
                        acc += (
                            np.conj(b_vectors[b, j])
                            * np.conj(c_vectors[c, k])
                            * bc_vectors[b * d_c + c, i]
                        )
                out[i, j, k] = acc
    return out


def ab_overlaps_loops(ab_vectors, a_vectors, b_vectors, d_a, d_b):
    """Overlap tensor <i j | k;AB> by scalar loops."""
    r_ab = ab_vectors.shape[1]
    r_a = a_vectors.shape[1]
    r_b = b_vectors.shape[1]
    out = np.zeros((r_ab, r_a, r_b), dtype=complex)
    for k in range(r_ab):
        for i in range(r_a):
            for j in range(r_b):
                acc = 0.0 + 0.0j
                for a in range(d_a):
                    for b in range(d_b):
                        acc += (
                            np.conj(a_vectors[a, i])
                            * np.conj(b_vectors[b, j])
                            * ab_vectors[a * d_b + b, k]
                        )
                out[k, i, j] = acc
    return out


def coefficient_tensors_einsum(spec_bc, spec_ab, spec_a, spec_b, spec_c, dims):
    """(bc_overlaps, ab_overlaps) by the three-operand einsum, without the leak check.

    This is the contraction ``coefficient_tensors`` used before it formed
    the overlaps by batched matmul.
    """
    d_a, d_b, d_c = dims
    w_bc = spec_bc.eigenvectors.T.reshape(spec_bc.rank, d_b, d_c)
    bc = np.einsum("bj,ibc,ck->ijk", spec_b.eigenvectors.conj(), w_bc, spec_c.eigenvectors.conj())
    w_ab = spec_ab.eigenvectors.T.reshape(spec_ab.rank, d_a, d_b)
    ab = np.einsum("ai,kab,bj->kij", spec_a.eigenvectors.conj(), w_ab, spec_b.eigenvectors.conj())
    return bc, ab


def symmetrized_marginal_residual(amplitudes, dims, keep_labels, rho_matrix):
    """||(P + P^dag) / 2 - rho||_F for the marginal P of a pure state on ``keep_labels``.

    ``keep_labels`` is "AB" or "BC".  This is how the reconstruction scored
    its output before it scored the unsymmetrized marginal.
    """
    t = np.asarray(amplitudes).reshape(dims)
    if keep_labels == "AB":
        p = np.einsum("abc,dec->abde", t, t.conj())
    else:
        p = np.einsum("abc,ade->bcde", t, t.conj())
    n = rho_matrix.shape[0]
    p = p.reshape(n, n)
    return float(np.linalg.norm((p + p.conj().T) / 2.0 - rho_matrix))


def phase_edges_loops(bc_overlaps, ab_overlaps):
    """Edge-weight array by scalar loops over the shared B index."""
    r_a = ab_overlaps.shape[1]
    r_b = ab_overlaps.shape[2]
    r_c = ab_overlaps.shape[0]
    out = np.zeros((r_a, r_c), dtype=complex)
    for i in range(r_a):
        for k in range(r_c):
            acc = 0.0 + 0.0j
            for j in range(r_b):
                acc += np.conj(bc_overlaps[i, j, k]) * ab_overlaps[k, i, j]
            out[i, k] = acc
    return out


def planar_density_loops(values, shape, spacings, plane):
    """Planar projection by scalar loops, trace-normalized."""
    n_x, n_y, n_z = shape
    h_x, h_y, h_z = spacings

    def flat(ix, iy, iz):
        return (ix * n_y + iy) * n_z + iz

    if plane == "XY":
        n = n_x * n_y
        out = np.zeros((n, n), dtype=complex)
        for ix in range(n_x):
            for iy in range(n_y):
                for jx in range(n_x):
                    for jy in range(n_y):
                        acc = 0.0 + 0.0j
                        for iz in range(n_z):
                            acc += values[flat(ix, iy, iz)] * np.conj(
                                values[flat(jx, jy, iz)]
                            )
                        out[ix * n_y + iy, jx * n_y + jy] = acc * h_z
    elif plane == "YZ":
        n = n_y * n_z
        out = np.zeros((n, n), dtype=complex)
        for iy in range(n_y):
            for iz in range(n_z):
                for jy in range(n_y):
                    for jz in range(n_z):
                        acc = 0.0 + 0.0j
                        for ix in range(n_x):
                            acc += values[flat(ix, iy, iz)] * np.conj(
                                values[flat(ix, jy, jz)]
                            )
                        out[iy * n_z + iz, jy * n_z + jz] = acc * h_x
    else:
        raise ValueError(plane)
    return out / np.trace(out).real


def haar_unitary(dim, rng):
    """Haar-distributed unitary via QR with phase-fixed diagonal."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def min_spectral_gap_reference(amplitudes, dims, rank_threshold):
    """Smallest spacing among retained rho_A and rho_C eigenvalues.

    The distance from the smallest retained eigenvalue down to zero counts
    as a gap too, so rank-1 spectra report a finite value.  Eigenvalues at
    or below ``rank_threshold`` are not retained.
    """
    gaps = []
    for label in ("A", "C"):
        rho = partial_trace_pure_loops(amplitudes, dims, label)
        vals = np.linalg.eigh(rho)[0][::-1]
        vals = vals[vals > rank_threshold]
        gaps.extend(-np.diff(vals))
        gaps.append(vals[-1])
    return float(min(gaps))


def psd_refusal_cholesky(m, psd_tol=1e-9):
    """The refusal message of the Cholesky-then-eigvalsh PSD rule for Hermitian ``m``, or None.

    The rule accepts ``m`` when ``m + psd_tol * I`` has a Cholesky factor;
    otherwise it refuses ``m`` when its smallest eigenvalue is below
    ``-psd_tol``.  It is the rule ``DensityMatrix`` used before PSD could be
    certified from a range sketch.
    """
    try:
        np.linalg.cholesky(m + psd_tol * np.eye(m.shape[0]))
    except np.linalg.LinAlgError:
        lam_min = np.linalg.eigvalsh(m)[0]
        if lam_min < -psd_tol:
            return f"matrix is not positive semidefinite: lambda_min = {lam_min:.3e}"
    return None


def data_text_every_float(a):
    """The canonical data text of a complex vector or matrix, formatting every float.

    One ``"%.16e"`` per float, pair by pair in scalar loops: one pair per
    line for a vector, one row per line for a matrix.  It is the layout
    that ``serialize``'s numpy writer must reproduce byte for byte.
    """

    def pair(z):
        return "[%.16e, %.16e]" % (z.real, z.imag)

    if a.ndim == 1:
        lines = ["    " + pair(z) for z in a]
    else:
        lines = ["    [" + ", ".join(pair(z) for z in row) + "]" for row in a]
    return "[\n" + ",\n".join(lines) + "\n  ]"
