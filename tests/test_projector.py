import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import roots_legendre

import hillproj as hp
from hillproj import potential as pot
from hillproj import projector as prj
from hillproj.operator import HillMatrix, _band, _reflector, _tridiagonalize

BC = hp.BoundaryCondition
PI = math.pi
EPS = np.finfo(float).eps


class TestFreeProjection:
    def test_per_plus_diagonal(self):
        basis = hp.basis_for(BC.PER_PLUS, 8)
        P0 = prj.free_projection(basis, 4)
        expect = np.zeros((basis.size, basis.size))
        expect[basis.position(4), basis.position(4)] = 1
        expect[basis.position(-4), basis.position(-4)] = 1
        assert np.array_equal(P0, expect)
        assert np.trace(P0) == 2.0

    def test_dirichlet_rank_one(self):
        basis = hp.basis_for(BC.DIRICHLET, 8)
        P0 = prj.free_projection(basis, 3)
        assert np.trace(P0) == 1.0 and P0[2, 2] == 1.0

    def test_out_of_basis(self):
        basis = hp.basis_for(BC.PER_PLUS, 8)
        with pytest.raises(prj.IndexOutOfBasis):
            prj.free_projection(basis, 10)


class TestRieszProjection:
    def test_zero_potential_is_exact(self):
        H = hp.assemble(BC.PER_PLUS, pot.zero(), 40)
        pair = hp.riesz_projection(H, 8)
        assert np.abs(pair.B).max() < 1e-12
        assert abs(pair.trace - 2) < 1e-12
        assert pair.idempotency < 1e-12

    def test_matches_dense_eigendecomposition(self):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 64)
        pair = hp.riesz_projection(H, 10)
        dense = prj.spectral_projector_dense(H, 10)
        assert np.linalg.norm(pair.P - dense, "fro") < 1e-7
        assert abs(pair.trace - 2) < 1e-6
        assert pair.idempotency < 1e-8

    def test_dirichlet_trace_one(self):
        H = hp.assemble(BC.DIRICHLET, pot.delta_comb(0.5, max_index=128), 48)
        pair = hp.riesz_projection(H, 12)
        assert abs(pair.trace - 1) < 1e-6

    def test_near_commutation(self):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 64)
        pair = hp.riesz_projection(H, 8)
        comm = np.linalg.norm(pair.P @ H.L - H.L @ pair.P, "fro")
        assert comm <= 1e-6 * np.linalg.norm(H.L, "fro")

    def test_orthogonality_of_distinct_levels(self):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 64)
        p10 = hp.riesz_projection(H, 10)
        p12 = hp.riesz_projection(H, 12)
        assert np.linalg.norm(p10.P @ p12.P, "fro") < 1e-7

    def test_parity_rejected(self):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 64)
        with pytest.raises(ValueError):
            hp.riesz_projection(H, 9)

    def test_truncation_too_small(self):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 32)
        with pytest.raises(prj.TruncationTooSmall):
            hp.riesz_projection(H, 10)

    def test_out_of_basis(self):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 32)
        with pytest.raises(prj.IndexOutOfBasis):
            hp.riesz_projection(H, 40)
        with pytest.raises(prj.IndexOutOfBasis):  # the radius-0 circle is no level
            hp.riesz_projection(H, 0)

    def test_eigenvalue_near_contour_refused(self):
        # v0 = 10 shifts the level-10 cluster onto the contour |z - 100| = 10
        bad = pot.from_coeffs(10.0, [(2, 0.25), (-2, -0.25)])
        H = hp.assemble(BC.PER_PLUS, bad, 64)
        with pytest.raises(prj.EigenvalueOnContour):
            hp.riesz_projection(H, 10)

    def test_gate_messages_of_a_level(self):
        # decay.json lists these texts under its errors map
        p = pot.from_coeffs(10.0, [(2, 0.25), (-2, -0.25)])
        with pytest.raises(prj.EigenvalueOnContour) as on:
            hp.riesz_projection(hp.assemble(BC.PER_PLUS, p, 64), 10)
        assert str(on.value) == "eigenvalue within 0.05*radius of |z-(100+0j)|=10.0"
        with pytest.raises(prj.RankMismatch) as count:
            hp.riesz_projection(hp.assemble(BC.PER_PLUS, p, 48), 8)
        assert str(count.value) == "0 eigenvalue(s) in |z-(64+0j)|<8.0, expected 2 for per+"


def full_inverse_projection(H, n, radius, nodes, center=None):
    """Reference: the ``nodes``-node trapezoid sum on |z - c| = radius,
    c = ``center`` or n^2, every node inverting z - L densely."""
    c, R = complex(n * n if center is None else center), float(radius)
    ident = np.eye(H.size, dtype=complex)
    acc = np.zeros((H.size, H.size), dtype=complex)
    for u in np.exp(2j * np.pi * np.arange(nodes) / nodes):
        acc += u * np.linalg.inv((c + R * u) * ident - H.L)
    return (R / nodes) * acc


NON_HERMITIAN = [(2, 0.5), (-2, 0.1j), (4, 0.2 - 0.3j)]
# real coefficients, w(-m) != w(m): a real non-Hermitian L (float64)
REAL_NON_HERMITIAN = [(2, 0.5), (-2, 0.1), (4, 0.2)]
# w(-m) = -conj(w(m)): a real potential with a complex Hermitian L, whose
# projections are not real
COMPLEX_HERMITIAN = [(2, 0.3 + 0.4j), (-2, -0.3 + 0.4j), (4, 0.1j), (-4, 0.1j)]
LEVELS = [(BC.PER_PLUS, 10), (BC.PER_MINUS, 9), (BC.DIRICHLET, 8)]


def gallery_potential(pname):
    return {"mathieu": lambda: pot.mathieu(1.0),
            "delta": lambda: pot.delta_comb(0.5, max_index=512),
            "complex": lambda: pot.from_coeffs(0.3 + 0.2j, NON_HERMITIAN),
            "tridiagonal": lambda: pot.from_coeffs(0.3 + 0.2j, NON_HERMITIAN[:2]),
            "zero": pot.zero}[pname]()


def solve_moments(H, cols, zs, ws):
    """Reference: sum_j w_j [(z_j - L)^-1 E, (z_j - L)^-T E], one dense solve each."""
    E = np.eye(H.size)[:, cols]
    acc = np.zeros((H.size, 2 * len(cols)), dtype=complex)
    for z, w in zip(zs, ws):
        A = z * np.eye(H.size) - H.L
        acc += w * np.hstack([np.linalg.solve(A, E), np.linalg.solve(A.T, E)])
    return acc


def check_moments(H, M, M_ref, r):
    """X against the (z - L)^-1 reference, and the reflected X against the
    (z - L)^-T reference, for every matrix.

    The lattice symmetry L^T = J L J (per+-, J the index reversal) or
    L^T = L (Dirichlet) holds node by node, so the reflection matches the
    transpose solves for arbitrary weights, not only for projections.
    """
    assert M.shape == (H.size, r)
    Y = M[::-1, ::-1] if H.basis.bc.is_periodic_family else M
    for got, ref in ((M, M_ref[:, :r]), (Y, M_ref[:, r:])):
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def band_matrix(band, h):
    """Dense A from the sweep operands of ``operator._band``."""
    N, b1 = band.shape
    A = np.zeros((N, N), dtype=complex)
    for t in range(b1):  # band[k, t] = -A[k - b + t, k]
        k = np.arange(max(0, b1 - 1 - t), N)
        A[k - (b1 - 1) + t, k] = -band[k, t]
    A[np.arange(1, N), np.arange(N - 1)] = -h
    return A


class TestHessenbergResolvent:
    """The Hessenberg reduction and the shifted Givens sweep of ``_moments``."""

    @pytest.mark.parametrize("pname", ["mathieu", "delta", "complex", "zero"])
    @pytest.mark.parametrize("bc", [BC.PER_PLUS, BC.PER_MINUS, BC.DIRICHLET])
    def test_reduction(self, pname, bc):
        # Q is checked only through the reflector apply: no N x N Q is kept
        H = hp.assemble(bc, gallery_potential(pname), 48)
        band, h, panels = H.hessenberg()
        assert H.hessenberg()[0] is band  # cached
        A = band_matrix(band, h)
        if H.hermitian:
            # the form of a Hermitian L is tridiagonal, and every array the
            # reduction keeps has at most a panel's columns
            assert band.shape == (H.size, 2)
            assert all(a.shape[1] <= 32 for _, V, T in panels for a in (V, T))
        eye = np.eye(H.size)
        Q = H.apply_q(eye)
        assert np.linalg.norm(H.apply_q(Q, adjoint=True) - eye) <= 1e-13  # Q^H Q = I
        QAQh = H.apply_q(H.apply_q(A.conj().T).conj().T)  # Q (Q A^H)^H
        assert np.linalg.norm(QAQh - H.L) <= 1e-13 * np.linalg.norm(H.L)
        if pname == "zero":
            # L is diagonal: every reflector is skipped, and none is kept
            assert panels == () and np.array_equal(A, H.L)
            assert np.array_equal(Q, eye)

    @pytest.mark.parametrize("dtype", [complex, float])
    @pytest.mark.parametrize("N", [33, 70, 97, 300])
    def test_blocked_tridiagonalization_across_panels(self, N, dtype):
        # a dense Hermitian L spans several 32-column panels, and the last
        # panel can be short; at N = 300 the trailing updates span several
        # row blocks.  The tridiagonal form keeps L's eigenvalues,
        # and a real symmetric L keeps real arithmetic
        rng = np.random.default_rng(N)
        M = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        L = M + M.conj().T if dtype is complex else M.real + M.real.T
        d, e, reflectors = _tridiagonalize(L)
        assert e.dtype == dtype and all(V.dtype == t.dtype == dtype for _, V, t in reflectors)
        A = np.diag(d) + np.diag(e, -1) + np.diag(e.conj(), 1)
        ev = np.linalg.eigvalsh(L)
        assert np.abs(np.linalg.eigvalsh(A) - ev).max() <= 1e-13 * np.abs(ev).max()
        # every reflector leaves a real beta; the last entry needs no reflector
        assert not e[:-1].imag.any()
        assert [o for o, _, _ in reflectors] == list(range(1, N - 1, 32))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_row_blocks_match_one_product_per_column(self, dtype):
        # N = 300 puts up to three 128-row blocks in each trailing update,
        # the last one short; LAPACK's unblocked zhetd2 updates the whole
        # trailing block by one rank-2 product per column.  Entries of the
        # form are not well conditioned: on this real L the one-product
        # panel update and the row blocks already differ by 1.2e-12 ||L||
        N = 300
        rng = np.random.default_rng(N)
        M = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        L = M + M.conj().T if dtype is complex else M.real + M.real.T
        A = L.copy()
        e = np.empty(N - 1, dtype=dtype)
        for k in range(N - 1):
            v, tau, e[k] = _reflector(A[k + 1:, k])
            if v is not None:
                w = tau * (A[k + 1:, k + 1:] @ v)
                w -= (0.5 * tau * np.vdot(w, v)) * v
                A[k + 1:, k + 1:] -= np.outer(v, w.conj()) + np.outer(w, v.conj())
        d_blk, e_blk, _ = _tridiagonalize(L)
        tol = 1e-11 * np.linalg.norm(L, 2)
        assert np.abs(d_blk - A.diagonal().real).max() <= tol
        assert np.abs(e_blk - e).max() <= tol

    def test_reduction_peak_memory(self):
        # the trailing update took one (N - k1)^2 product, 2.13 L.nbytes at
        # its peak, and 128-row blocks 1.57 (the copy of L, the kept
        # reflectors and one panel's V, W and block product)
        N = 1025
        M = np.random.default_rng(N).standard_normal((N, N))
        L = M + M.T
        tracemalloc.start()
        try:
            _tridiagonalize(L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * L.nbytes, peak / L.nbytes

    @pytest.mark.parametrize("pname,bc,real", [
        ("delta", BC.PER_PLUS, True), ("mathieu", BC.DIRICHLET, True),
        ("complex_hermitian", BC.PER_PLUS, False), ("complex", BC.PER_PLUS, False),
    ])
    def test_operands_keep_the_dtype_of_L(self, pname, bc, real):
        p = (pot.from_coeffs(0.0, COMPLEX_HERMITIAN) if pname == "complex_hermitian"
             else gallery_potential(pname))
        H = hp.assemble(bc, p, 48)
        dtype = float if real else complex
        band, h, panels = H.hessenberg()
        assert H.L.dtype == dtype and panels
        assert all(a.dtype == dtype for a in (band, h, *(a for _, V, T in panels for a in (V, T))))
        rng = np.random.default_rng(7)
        X = rng.standard_normal((H.size, 3))
        for X in (X, X + 1j * rng.standard_normal(X.shape)):  # a complex X stays complex
            QhX = H.apply_q(X, adjoint=True)
            assert QhX.dtype == np.result_type(X, dtype)
            assert np.linalg.norm(H.apply_q(QhX) - X) <= 1e-13 * np.linalg.norm(X)

    def test_guard_never_reads_the_reduction(self):
        # the guard counts eigenvalues of L itself (eigvalsh/eigvals), so it
        # stays independent of the quadrature's reduction
        for p in (gallery_potential("delta"), gallery_potential("complex")):
            H = hp.assemble(BC.PER_PLUS, p, 48)
            assert prj.validated_levels(H, range(2, 13)) == [2, 4, 6, 8, 10, 12]
            assert H._hess is None

    @pytest.mark.parametrize("count", [1, prj._NODE_BLOCK + 3])
    @pytest.mark.parametrize("pname", ["mathieu", "delta", "complex", "zero"])
    @pytest.mark.parametrize("bc,n", LEVELS)
    def test_moments_vs_dense_solve(self, pname, bc, n, count):
        H = hp.assemble(bc, gallery_potential(pname), 48)
        cols = np.array(sorted(H.basis.position(k) for k in (n, -n)[:bc.rank]))
        rng = np.random.default_rng(count)
        zs = n * n + n * np.exp(2j * PI * (np.arange(count) + 0.25) / count)
        ws = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        M = prj._moments(H, cols[None], zs, ws, np.zeros(count, int))
        assert M.shape == (1, H.size, len(cols))
        M_ref = solve_moments(H, cols, zs, ws)
        check_moments(H, M[0], M_ref, len(cols))

    @pytest.mark.parametrize("pname", ["delta", "complex"])
    @pytest.mark.parametrize("counts", [(50, 50, 50), (prj._NODE_BLOCK,) * 3, (7, 130, 3)])
    def test_groups_share_the_sweep(self, pname, counts):
        # three levels' nodes in one call, any count per level: with 50
        # nodes each, the first chunk of 128 ends inside the third level;
        # with (7, 130, 3) the second level spans both chunks
        H = hp.assemble(BC.PER_PLUS, gallery_potential(pname), 48)
        ns = (6, 8, 10)
        cols = np.array([sorted(H.basis.position(k) for k in (n, -n)) for n in ns])
        zs = [n * n + n * np.exp(2j * PI * (np.arange(q) + 0.25) / q) for n, q in zip(ns, counts)]
        rng = np.random.default_rng(5)
        ws = [rng.standard_normal(q) + 0j for q in counts]
        M = prj._moments(H, cols, np.concatenate(zs), np.concatenate(ws),
                         np.repeat(np.arange(3), counts))
        assert M.shape == (3, H.size, 2)
        for g in range(3):
            check_moments(H, M[g], solve_moments(H, cols[g], zs[g], ws[g]), 2)


def banded_hessenberg(rng, N, b):
    """A random complex upper Hessenberg N x N matrix of upper bandwidth b."""
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    off = np.arange(N)[None, :] - np.arange(N)[:, None]  # j - i
    A[(off < -1) | (off > b)] = 0.0
    return A


class TestBandSweep:
    """The Givens sweep on the band of the Hessenberg form."""

    @pytest.mark.parametrize("b", [0, 1, 3, 11])
    def test_sweep_vs_dense_solve(self, b):
        N, r, Q = 12, 2, 5
        rng = np.random.default_rng(b)
        A = banded_hessenberg(rng, N, b)
        band, h = _band(A)
        assert band.shape == (N, b + 1)  # b read from the exact zeros
        # one set of right-hand sides per shift, index-major: N x r x Q
        rhs = rng.standard_normal((N, r, Q)) + 1j * rng.standard_normal((N, r, Q))
        zs = 3.0 * np.exp(2j * PI * (np.arange(Q) + 0.25) / Q)
        x = prj._hessenberg_sweep(band, h, rhs.copy(), zs)
        assert x.shape == (N, r, Q)
        for j, z in enumerate(zs):
            ref = np.linalg.solve(z * np.eye(N) - A, rhs[:, :, j])
            assert np.linalg.norm(x[:, :, j] - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("b", [0, 1, 3])
    def test_band_keeps_the_dense_arithmetic(self, b):
        # rows outside the band only ever add exact zeros, so padding the
        # band to the dense width b = N - 1 changes no bit of the result
        N = 12
        rng = np.random.default_rng(10 + b)
        band, h = _band(banded_hessenberg(rng, N, b))
        dense = np.pad(band, ((0, 0), (N - 1 - b, 0)))
        rhs = rng.standard_normal((N, 1, 4)) + 0j
        zs = 2.0 + np.exp(2j * PI * np.arange(4) / 4)
        assert np.array_equal(prj._hessenberg_sweep(band, h, rhs.copy(), zs),
                              prj._hessenberg_sweep(dense, h, rhs.copy(), zs))

    @pytest.mark.parametrize("pname,bc,b", [
        ("delta", BC.PER_PLUS, 1),  # Hermitian: tridiagonal form
        ("tridiagonal", BC.PER_PLUS, 1),  # tridiagonal L: every reflector skipped
        ("complex", BC.PER_PLUS, 48),  # dense non-Hermitian form, b = N - 1
        ("mathieu", BC.DIRICHLET, 1),  # Hermitian: tridiagonal form
    ])
    def test_moments_on_the_band(self, pname, bc, b):
        H = hp.assemble(bc, gallery_potential(pname), 48)
        assert H.hermitian == (pname in ("delta", "mathieu"))
        band = H.hessenberg()[0]  # cached with the reflectors, once per matrix
        assert band.shape[1] == b + 1
        n = 10
        cols = np.array(sorted(H.basis.position(k) for k in (n, -n)[:bc.rank]))
        zs = n * n + n * np.exp(2j * PI * (np.arange(20) + 0.25) / 20)
        ws = np.random.default_rng(3).standard_normal(20) + 0j
        check_moments(H, prj._moments(H, cols[None], zs, ws, np.zeros(20, int))[0],
                      solve_moments(H, cols, zs, ws), len(cols))

    @pytest.mark.parametrize("p,bc,tol", [
        (pot.delta_comb(0.5, max_index=512), BC.PER_PLUS, None),
        # w(-m) = -conj(w(m)): a real potential with a complex Hermitian L,
        # whose projections are not real
        (pot.from_coeffs(0.0, [(2, 0.3 + 0.4j), (-2, -0.3 + 0.4j), (4, 0.1j), (-4, 0.1j)]),
         BC.PER_PLUS, None),
        # the eigenvector matrix of this L has condition 4e4: the dense
        # oracle lies 1.35e-12 from the dense inverse node sum on this
        # circle, which the quadrature matches to 5e-15
        (pot.from_coeffs(0.3 + 0.2j, NON_HERMITIAN), BC.PER_PLUS, 1e-11),
        (pot.mathieu(1.0), BC.DIRICHLET, None),
    ], ids=["delta-per+", "complex_hermitian-per+", "non_hermitian-per+", "mathieu-dir"])
    def test_off_axis_circle_on_hermitian_matrix(self, p, bc, tol):
        # Y = X[p][:, s] rests on the lattice symmetry L^T = L[p][:, p],
        # which holds node by node, not on the symmetry of the contour: a
        # circle centred off the real axis has no conjugate node pairs; a
        # Hermitian L is held to its certified estimate (tol None)
        H = hp.assemble(bc, p, 64)
        cols = prj._level_cols(H, 10)
        pair, = prj._circle_rules(H, [prj._circle(H, 10, cols, 100 + 4j, 10.0)])
        dense = prj.spectral_projector_dense(H, 10)
        assert pair.converged and H.hermitian == (tol is None)
        assert np.linalg.norm(pair.P - dense, "fro") <= (tol or pair.quad_error_est)


class TestRankEngineVsFullInverse:
    """The rank-r moment formula against the dense node sum it replaced."""

    @pytest.mark.parametrize("pname", ["mathieu", "delta"])
    @pytest.mark.parametrize("bc,n", [(BC.PER_PLUS, 10), (BC.PER_MINUS, 9),
                                      (BC.DIRICHLET, 8)])
    def test_gallery(self, pname, bc, n):
        p = pot.mathieu(1.0) if pname == "mathieu" else pot.delta_comb(0.5, max_index=512)
        H = hp.assemble(bc, p, 64)
        pair = hp.riesz_projection(H, n)
        assert H.hermitian and pair.converged
        # one sweep at the certified count: the dense node sum at that
        # count, X Y^T rebuilt from its columns E and rows E^T
        P_Q = full_inverse_projection(H, n, pair.radius, pair.nodes_used)
        PE, cols = P_Q[:, pair.cols], pair.cols
        assert np.linalg.norm(pair.P - PE @ np.linalg.solve(PE[cols], P_Q[cols])) <= 1e-12
        dense = prj.spectral_projector_dense(H, n)
        assert np.linalg.norm(pair.P - dense) <= pair.quad_error_est <= prj._TOL

    def test_non_hermitian_potential(self):
        p = pot.from_coeffs(0.3 + 0.2j, [(2, 0.5), (-2, 0.1j), (4, 0.2 - 0.3j)])
        H = hp.assemble(BC.PER_PLUS, p, 64)
        assert np.abs(H.L - H.L.T).max() > 0.1  # L^T != L, so Y differs from X
        pair = hp.riesz_projection(H, 8)
        # one sweep at the certified count and radius: the dense node sum there
        P_Q = full_inverse_projection(H, 8, pair.radius, pair.nodes_used)
        assert np.linalg.norm(pair.P - P_Q, "fro") <= 1e-13
        P_ref = full_inverse_projection(H, 8, pair.radius, 64)
        assert np.linalg.norm(pair.P - P_ref, "fro") <= pair.quad_error_est <= prj._TOL
        # fewer nodes than the 32 of the doubling rule this count replaced,
        # on C_8 itself: the kappa of 1.9e4 in the disc lifts the floor past R
        assert pair.converged and pair.nodes_used < 32 and pair.radius == 8.0

    def test_empty_disc_raises(self):
        # v0 = 10 moves the level-8 pair to about 74, outside |z - 64| < 8
        p = pot.from_coeffs(10.0, [(2, 0.25), (-2, -0.25)])
        H = hp.assemble(BC.PER_PLUS, p, 48)
        assert prj.eigen_count_in_disc(H, 8) == 0
        with pytest.raises(prj.RankMismatch):
            hp.riesz_projection(H, 8)

    def test_unconverged_flag(self, monkeypatch):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 64)
        Hc = hp.assemble(BC.PER_PLUS, gallery_potential("complex"), 64)
        assert hp.riesz_projection(H, 8).converged and hp.riesz_projection(Hc, 8).converged
        monkeypatch.setattr(prj, "_TOL", 1e-30)
        monkeypatch.setattr(prj, "_MAX_NODES", 32)
        # no count up to _MAX_NODES certifies 1e-30 (the Hermitian filter
        # reaches it near 58 nodes, the kappa-weighted one later): both
        # stop at _MAX_NODES, unconverged
        for M in (H, Hc):
            pair = hp.riesz_projection(M, 8)
            assert pair.converged is False and pair.nodes_used == 32


class TestRieszProjections:
    """The plural form against the one-level form, level by level."""

    @pytest.mark.parametrize("pname,bc,levels", [
        ("delta", BC.PER_PLUS, range(2, 13, 2)),
        ("delta", BC.PER_MINUS, range(1, 12, 2)),
        ("mathieu", BC.DIRICHLET, range(1, 13)),
        ("complex", BC.PER_PLUS, range(2, 13, 2)),  # NON_HERMITIAN
    ])
    def test_matches_the_one_level_form(self, pname, bc, levels):
        H = hp.assemble(bc, gallery_potential(pname), 48)
        pairs, errors = hp.riesz_projections(H, levels)
        assert list(pairs) == [n for n in levels if n not in errors] and len(pairs) >= 6
        for n, pair in pairs.items():
            one = hp.riesz_projection(H, n)
            for got, ref in ((pair.X, one.X), (pair.Y, one.Y)):
                assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
            assert np.array_equal(pair.cols, one.cols)
            assert np.abs(pair.X[pair.cols] - np.eye(len(pair.cols))).max() <= 1e-12
            assert (pair.nodes_used, pair.converged, pair.guard_margin) == (
                one.nodes_used, one.converged, one.guard_margin)
        # each level at its own certified count, not all at the same one
        assert len({pair.nodes_used for pair in pairs.values()}) > 1

    def test_bad_levels_stay_per_level(self):
        # v0 = 10 puts level 10 on its contour; 18 needs half-width 72
        p = pot.from_coeffs(10.0, [(2, 0.25), (-2, -0.25)])
        H = hp.assemble(BC.PER_PLUS, p, 64)
        pairs, errors = hp.riesz_projections(H, [10, 12, 14, 16, 18])
        assert list(pairs) == [12, 14, 16] and list(errors) == [10, 18]
        assert {n: f"{type(e).__name__}: {e}" for n, e in errors.items()} == {
            10: "EigenvalueOnContour: eigenvalue within 0.05*radius of |z-(100+0j)|=10.0",
            18: "TruncationTooSmall: half-width 64 < 4*n = 72; resolvent accuracy "
                "degrades when the contour approaches the truncation edge"}
        for n, pair in pairs.items():
            one = hp.riesz_projection(H, n)
            assert np.linalg.norm(pair.X - one.X) <= 1e-12 * np.linalg.norm(one.X)
            assert pair.converged and pair.nodes_used == one.nodes_used
        with pytest.raises(prj.EigenvalueOnContour):
            hp.riesz_projection(H, 10)
        assert hp.riesz_projections(H, []) == ({}, {})

    def test_levels_share_the_sweeps(self, monkeypatch):
        # the decay-per matrix: 26 levels, each at its certified count of
        # 8 to 11 nodes, go through in ceil(136 / 128) = 2 sweeps, not one
        # (or more) per level, and in one round; L is real, so a level
        # sweeps Q // 2 + 1 of its Q nodes (136 solves for 233 nodes)
        H = hp.assemble(BC.PER_PLUS, pot.delta_comb(0.5, max_index=1024), 256)
        real, calls = prj._hessenberg_sweep, []

        def counted(band, h, rhs, zs):
            calls.append(len(zs))
            return real(band, h, rhs, zs)

        monkeypatch.setattr(prj, "_hessenberg_sweep", counted)
        pairs, errors = hp.riesz_projections(H, range(10, 61, 2))
        assert len(pairs) == 26 and not errors
        used = [pair.nodes_used for pair in pairs.values()]
        assert used == [c[6] for c in prj._level_circles(H, range(10, 61, 2))[0]]
        assert min(used) == 8 and max(used) == 11 and sum(used) == 233
        assert H.L.dtype == float and sum(q // 2 + 1 for q in used) == 136
        assert calls == [prj._NODE_BLOCK, 136 - prj._NODE_BLOCK]


def level_matrix(values, coupling=0.0, n=10, half_width=48):
    """Per+ L, diagonal k^2 but for the pairs +-k at ``values[k]`` (in
    pairs, to keep L^T = J L J), with e_n and e_-n coupled by ``coupling``."""
    basis = hp.basis_for(BC.PER_PLUS, half_width)
    diag0 = np.array([float(k * k) for k in basis.indices])
    V = np.zeros((basis.size, basis.size))
    for k, value in values.items():
        for i in (basis.position(k), basis.position(-k)):
            V[i, i] = value - k * k
    i, j = basis.position(n), basis.position(-n)
    V[i, j] = V[j, i] = coupling
    return HillMatrix(basis, np.diag(diag0) + V)


def nonnormal_level_matrix(eps, lam=65.0, mu=78.0, n=8, m=10, half_width=48):
    """Per+ L, diagonal k^2 but for the block V diag(lam, mu) V^-1,
    V = [[1, 1 - eps], [1, 1]], on e_n, e_m and its transpose on e_-n,
    e_-m (to keep L^T = J L J).  lam and mu have kappa of about 2 / eps,
    yet every column of X is (1, 1) or (1, eps - 1): ||X|| = sqrt(2)."""
    basis = hp.basis_for(BC.PER_PLUS, half_width)
    L = np.diag([float(k * k) for k in basis.indices])
    V = np.array([[1.0, 1.0 - eps], [1.0, 1.0]])
    B = V @ np.diag([lam, mu]) @ np.linalg.inv(V)
    for ks, block in (((n, m), B), ((-n, -m), B.T)):
        i = [basis.position(k) for k in ks]
        L[np.ix_(i, i)] = block
    return HillMatrix(basis, L)


class TestIntegrationCircle:
    """Each level is gated on C_n = {|z - n^2| = n} and integrated on
    |z - n^2| = rho <= n, gated to hold the same eigenvalues."""

    @pytest.mark.parametrize("pname,bc,n", [
        ("delta", BC.PER_PLUS, 10), ("delta", BC.PER_MINUS, 9),
        ("mathieu", BC.DIRICHLET, 8),
        ("complex", BC.PER_PLUS, 8), ("complex", BC.PER_PLUS, 12),  # NON_HERMITIAN
    ])
    def test_matches_the_dense_gate_circle_sum(self, pname, bc, n, monkeypatch):
        # P is fixed by the eigenvalues inside C_n, not by the circle: the
        # small-circle pair is the dense node sum on C_n itself
        H = hp.assemble(bc, gallery_potential(pname), 64)
        pair = hp.riesz_projection(H, n)
        P_ref = full_inverse_projection(H, n, n, 128)
        # the certified estimate bounds the pair's distance from P, for every L
        distance = np.linalg.norm(pair.P - P_ref, "fro")
        assert distance <= pair.quad_error_est <= prj._TOL and pair.converged
        if not H.hermitian:
            assert distance <= 1e-12  # as the doubling rule's pairs did
        # the margin is C_n's; radius and rate follow from the same
        # eigenvalues, the floor from the largest kappa inside C_n too
        dist = np.abs(H.eigenvalues() - n * n)
        assert pair.guard_margin == np.abs(dist - n).min() / n
        d_in, d_out = dist[dist < n].max(), dist[dist >= n].min()
        lam, kappa = H.eigenvalue_conditions()
        kappa_in = 1.0 if kappa is None else kappa[np.abs(lam - n * n) < n].max()
        floor = d_in + 2 * kappa_in * EPS * np.abs(H.eigenvalues()).max() / prj._TOL
        rho = min(max(np.sqrt(d_in * d_out), floor), n)
        assert pair.radius == pytest.approx(rho, rel=1e-14)
        assert pair.rate == pytest.approx(max(d_in / rho, rho / d_out), rel=1e-14)
        # NON_HERMITIAN level 8 holds a kappa of 1.9e4: its floor passes R
        assert (pair.radius == n) == (kappa_in > 1e4)
        if pair.radius < n:  # then the certified count on C_n itself is larger
            monkeypatch.setattr(prj, "_radius", lambda d_in, d_out, R, floor: R)
            on_c_n = prj._circle(H, n, pair.cols, complex(n * n), float(n))
            assert on_c_n[3] == n and pair.nodes_used < on_c_n[6] and pair.radius < n / 2

    @pytest.mark.parametrize("bc,n", LEVELS)
    def test_zero_potential(self, bc, n):
        # d_in = 0: the rounding floor alone sets rho = 2 eps max k^2 / _TOL
        H = hp.assemble(bc, pot.zero(), 48)
        pair = hp.riesz_projection(H, n)
        d_out = min(abs(k * k - n * n) for k in H.basis.indices if k * k != n * n)
        rho = 2 * EPS * max(k * k for k in H.basis.indices) / prj._TOL
        assert pair.radius == pytest.approx(rho, rel=1e-14)
        assert pair.rate == pytest.approx(rho / d_out, rel=1e-14)
        err = np.linalg.norm(pair.P - prj.free_projection(H.basis, n), "fro")
        assert err <= pair.quad_error_est <= prj._TOL

    def test_guard_edge_window_falls_back_to_c_n(self, monkeypatch):
        # d_in = 0.949n and d_out = 1.051n pass the 5% guard on C_n, but the
        # geometric-mean circle keeps only 1 - sqrt(d_in / d_out) = 0.0498,
        # so the level integrates on C_n
        d_in, d_out = 9.49, 10.51
        H = level_matrix({10: 100 + d_in, 8: 100 - d_out})
        cols = prj._level_cols(H, 10)
        assert prj._circle(H, 10, cols, 100, 10.0)[3:5] == (10.0, pytest.approx(0.051))
        with pytest.raises(prj.EigenvalueOnContour):
            prj._circle(H, 10, cols, 100, np.sqrt(d_in * d_out))
        pair = hp.riesz_projection(H, 10)  # a pair on C_n, not an error
        monkeypatch.setattr(prj, "_radius", lambda d_in, d_out, R, floor: R)
        on_c_n = hp.riesz_projection(H, 10)
        assert pair.radius == 10.0 and np.array_equal(pair.X, on_c_n.X)
        assert pair.rate == pytest.approx(10 / d_out)
        # every circle the guard admits here has a rate near 0.95: the
        # certified count is about log(_TOL / 4) / log(0.9515) = 490 nodes
        assert 450 < pair.nodes_used < prj._MAX_NODES and pair.converged
        err = np.linalg.norm(pair.P - prj.free_projection(H.basis, 10), "fro")
        assert err <= pair.quad_error_est <= prj._TOL

    def test_too_small_radius_is_refused(self, monkeypatch):
        # the level pair coupled into 99 and 105: a circle of radius 3
        # about 100 keeps 1 of the 2 eigenvalues of C_n
        H = level_matrix({10: 102.0}, coupling=3.0)
        assert sorted(H.eigenvalues()[np.abs(H.eigenvalues() - 100) < 10]) == \
            pytest.approx([99.0, 105.0])
        assert hp.riesz_projection(H, 10).converged
        monkeypatch.setattr(prj, "_radius", lambda d_in, d_out, R, floor: 3.0)
        with pytest.raises(prj.RankMismatch):
            hp.riesz_projection(H, 10)


class TestConditionWeights:
    """Non-Hermitian L: ``_nodes`` weights the filter term of each
    eigenvalue by its condition number kappa = ||v|| ||w||, w^H v = 1."""

    def test_dropping_kappa_misses_the_bound(self, monkeypatch):
        # lam = 60 inside C_8 (twice, with its mirror) and mu = 80 outside,
        # both with kappa 20; C = 2 sqrt(2) + 2 does not see kappa, so
        # only the weights carry it.  A larger kappa hides the mutation:
        # the rounding term grows like kappa^2, the miss like kappa
        H = nonnormal_level_matrix(0.1, lam=60.0, mu=80.0)
        vals, kappa = H.eigenvalue_conditions()
        inside = np.abs(vals - 64) < 8
        assert not H.hermitian and np.count_nonzero(inside) == 2
        assert kappa[inside].min() > 15 and kappa[np.abs(vals - 80) < 1e-6].min() > 15
        pair = hp.riesz_projection(H, 8)
        P_ref = full_inverse_projection(H, 8, pair.radius, 256)
        assert np.linalg.norm(pair.X, 2) == pytest.approx(np.sqrt(2))
        assert pair.converged and np.linalg.norm(pair.P - P_ref) <= pair.quad_error_est
        # kappa = 1: the same eigenvalues with unit eigenvectors; the pair
        # misses by 1.7 times its estimate
        monkeypatch.setattr(H, "eigenvalue_conditions", lambda: (vals, np.ones(H.size)))
        blind = hp.riesz_projection(H, 8)
        assert blind.radius == pair.radius and blind.nodes_used < pair.nodes_used
        assert np.linalg.norm(blind.P - P_ref) > 1.4 * blind.quad_error_est

    def test_jordan_block_widens_the_circle(self, monkeypatch):
        # w(m) = 0 for m < 0: L is triangular with eigenvalues exactly k^2,
        # and 4 is a Jordan block of size 2 (kappa 1e15 from eig()).  With
        # d_in = 0 the kappa-free floor would shrink the circle to
        # 2 eps max|lambda| / _TOL = 0.0045, where the resolvent grows like
        # (z - 4)^-2 and the solves lose about 1e-9; kappa_in lifts the
        # floor past R, and on C_2 the pair meets _TOL
        H = hp.assemble(BC.PER_PLUS, pot.from_coeffs(0.0, [(2, 0.5), (4, 0.3j)]), 32)
        lam, kappa = H.eigenvalue_conditions()
        assert np.abs(np.triu(H.L, 1)).max() == 0 and kappa[np.abs(lam - 4) < 2].min() > 1e12
        pair = hp.riesz_projection(H, 2)
        assert pair.converged and pair.radius == 2.0
        P_ref = full_inverse_projection(H, 2, 2.0, 256)  # on C_2
        assert np.linalg.norm(pair.P - P_ref) <= pair.quad_error_est <= prj._TOL
        floor = 2 * EPS * np.abs(H.eigenvalues()).max() / prj._TOL
        monkeypatch.setattr(prj, "_radius", lambda d_in, d_out, R, _: max(d_in, floor))
        shrunk = hp.riesz_projection(H, 2)
        assert shrunk.radius == floor and floor == pytest.approx(0.0045, rel=0.02)
        assert np.linalg.norm(shrunk.P - P_ref) > prj._TOL

    def test_rounding_term_grows_like_the_norm_of_p_squared(self):
        # lam = 65 has kappa 400 and ||P|| = 400: the solves lose about
        # 4e-9, far above C err + eps max|lambda| / (rho - d_in), below it
        # times ||P||^2
        H = nonnormal_level_matrix(0.005)
        pair = hp.riesz_projection(H, 8)
        p = np.linalg.norm(pair.P, 2)
        assert p == pytest.approx(400, rel=0.01) and pair.converged
        err, delta = prj._circle(H, 8, pair.cols, 64.0, 8.0)[7:]
        x = np.linalg.norm(pair.X, 2)
        distance = np.linalg.norm(pair.P - full_inverse_projection(H, 8, 8.0, 256))
        assert 10 * ((2 * x + x * x) * err + delta) < distance <= pair.quad_error_est
        assert pair.quad_error_est == pytest.approx((2 * x + x * x) * err + p * p * delta)


def eigh_certificate(H, pair, Q):
    """Reference for a Hermitian level: (C, ||P_Q - P||_F, delta, P) of the
    pair's circle at Q nodes, every term from ``np.linalg.eigh`` and the
    pair's radius, with P the eigh projector."""
    vals, vecs = np.linalg.eigh(H.L)
    n, rho, cols = pair.n, pair.radius, pair.cols
    inside = np.abs(vals - n * n) < n
    P = vecs[:, inside] @ vecs[:, inside].conj().T
    t = (vals - n * n) / rho
    tau = np.where(inside, t, 1 / np.where(inside, 1.0, t))
    filt = np.sqrt(np.sum(np.abs(tau ** Q / (1 - tau ** Q)) ** 2))
    delta = EPS * np.abs(vals).max() / (rho - np.abs(vals[inside] - n * n).max())
    s = np.linalg.svd(P[np.ix_(cols, cols)], compute_uv=False).min()  # of A = E^T P E
    return 2 / np.sqrt(s) + 1 / s, filt, delta, P


class TestCertifiedNodes:
    """Hermitian L: each level is swept once, at the smallest node count
    whose certified bound on ||X Y^T - P||_F meets _TOL, checked against
    the dense eigh projector and a certificate recomputed from eigh."""

    @pytest.mark.parametrize("K", [64, 128])
    @pytest.mark.parametrize("bc", [BC.PER_PLUS, BC.PER_MINUS, BC.DIRICHLET])
    @pytest.mark.parametrize("pname", ["mathieu:1.0", "delta_comb:0.5", "sawtooth:1.0",
                                       "mathieu:5.0"])
    def test_against_eigh(self, pname, bc, K, monkeypatch):
        H = hp.assemble(bc, pot.parse_potential_arg(pname, 4 * K), K)
        real, swept = prj._hessenberg_sweep, []

        def counted(band, h, rhs, zs):
            swept.append(len(zs))
            return real(band, h, rhs, zs)

        monkeypatch.setattr(prj, "_hessenberg_sweep", counted)
        pairs, _ = hp.riesz_projections(H, range(1, K // 4 + 1))
        assert H.hermitian and len(pairs) >= 6
        for n, pair in pairs.items():
            C, filt, delta, P = eigh_certificate(H, pair, pair.nodes_used)
            assert pair.converged
            assert np.linalg.norm(pair.P - P, "fro") <= pair.quad_error_est <= prj._TOL
            assert pair.quad_error_est == pytest.approx(C * filt + delta, rel=1e-6)
            # the smallest such count: one node fewer misses _TOL with the
            # constant the count was picked for
            fewer = eigh_certificate(H, pair, pair.nodes_used - 1)[1]
            assert max(C, prj._C0) * fewer + delta > prj._TOL
        # every node swept once, none for an estimate, and on a real L only
        # Q // 2 + 1 of Q (the others are their conjugates); a level runs a
        # second round only where its measured constant exceeds _C0
        # (mathieu:5.0 per- level 3: sigma_min(E^T P E) = 0.51, t_n = 0.70,
        # 151 -> 152 nodes)
        first = {c[0]: c[6] for c in prj._level_circles(H, pairs)[0]}
        again = [n for n, pair in pairs.items() if pair.nodes_used != first[n]]
        assert all(eigh_certificate(H, pairs[n], first[n])[0] > prj._C0 for n in again)
        assert len(again) == (pname == "mathieu:5.0" and bc is BC.PER_MINUS)
        real = H.L.dtype == float
        assert real == (pname != "sawtooth:1.0" or bc is BC.DIRICHLET)
        solves = [q // 2 + 1 if real else q for q in
                  [pair.nodes_used for pair in pairs.values()] + [first[n] for n in again]]
        assert sum(swept) == sum(solves)

    @pytest.mark.parametrize("K", [64, 128])
    def test_rounding_floor(self, K):
        # the delta comb's Dirichlet eigenvalues are exactly n^2 (the sine
        # modes vanish at the teeth), which eigvalsh reports 1e-12 apart:
        # rho = sqrt(d_in d_out) ~ 1e-6 would amplify the rounding of the
        # solves to 8e-7, so rho keeps to d_in + 2 eps max|lambda| / _TOL
        H = hp.assemble(BC.DIRICHLET, pot.parse_potential_arg("delta_comb:0.5", 4 * K), K)
        vals = H.eigenvalues().real
        floor = 2 * EPS * np.abs(vals).max() / prj._TOL
        for n in range(4, K // 4 + 1):
            pair = hp.riesz_projection(H, n)
            P = eigh_certificate(H, pair, pair.nodes_used)[3]
            assert np.linalg.norm(pair.P - P, "fro") <= pair.quad_error_est <= prj._TOL
            assert np.abs(vals - n * n).min() < 1e-10 and pair.radius >= floor

    @pytest.mark.parametrize("scale", [256, 1024])
    def test_rounding_term_is_no_verdict(self, scale, monkeypatch):
        # eps max|lambda| as at K = 2048 (scale 256) and K = 4096 (1024) on
        # a K = 128 basis: delta nears or passes _TOL on the low levels, and
        # no node count removes it.  The estimate reports it; the quadrature
        # part C err still meets _TOL, so the levels converge.
        H = hp.assemble(BC.PER_PLUS, pot.parse_potential_arg("delta_comb:0.5", 512), 128)
        monkeypatch.setattr(prj, "_EPS", EPS * scale)
        pairs, _ = hp.riesz_projections(H, [10, 12, 20, 30])
        assert max(pair.quad_error_est for pair in pairs.values()) > prj._TOL
        for pair in pairs.values():
            C, filt, delta, P = eigh_certificate(H, pair, pair.nodes_used)
            assert pair.converged and C * filt <= prj._TOL / 2
            assert pair.quad_error_est == pytest.approx(C * filt + scale * delta, rel=1e-6)
            assert np.linalg.norm(pair.P - P, "fro") <= pair.quad_error_est




class TestConjugateNodes:
    """A real L and a real centre: node Q - j is node j conjugated, and so
    is its solve, so a circle sweeps nodes 0 .. Q // 2 of its Q, the pairs
    j, Q - j at weight 2, and the pair is real, Hermitian or not.  Every
    other circle sweeps all Q."""

    @pytest.mark.parametrize("pname,bc,shift,halved", [
        ("delta", BC.PER_PLUS, 0, True),
        ("mathieu", BC.DIRICHLET, 0, True),
        ("complex_hermitian", BC.PER_PLUS, 0, False),
        ("sawtooth", BC.PER_MINUS, 0, False),  # a complex Hermitian L too
        ("delta", BC.PER_PLUS, 4j, False),  # a real L, a centre off the real axis
        ("real_non_hermitian", BC.PER_PLUS, 0, True),  # kappa up to 3e4
    ])
    def test_nodes_swept(self, pname, bc, shift, halved, monkeypatch):
        p = {"complex_hermitian": lambda: pot.from_coeffs(0.0, COMPLEX_HERMITIAN),
             "sawtooth": lambda: pot.sawtooth(1.0, max_index=256),
             "real_non_hermitian": lambda: pot.from_coeffs(0.3, REAL_NON_HERMITIAN)}.get(
            pname, lambda: gallery_potential(pname))()
        H = hp.assemble(bc, p, 64)
        n = 9 if bc is BC.PER_MINUS else 10
        circle = prj._circle(H, n, prj._level_cols(H, n), n * n + shift, float(n))
        real, swept = prj._hessenberg_sweep, []

        def counted(band, h, rhs, zs):
            swept.append(zs.copy())
            return real(band, h, rhs, zs)

        monkeypatch.setattr(prj, "_hessenberg_sweep", counted)
        pair, = prj._circle_rules(H, [circle])
        Q, rho = circle[6], circle[3]
        assert H.hermitian == (pname != "real_non_hermitian")
        assert pair.nodes_used == Q and pair.converged
        j = np.arange(Q // 2 + 1 if halved else Q)
        nodes = n * n + shift + rho * np.exp(2j * PI * j / Q)
        assert np.allclose(np.concatenate(swept), nodes, rtol=1e-15, atol=0)
        assert pair.X.dtype == pair.Y.dtype == (float if halved else complex)
        if H.hermitian:
            dense = prj.spectral_projector_dense(H, n)
            assert np.linalg.norm(pair.P - dense, "fro") <= pair.quad_error_est
        else:  # the full Q-node grid, every node inverted densely
            assert np.linalg.norm(pair.P - full_inverse_projection(H, n, rho, Q)) <= 1e-13

    @pytest.mark.parametrize("Q", [7, 8])  # odd: pairs only; even: one more real node
    @pytest.mark.parametrize("bc,n", [(BC.PER_PLUS, 6), (BC.DIRICHLET, 6)])
    def test_halved_sum_is_the_full_sum(self, bc, n, Q):
        H = hp.assemble(bc, gallery_potential("delta"), 48)
        cols = prj._level_cols(H, n)
        circle = prj._circle(H, n, cols, complex(n * n), float(n))
        pair, = prj._circle_rules(H, [circle[:6] + (Q,) + circle[7:]])
        assert pair.nodes_used == Q and pair.X.dtype == float
        # every node of the rule, solved in complex arithmetic
        rho = pair.radius
        w = np.exp(2j * PI * np.arange(Q) / Q)
        M = prj._moments(H, cols[None], n * n + rho * w, w, np.zeros(Q, int))[0]
        assert np.abs(M.imag).max() <= 1e-13 * np.abs(M).max()  # real up to rounding
        X, Y = prj._factors(M, cols, H.basis.transpose_perm(), rho / Q)
        for got, ref in ((pair.X, X), (pair.Y, Y)):
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


class TestTranslationOracle:
    """v(x + theta) for an even real v: w(m) e^{i m theta} gives the complex
    Hermitian L' = D L D^H, D = diag(e^{i k theta}), with projections
    D P D^H.  L is real and L' complex, so the real arithmetic and halved
    sweeps of L are checked against the complex arithmetic and full sweeps
    of L', with which they share no dtype path."""

    @pytest.mark.parametrize("bc", [BC.PER_PLUS, BC.PER_MINUS])
    @pytest.mark.parametrize("pname", ["mathieu:1.0", "delta_comb:0.5"])
    def test_shifted_potential(self, pname, bc):
        K, theta = 64, 0.3
        p = pot.parse_potential_arg(pname, 4 * K)
        m = p.w.idx
        shifted = pot.from_coeffs(p.v0, zip(m, p.w.val * np.exp(1j * m * theta)),
                                  max_index=p.max_index, complete=p.complete)
        H, Hs = hp.assemble(bc, p, K), hp.assemble(bc, shifted, K)
        D = np.exp(1j * theta * np.array(H.basis.indices))
        assert H.L.dtype == float and Hs.L.dtype == complex and Hs.hermitian
        assert np.abs(Hs.L - D[:, None] * H.L * D.conj()).max() <= 1e-14 * np.abs(H.L).max()
        pairs, _ = hp.riesz_projections(H, range(1, K // 4 + 1))
        moved, _ = hp.riesz_projections(Hs, range(1, K // 4 + 1))
        assert list(pairs) == list(moved) and len(pairs) >= 6
        for n, pair in pairs.items():
            assert pair.X.dtype == float and moved[n].X.dtype == complex
            assert pair.converged and moved[n].converged
            assert pair.nodes_used == moved[n].nodes_used  # the same certified Q
            P = D[:, None] * pair.P * D.conj()
            assert np.linalg.norm(P - moved[n].P, "fro") <= 1e-12


class TestFactoredPair:
    """The quantities ProjectionPair takes from its factors P = X Y^T
    against dense computations on the N x N P.

    Each level also gives a perturbed pair, X -> X (I + M/10) with M
    random: no projection, so its idempotency and trace defects lie far
    above rounding and test the cores on more than noise.
    """

    @pytest.fixture(scope="class", params=[
        ("delta", BC.PER_PLUS, 10),  # Hermitian
        ("complex", BC.PER_PLUS, 8),  # NON_HERMITIAN
        ("mathieu", BC.DIRICHLET, 8),
        ("complex_hermitian", BC.PER_PLUS, 10),
    ], ids=lambda p: f"{p[0]}-{p[1].value}")
    def level(self, request):
        pname, bc, n = request.param
        p = (pot.from_coeffs(0.0, COMPLEX_HERMITIAN) if pname == "complex_hermitian"
             else gallery_potential(pname))
        H = hp.assemble(bc, p, 48)
        pair = hp.riesz_projection(H, n)
        r = bc.rank
        rng = np.random.default_rng(n)
        M = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        return H, pair, dataclasses.replace(pair, X=pair.X @ (np.eye(r) + M / 10))

    def test_pair_is_the_riesz_projection(self, level):
        H, pair, _ = level
        # Y = P^T E is P E = X Y[cols]^T reflected by the lattice symmetry,
        # for every matrix
        PE = pair.X @ pair.Y[pair.cols].T
        reflected = PE[::-1, ::-1] if pair.bc.is_periodic_family else PE
        assert np.linalg.norm(pair.Y - reflected) <= 1e-12 * np.linalg.norm(pair.Y)
        assert pair.converged
        assert np.linalg.norm(pair.P - prj.spectral_projector_dense(H, pair.n)) <= 1e-10

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_norms_of_B(self, level, perturbed):
        pair = level[2 if perturbed else 1]
        B = pair.B
        assert np.array_equal(B, pair.P - prj.free_projection(pair.basis, pair.n))
        assert abs(pair.t_n - np.linalg.norm(B, 2)) <= 1e-12 * pair.t_n
        assert abs(pair.frob - np.linalg.norm(B, "fro")) <= 1e-12 * pair.frob
        assert abs(pair.sum_abs_B - np.abs(B).sum()) <= 1e-14 * pair.sum_abs_B

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_idempotency_and_trace(self, level, perturbed):
        H, pair = level[0], level[2 if perturbed else 1]
        P = pair.P
        idem = np.linalg.norm(P @ P - P, "fro")
        assert abs(pair.idempotency - idem) <= 1e-13
        assert abs(pair.trace_defect - abs(np.trace(P) - pair.bc.rank)) <= 1e-13
        # to first order P^2 - P is the error of P split by P and I - P: at
        # most the certified estimate on Hermitian L
        ok = pair.quad_error_est if H.hermitian else 1e-12
        assert (idem > 1e-2) if perturbed else (idem <= ok)

    @pytest.mark.parametrize("block", [1, 7, 13])
    def test_sum_abs_B_over_row_blocks(self, level, block, monkeypatch):
        pair = level[2]
        monkeypatch.setattr(prj, "_ROW_BLOCK", block)
        fresh = dataclasses.replace(pair)  # sum_abs_B is cached per pair
        assert abs(fresh.sum_abs_B - np.abs(pair.B).sum()) <= 1e-14 * fresh.sum_abs_B

    def test_certified_estimate(self, level):
        # one sweep at the certified count of the level's circle, whose
        # estimate bounds the distance from P: the eigh projector for
        # Hermitian L, the dense node sum at 64 nodes for any other
        H, pair, _ = level
        circle = prj._circle(H, pair.n, pair.cols, complex(pair.n ** 2), float(pair.n))
        assert pair.nodes_used == circle[6] and pair.converged
        if H.hermitian:
            vals, vecs = np.linalg.eigh(H.L)
            V = vecs[:, np.abs(vals - pair.n ** 2) < pair.n]
            P = V @ V.conj().T
        else:
            P = full_inverse_projection(H, pair.n, pair.radius, 64)
        assert np.linalg.norm(pair.P - P) <= pair.quad_error_est <= prj._TOL

    def test_reconstruction_constant(self, level):
        # to first order dF = D E Z^T + X E^T D - X (E^T D E) Z^T with
        # Z = P^T E A^-T, A = E^T P E: Z is X reflected by the transpose
        # symmetry, so C = 2 ||X|| + ||X||^2; for Hermitian L, ||X||^2 is
        # ||A^-1|| up to the quadrature error of P
        H, pair, _ = level
        P, cols = pair.P, pair.cols
        A = P[np.ix_(cols, cols)]
        x = np.linalg.norm(pair.X, 2)
        assert np.linalg.norm(P.T[:, cols] @ np.linalg.inv(A).T, 2) == pytest.approx(x, rel=1e-12)
        if H.hermitian:
            assert x * x == pytest.approx(np.linalg.norm(np.linalg.inv(A), 2), rel=1e-9)
        # the rounding term delta times ||P||^2, which is 1 for Hermitian L
        p2 = 1.0 if H.hermitian else np.linalg.norm(P, 2) ** 2
        err, delta = prj._circle(H, pair.n, cols, complex(pair.n ** 2), float(pair.n))[7:]
        assert pair.quad_error_est == pytest.approx((2 * x + x * x) * err + p2 * delta, rel=1e-12)


def dense_rect_quadrature(H, N, panels_scale, panel_nodes=20):
    """Reference: Gauss-Legendre panel sum of the full resolvent inverse.

    An independent contour for the eigenvalues of rectangle_projection:
    Gauss-Legendre panels on the rectangle itself, every node inverting
    z - L densely, so the result has whatever rank the rectangle holds.
    """
    nodes, weights = roots_legendre(panel_nodes)
    ident = np.eye(H.size, dtype=complex)
    acc = np.zeros((H.size, H.size), dtype=complex)
    re_max = float(N * N + N)
    corners = [complex(re_max, -N), complex(re_max, N), complex(-N, N),
               complex(-N, -N), complex(re_max, -N)]
    for a, b in zip(corners[:-1], corners[1:]):
        n_panels = panels_scale * max(1, math.ceil(abs(b - a) / max(N, 4.0)))
        for p in range(n_panels):
            pa = a + (b - a) * p / n_panels
            pb = a + (b - a) * (p + 1) / n_panels
            half = (pb - pa) / 2.0
            for t, w in zip(nodes, weights):
                z = (pa + pb) / 2.0 + half * t
                acc += (w * half) * np.linalg.inv(z * ident - H.L)
    return acc / (2.0j * np.pi)


def dense_rectangle_projection(H, N, refine_tol=1e-9):
    """``dense_rect_quadrature`` with its panels doubled until P changes by
    less than ``refine_tol`` or the panel scale reaches 8: (P, last change)."""
    P, scale = dense_rect_quadrature(H, N, 1), 2
    while True:
        P2 = dense_rect_quadrature(H, N, scale)
        est = np.linalg.norm(P2 - P, "fro")
        P = P2
        if est < refine_tol or scale >= 8:
            return P, est
        scale *= 2


class TestRectangleVsDenseInverse:
    """The rank-r rectangle block against the dense node sum it replaced."""

    @pytest.mark.parametrize("pname", ["mathieu", "delta"])
    @pytest.mark.parametrize("bc", [BC.PER_PLUS, BC.PER_MINUS, BC.DIRICHLET])
    def test_gallery(self, pname, bc):
        p = pot.mathieu(1.0) if pname == "mathieu" else pot.delta_comb(0.5, max_index=512)
        H = hp.assemble(bc, p, 48)
        rect = prj.rectangle_projection(H, 4)
        S_ref, est_ref = dense_rectangle_projection(H, 4)
        assert H.hermitian and rect.converged and est_ref < 1e-9
        assert np.linalg.norm(rect.P - S_ref, "fro") <= rect.quad_error_est < 1e-10

    def test_non_hermitian_potential(self):
        p = pot.from_coeffs(0.3 + 0.2j, [(2, 0.5), (-2, 0.1j), (4, 0.2 - 0.3j)])
        H = hp.assemble(BC.PER_PLUS, p, 48)
        assert np.abs(H.L - H.L.T).max() > 0.1
        rect = prj.rectangle_projection(H, 4)
        S_ref, _ = dense_rectangle_projection(H, 4)
        assert rect.converged and rect.nodes_used < 128  # the doubling rule took 256
        assert np.linalg.norm(rect.P - S_ref, "fro") <= rect.quad_error_est <= prj._TOL
        # one sweep at the certified count and radius: the dense node sum
        # about N^2 / 2 there, X Y^T rebuilt from its columns and rows
        P_Q = full_inverse_projection(H, 4, rect.radius, rect.nodes_used, center=8.0)
        PE, cols = P_Q[:, rect.cols], rect.cols
        assert np.linalg.norm(rect.P - PE @ np.linalg.solve(PE[cols], P_Q[cols])) <= 1e-13

    def test_count_mismatch_raises(self):
        # v0 = 10 leaves 3 eigenvalues in the N = 4 rectangle against the
        # 5 free indices 0, +-2, +-4; the dense sum would return rank 3
        p = pot.from_coeffs(10.0, [(2, 0.25), (-2, -0.25)])
        H = hp.assemble(BC.PER_PLUS, p, 48)
        assert abs(np.trace(dense_rect_quadrature(H, 4, 1)) - 3) < 1e-8
        with pytest.raises(prj.RankMismatch):
            prj.rectangle_projection(H, 4)

    def test_circle_and_rectangle_must_hold_the_same_eigenvalues(self):
        # diagonal L on the per+ basis: the pair 16 at +-4 moves into a
        # corner of the N = 4 rectangle outside the circle |z - 8| = 12, and
        # the pair 100 at +-10 into the circle outside the rectangle (in
        # pairs, to keep L^T = J L J); both regions still hold 5
        basis = hp.basis_for(BC.PER_PLUS, 48)
        diag0 = np.array([float(k * k) for k in basis.indices])
        vals = diag0.astype(complex)
        for k in (4, -4):
            vals[basis.position(k)] = 19.99 + 3.99j
        for k in (10, -10):
            vals[basis.position(k)] = 8 + 10j
        H = HillMatrix(basis, np.diag(vals))
        in_rect = (vals.real > -4) & (vals.real < 20) & (np.abs(vals.imag) < 4)
        in_circle = np.abs(vals - 8) < 12
        assert in_rect.sum() == in_circle.sum() == 5
        assert np.abs(np.abs(vals - 8) - 12).min() > 0.05 * 12
        with pytest.raises(prj.RankMismatch):
            prj.rectangle_projection(H, 4)


class TestBaseBlockCircle:
    """The block S_N is gated on |z - N^2/2| = R = N^2/2 + N and
    integrated on the levels' radius rule, which per- and dir put inside R."""

    @pytest.mark.parametrize("N", [4, 6])
    @pytest.mark.parametrize("bc", [BC.PER_MINUS, BC.DIRICHLET])
    def test_rule_radius(self, bc, N, monkeypatch):
        H = hp.assemble(bc, gallery_potential("delta"), 64)
        rect = prj.rectangle_projection(H, N)
        c, R = N * N / 2, N * N / 2 + N
        # the rule reads eigenvalues(), from eigvalsh: on this real L, eig()
        # (dgeev) differs from them by about 1e-13 relative
        vals = H.eigenvalues()
        in_rect = (vals.real > -N) & (vals.real < N * N + N) & (np.abs(vals.imag) < N)
        dist = np.abs(vals - c)
        d_in, d_out = dist[in_rect].max(), dist[~in_rect].min()
        assert rect.radius < R and H.hermitian
        floor = d_in + 2 * EPS * np.abs(vals).max() / prj._TOL
        assert rect.radius == pytest.approx(max(np.sqrt(d_in * d_out), floor), rel=1e-14)
        assert rect.rate == pytest.approx(max(d_in / rect.radius, rect.radius / d_out),
                                          rel=1e-14)
        assert rect.converged
        vals, vecs, vinv = H.eig()
        in_rect = (vals.real > -N) & (vals.real < N * N + N) & (np.abs(vals.imag) < N)
        err = np.linalg.norm(rect.P - vecs[:, in_rect] @ vinv[in_rect], "fro")
        assert err <= rect.quad_error_est
        monkeypatch.setattr(prj, "_radius", lambda d_in, d_out, R, floor: R)
        on_gate = prj.rectangle_projection(H, N)
        assert on_gate.radius == R and rect.nodes_used <= on_gate.nodes_used


    @pytest.mark.parametrize("N", [4, 6, 8])
    @pytest.mark.parametrize("bc", [BC.PER_PLUS, BC.PER_MINUS, BC.DIRICHLET])
    @pytest.mark.parametrize("pname", ["mathieu:1.0", "delta_comb:0.5"])
    def test_certified_count(self, pname, bc, N):
        # the doubling rule took 128 or 256 nodes on these blocks; the
        # certified count takes fewer, and P is still the dense eigensum
        H = hp.assemble(bc, pot.parse_potential_arg(pname, 256), 64)
        rect = prj.rectangle_projection(H, N)
        vals, vecs, vinv = H.eig()
        in_rect = (vals.real > -N) & (vals.real < N * N + N) & (np.abs(vals.imag) < N)
        assert rect.converged and rect.nodes_used < 128
        err = np.linalg.norm(rect.P - vecs[:, in_rect] @ vinv[in_rect], "fro")
        assert err <= rect.quad_error_est <= prj._TOL


class TestLargestBaseBlock:
    """A large block S_19 still converges and matches the dense panel sum."""

    @pytest.mark.parametrize("pname,bc", [("mathieu", BC.PER_PLUS), ("mathieu", BC.PER_MINUS),
                                          ("mathieu", BC.DIRICHLET), ("delta", BC.PER_PLUS)])
    def test_converges(self, pname, bc):
        p = pot.mathieu(1.0) if pname == "mathieu" else pot.delta_comb(0.5, max_index=512)
        H = hp.assemble(bc, p, 96)
        rect = prj.rectangle_projection(H, 19)
        assert rect.quad_error_est < 1e-10 and rect.converged and rect.n == 19
        free_dim = np.count_nonzero(np.array(H.basis.indices) ** 2 < 380)
        assert len(rect.cols) == free_dim
        assert abs(np.trace(rect.P) - free_dim) < 1e-10

    def test_against_dense_panel_sum(self):
        H = hp.assemble(BC.PER_MINUS, pot.mathieu(1.0), 96)
        rect = prj.rectangle_projection(H, 19)
        S_ref, est_ref = dense_rectangle_projection(H, 19)
        assert est_ref < 1e-9
        assert np.linalg.norm(rect.P - S_ref, "fro") <= rect.quad_error_est


def projector_30_digits(H, n):
    """The spectral projector of H.L onto its eigenvalues in |z - n^2| < n,
    sum v v^H over the orthonormal eigenvectors of mpmath's 30-digit
    ``eigsy`` (real L) or ``eighe`` (complex Hermitian L), rounded to
    complex128 at the end: an oracle that shares no code with LAPACK."""
    import mpmath as mp  # inside the test: a missing mpmath fails it, never skips it

    assert H.hermitian
    with mp.workdps(30):
        A = mp.matrix(H.L.tolist())
        vals, V = mp.eighe(A) if np.iscomplexobj(H.L) else mp.eigsy(A)
        P = mp.matrix(H.size, H.size)
        for i in range(H.size):
            if abs(vals[i] - n * n) < n:
                P += V[:, i] * V[:, i].H
        return np.array(P.tolist(), dtype=complex)


class TestThirtyDigitOracle:
    """Every level the gate passes at K = 16 against a 30-digit projector:
    22 levels in all, at most 0.33 of ``quad_error_est`` apart, and the
    LAPACK oracle at most 6.7e-15 from it.  Hermitian L only, and small
    K: the rounding term of the estimate, which dominates at K = 2048,
    goes unchecked here."""

    @pytest.mark.parametrize("pname,bc,levels", [
        ("mathieu", BC.PER_PLUS, [2, 4]), ("mathieu", BC.PER_MINUS, [3]),
        ("mathieu", BC.DIRICHLET, [2, 3, 4]),
        ("delta", BC.PER_PLUS, [2, 4]), ("delta", BC.PER_MINUS, [1, 3]),
        ("delta", BC.DIRICHLET, [1, 2, 3, 4]),
        ("sawtooth", BC.PER_PLUS, [2, 4]), ("sawtooth", BC.PER_MINUS, [1, 3]),
        ("sawtooth", BC.DIRICHLET, [1, 2, 3, 4])])
    def test_within_the_error_estimate(self, pname, bc, levels):
        p = {"mathieu": lambda: pot.mathieu(1.0),
             "delta": lambda: pot.delta_comb(0.5, max_index=512),
             "sawtooth": lambda: pot.sawtooth(1.0, max_index=512)}[pname]()
        H = hp.assemble(bc, p, 16)
        pairs = prj.riesz_projections(H, range(1, 5))[0]
        assert list(pairs) == levels
        for n, pair in pairs.items():
            P = projector_30_digits(H, n)
            assert np.linalg.norm(pair.P - P, "fro") <= pair.quad_error_est, n
            assert np.linalg.norm(prj.spectral_projector_dense(H, n) - P, "fro") <= 1e-13, n


class TestFirstOrderResidue:
    def test_zero_cases(self):
        p = pot.mathieu(1.0)
        assert prj.first_order_residue(p, BC.PER_PLUS, 4, 6, 8) == 0.0
        assert prj.first_order_residue(p, BC.PER_PLUS, 4, 4, 4) == 0.0
        assert prj.first_order_residue(p, BC.PER_PLUS, 4, 4, -4) == 0.0

    def test_constant_interaction_value(self):
        # V identically 1 (delta comb of mass pi): m = n, k != +-n gives
        # V(k - n)/(n^2 - k^2); n = 4, k = 6 -> 1/(16 - 36) = -1/20
        p = pot.delta_comb(PI, max_index=64)
        val = prj.first_order_residue(p, BC.PER_PLUS, 4, 6, 4)
        assert np.isclose(val, -1.0 / 20.0)
        val = prj.first_order_residue(p, BC.PER_PLUS, 4, 4, 6)
        assert np.isclose(val, -1.0 / 20.0)

    def test_dirichlet_case(self):
        sp = pot.SinePotential(0.0, {2: 1 / math.sqrt(2)}, 2, complete=True)
        # coupling entry for |k-m| = 2 is 1; residue at m = n
        val = prj.first_order_residue(sp, BC.DIRICHLET, 4, 6, 4)
        assert np.isclose(val, 1.0 / (16 - 36))
        assert prj.first_order_residue(sp, BC.DIRICHLET, 4, 4, 4) == 0.0
        # mathieu(1.0) carries the same Q = sin 2x
        val = prj.first_order_residue(pot.mathieu(1.0), BC.DIRICHLET, 4, 6, 4)
        assert np.isclose(val, 1.0 / (16 - 36), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("bc,n", LEVELS)
    @pytest.mark.parametrize("pname", ["mathieu", "delta", "complex"])
    def test_broadcasts_over_index_arrays(self, pname, bc, n):
        # one call on the whole (k, m) grid, its masked divisions silent,
        # equals the scalar calls entry by entry
        p = gallery_potential(pname)
        idx = np.array(hp.basis_for(bc, 24).indices)
        grid = prj.first_order_residue(p, bc, n, idx[:, None], idx[None, :])
        assert grid.shape == (len(idx), len(idx)) and np.count_nonzero(grid)
        for i, k in enumerate(idx):
            for j, m in enumerate(idx):
                assert grid[i, j] == prj.first_order_residue(p, bc, n, int(k), int(m))


class TestQuadratureVsResidue:
    def test_zero_potential(self):
        dev = prj.quadrature_vs_residue_check(pot.zero(), BC.PER_PLUS, 8, 32)
        assert dev < 1e-14

    def test_mathieu_spectral_accuracy(self):
        dev = prj.quadrature_vs_residue_check(pot.mathieu(1.0), BC.PER_PLUS, 8, 64, 64)
        assert dev <= 1e-10

    @pytest.mark.parametrize("bc,n", [
        (BC.PER_PLUS, 9),  # odd on the even lattice
        (BC.PER_PLUS, 60),  # outside the basis
        (BC.PER_MINUS, 8),  # even on the odd lattice
        (BC.DIRICHLET, 60),
    ])
    def test_off_lattice_level_raises(self, bc, n):
        # an off-lattice level has an all-zero closed form: refused, not passed
        with pytest.raises(prj.IndexOutOfBasis):
            prj.quadrature_vs_residue_check(pot.mathieu(1.0), bc, n, 40)

    @pytest.mark.parametrize("nodes", [16, 64])
    @pytest.mark.parametrize("pname,bc,n", [
        ("mathieu", BC.PER_PLUS, 8), ("mathieu", BC.PER_MINUS, 7), ("mathieu", BC.DIRICHLET, 8),
        ("delta", BC.PER_PLUS, 8), ("delta", BC.PER_MINUS, 7),
    ])
    def test_against_node_loop(self, pname, bc, n, nodes):
        # the trapezoid sum node by node, one outer product each
        p = pot.mathieu(1.0) if pname == "mathieu" else pot.delta_comb(0.5, max_index=512)
        idx = np.array(hp.basis_for(bc, 32).indices)
        k, m = idx[:, None], idx[None, :]
        W = prj.coupling(p, bc, k, m)
        quad = np.zeros(W.shape, dtype=complex)
        for q in range(nodes):
            u = np.exp(2j * np.pi * q / nodes)
            d = 1.0 / (n * n + n * u - idx.astype(float) ** 2)
            quad += u * np.outer(d, d) * W
        res = prj.first_order_residue(p, bc, n, k, m)
        want = np.abs(quad * (n / nodes) - res).max()
        dev = prj.quadrature_vs_residue_check(p, bc, n, 32, nodes)
        assert abs(dev - want) <= 1e-15 * np.abs(res).max()

    def test_node_count_monotone(self):
        p = pot.delta_comb(0.5, max_index=512)
        devs = [prj.quadrature_vs_residue_check(p, BC.PER_PLUS, 8, 32, q)
                for q in (16, 32, 64)]
        assert devs[0] > devs[1] > devs[2] or devs[2] < 1e-15


class TestEigenCount:
    def test_zero_potential(self):
        Hp = hp.assemble(BC.PER_PLUS, pot.zero(), 32)
        assert prj.eigen_count_in_disc(Hp, 8) == 2
        Hd = hp.assemble(BC.DIRICHLET, pot.zero(), 32)
        assert prj.eigen_count_in_disc(Hd, 8) == 1

    def test_mathieu_sweep(self):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 128)
        for n in range(6, 25, 2):
            assert prj.eigen_count_in_disc(H, n) == 2

    def test_validated_levels(self):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 64)
        levels = prj.validated_levels(H, range(1, 17))
        assert levels == [2, 4, 6, 8, 10, 12, 14, 16]


class TestBlockPair:
    """rectangle_projection: S_N as one factored ProjectionPair."""

    def test_zero_potential_coordinate_projection(self):
        H = hp.assemble(BC.PER_PLUS, pot.zero(), 48)
        blk = prj.rectangle_projection(H, 8)
        expect = np.diag([1.0 if k * k < 72 else 0.0 for k in H.basis.indices])
        assert np.abs(blk.P - expect).max() < 1e-10
        assert len(blk.cols) == 9 and blk.converged and blk.n == 8
        assert blk.frob < 1e-10 and blk.sum_abs_B < 1e-10

    def test_mathieu_trace_and_idempotency(self):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 48)
        blk = prj.rectangle_projection(H, 10)
        assert abs(blk.trace - len(blk.cols)) < 1e-6
        assert blk.idempotency < 1e-7

    @pytest.mark.parametrize("pname", ["mathieu", "delta", "complex", "mathieu:5.0"])
    @pytest.mark.parametrize("bc", [BC.PER_PLUS, BC.PER_MINUS, BC.DIRICHLET])
    def test_against_eigendecomposition(self, pname, bc):
        # independent of every contour: the eigenprojectors of the
        # eigenvalues in the N = 10 rectangle, from a dense eigendecomposition
        p = pot.mathieu(5.0) if pname == "mathieu:5.0" else gallery_potential(pname)
        H = hp.assemble(bc, p, 48)
        blk = prj.rectangle_projection(H, 10)
        vals, vecs, vinv = H.eig()
        in_rect = (vals.real > -10) & (vals.real < 110) & (np.abs(vals.imag) < 10)
        assert len(blk.cols) == np.count_nonzero(in_rect) and blk.converged
        err = np.linalg.norm(blk.P - vecs[:, in_rect] @ vinv[in_rect], "fro")
        assert err <= blk.quad_error_est <= 1e-10

    @pytest.mark.parametrize("bc", [BC.PER_PLUS, BC.PER_MINUS, BC.DIRICHLET])
    def test_truncation_too_small(self, bc):
        # the half-width must reach 4N, as for the level N
        H = hp.assemble(bc, pot.mathieu(1.0), 39)
        with pytest.raises(prj.TruncationTooSmall):
            prj.rectangle_projection(H, 10)
        assert prj.rectangle_projection(H, 9).n == 9
