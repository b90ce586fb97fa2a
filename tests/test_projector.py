import dataclasses
import math

import numpy as np
import pytest
from scipy.special import roots_legendre

import hillproj as hp
from hillproj import potential as pot
from hillproj import projector as prj
from hillproj.operator import HillMatrix, _band

BC = hp.BoundaryCondition
PI = math.pi


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


def full_inverse_projection(H, n, radius=None):
    """Reference: trapezoid node sum of the full resolvent inverse.

    Same node doubling from ``_NODES``, stopping rule and error estimate
    as riesz_projection, on |z - n^2| = radius (C_n by default), but
    every node inverts z - L densely; returns (P, nodes_used).
    """
    c, R = complex(n * n), float(n if radius is None else radius)
    ident = np.eye(H.size, dtype=complex)

    def node_sum(thetas):
        acc = np.zeros((H.size, H.size), dtype=complex)
        for th in thetas:
            z = c + R * np.exp(1j * th)
            acc += np.exp(1j * th) * np.linalg.inv(z * ident - H.L)
        return acc

    Q = prj._NODES
    thetas = 2.0 * np.pi * np.arange(Q) / Q
    S_even = node_sum(thetas[::2])
    S = S_even + node_sum(thetas[1::2])
    P = (R / Q) * S
    est = np.linalg.norm(P - (R / (Q // 2)) * S_even, "fro")
    while est >= prj._TOL and Q < prj._MAX_NODES:
        S = S + node_sum(2.0 * np.pi * (np.arange(Q) + 0.5) / Q)
        Q *= 2
        P_new = (R / Q) * S
        est = np.linalg.norm(P_new - P, "fro")
        P = P_new
    return P, Q


NON_HERMITIAN = [(2, 0.5), (-2, 0.1j), (4, 0.2 - 0.3j)]
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

    @pytest.mark.parametrize("N", [33, 70, 97])
    def test_blocked_tridiagonalization_across_panels(self, N):
        # a dense Hermitian L spans several 32-column panels, and the last
        # panel can be short; the tridiagonal form keeps L's eigenvalues
        rng = np.random.default_rng(N)
        M = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        L = M + M.conj().T
        d, e, reflectors = hp.operator._tridiagonalize(L)
        A = np.diag(d) + np.diag(e, -1) + np.diag(e.conj(), 1)
        ev = np.linalg.eigvalsh(L)
        assert np.abs(np.linalg.eigvalsh(A) - ev).max() <= 1e-13 * np.abs(ev).max()
        # every reflector leaves a real beta; the last entry needs no reflector
        assert not e[:-1].imag.any()
        assert [o for o, _, _ in reflectors] == list(range(1, N - 1, 32))

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
        M = prj._moments(H, cols[None], zs[None], ws[None])
        assert M.shape == (1, H.size, len(cols))
        M_ref = solve_moments(H, cols, zs, ws)
        check_moments(H, M[0], M_ref, len(cols))

    @pytest.mark.parametrize("pname", ["delta", "complex"])
    @pytest.mark.parametrize("count", [50, prj._NODE_BLOCK])
    def test_groups_share_the_sweep(self, pname, count):
        # three levels' nodes in one call: with 50 nodes each, the first
        # chunk of 128 ends inside the third level
        H = hp.assemble(BC.PER_PLUS, gallery_potential(pname), 48)
        ns = (6, 8, 10)
        cols = np.array([sorted(H.basis.position(k) for k in (n, -n)) for n in ns])
        theta = 2j * PI * (np.arange(count) + 0.25) / count
        zs = np.array([n * n + n * np.exp(theta) for n in ns])
        ws = np.random.default_rng(5).standard_normal((3, count)) + 0j  # one row per group
        M = prj._moments(H, cols, zs, ws)
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
        check_moments(H, prj._moments(H, cols[None], zs[None], ws[None])[0],
                      solve_moments(H, cols, zs, ws), len(cols))

    @pytest.mark.parametrize("p,bc,tol", [
        (pot.delta_comb(0.5, max_index=512), BC.PER_PLUS, 1e-12),
        # w(-m) = -conj(w(m)): a real potential with a complex Hermitian L,
        # whose projections are not real
        (pot.from_coeffs(0.0, [(2, 0.3 + 0.4j), (-2, -0.3 + 0.4j), (4, 0.1j), (-4, 0.1j)]),
         BC.PER_PLUS, 1e-12),
        # the eigenvector matrix of this L has condition 4e4: the dense
        # oracle lies 1.35e-12 from the dense inverse node sum on this
        # circle, which the quadrature matches to 5e-15
        (pot.from_coeffs(0.3 + 0.2j, NON_HERMITIAN), BC.PER_PLUS, 1e-11),
        (pot.mathieu(1.0), BC.DIRICHLET, 1e-12),
    ], ids=["delta-per+", "complex_hermitian-per+", "non_hermitian-per+", "mathieu-dir"])
    def test_off_axis_circle_on_hermitian_matrix(self, p, bc, tol):
        # Y = X[p][:, s] rests on the lattice symmetry L^T = L[p][:, p],
        # which holds node by node, not on the symmetry of the contour: a
        # circle centred off the real axis has no conjugate node pairs
        H = hp.assemble(bc, p, 64)
        cols = prj._level_cols(H, 10)
        margin = prj._gate(H, 100 + 4j, 10.0, len(cols))
        pair, = prj._circle_rules(H, [(10, cols, 100 + 4j, 10.0, margin)])
        dense = prj.spectral_projector_dense(H, 10)
        assert pair.converged
        assert np.linalg.norm(pair.P - dense, "fro") <= tol


class TestRankEngineVsFullInverse:
    """The rank-r moment formula against the dense node sum it replaced."""

    @pytest.mark.parametrize("pname", ["mathieu", "delta"])
    @pytest.mark.parametrize("bc,n", [(BC.PER_PLUS, 10), (BC.PER_MINUS, 9),
                                      (BC.DIRICHLET, 8)])
    def test_gallery(self, pname, bc, n):
        p = pot.mathieu(1.0) if pname == "mathieu" else pot.delta_comb(0.5, max_index=512)
        H = hp.assemble(bc, p, 64)
        pair = hp.riesz_projection(H, n)
        P_ref, q_ref = full_inverse_projection(H, n, pair.radius)
        assert np.linalg.norm(pair.P - P_ref, "fro") <= 1e-13
        assert pair.converged
        if bc.is_periodic_family:
            assert pair.nodes_used == q_ref
        else:
            # the rank-1 moments of the sine basis converge a doubling
            # earlier than the full resolvent (16 against 32 nodes)
            assert pair.nodes_used == q_ref // 2 == 16

    def test_non_hermitian_potential(self):
        p = pot.from_coeffs(0.3 + 0.2j, [(2, 0.5), (-2, 0.1j), (4, 0.2 - 0.3j)])
        H = hp.assemble(BC.PER_PLUS, p, 64)
        assert np.abs(H.L - H.L.T).max() > 0.1  # L^T != L, so Y differs from X
        pair = hp.riesz_projection(H, 8)
        P_ref, q_ref = full_inverse_projection(H, 8, pair.radius)
        assert np.linalg.norm(pair.P - P_ref, "fro") <= 1e-13
        assert pair.nodes_used == q_ref

    def test_empty_disc_raises(self):
        # v0 = 10 moves the level-8 pair to about 74, outside |z - 64| < 8
        p = pot.from_coeffs(10.0, [(2, 0.25), (-2, -0.25)])
        H = hp.assemble(BC.PER_PLUS, p, 48)
        assert prj.eigen_count_in_disc(H, 8) == 0
        with pytest.raises(prj.RankMismatch):
            hp.riesz_projection(H, 8)

    def test_unconverged_flag(self, monkeypatch):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 64)
        assert hp.riesz_projection(H, 8).converged is True
        monkeypatch.setattr(prj, "_TOL", 1e-30)
        monkeypatch.setattr(prj, "_MAX_NODES", 64)
        pair = hp.riesz_projection(H, 8)
        assert pair.converged is False and pair.nodes_used == 64


class TestRieszProjections:
    """The plural form against the one-level form, level by level."""

    @pytest.mark.parametrize("nodes", [16, 64])
    @pytest.mark.parametrize("pname,bc,levels", [
        ("delta", BC.PER_PLUS, range(2, 13, 2)),
        ("delta", BC.PER_MINUS, range(1, 12, 2)),
        ("mathieu", BC.DIRICHLET, range(1, 13)),
        ("complex", BC.PER_PLUS, range(2, 13, 2)),  # NON_HERMITIAN
    ])
    def test_matches_the_one_level_form(self, pname, bc, levels, nodes, monkeypatch):
        monkeypatch.setattr(prj, "_NODES", nodes)
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
        if nodes == 16:  # the levels double from 16 nodes, not all to the same count
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
        # the decay-per matrix: 26 levels of 16 nodes go through in
        # ceil(416 / 128) = 4 sweeps, not one (or more) per level, and the
        # 4 levels that double to 32 nodes share a fifth
        H = hp.assemble(BC.PER_PLUS, pot.delta_comb(0.5, max_index=1024), 256)
        real, calls = prj._hessenberg_sweep, []

        def counted(band, h, rhs, zs):
            calls.append(len(zs))
            return real(band, h, rhs, zs)

        monkeypatch.setattr(prj, "_hessenberg_sweep", counted)
        pairs, errors = hp.riesz_projections(H, range(10, 61, 2))
        assert len(pairs) == 26 and not errors
        used = [pair.nodes_used for pair in pairs.values()]
        assert used == [32] * 4 + [16] * 22
        assert calls == [prj._NODE_BLOCK] * 3 + [32, 64]


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


class TestIntegrationCircle:
    """Each level is gated on C_n = {|z - n^2| = n} and integrated on
    |z - n^2| = rho <= n, gated to hold the same eigenvalues."""

    @pytest.mark.parametrize("pname,bc,n", [
        ("delta", BC.PER_PLUS, 10), ("delta", BC.PER_MINUS, 9),
        ("mathieu", BC.DIRICHLET, 8), ("complex", BC.PER_PLUS, 8),  # NON_HERMITIAN
    ])
    def test_matches_the_dense_gate_circle_sum(self, pname, bc, n):
        # P is fixed by the eigenvalues inside C_n, not by the circle: the
        # small-circle pair is the dense node sum on C_n itself
        H = hp.assemble(bc, gallery_potential(pname), 64)
        pair = hp.riesz_projection(H, n)
        P_ref, q_ref = full_inverse_projection(H, n)
        assert pair.converged and pair.nodes_used < q_ref
        assert np.linalg.norm(pair.P - P_ref, "fro") <= 1e-12
        # the margin is C_n's; radius and rate follow from the same eigenvalues
        assert pair.guard_margin == prj._gate(H, n * n, float(n), bc.rank)
        dist = np.abs(H.eigenvalues() - n * n)
        d_in, d_out = dist[dist < n].max(), dist[dist >= n].min()
        rho = np.sqrt(max(d_in, d_out / 100) * d_out)
        assert pair.radius == pytest.approx(rho, rel=1e-14) and pair.radius < n / 2
        assert pair.rate == pytest.approx(np.sqrt(max(d_in, d_out / 100) / d_out), rel=1e-14)

    @pytest.mark.parametrize("bc,n", LEVELS)
    def test_zero_potential(self, bc, n):
        # d_in = 0: the floor d_out / 100 gives rho = d_out / 10, nearest
        # free level k^2 != n^2 over 10
        H = hp.assemble(bc, pot.zero(), 48)
        pair = hp.riesz_projection(H, n)
        d_out = min(abs(k * k - n * n) for k in H.basis.indices if k * k != n * n)
        assert pair.radius == pytest.approx(d_out / 10, rel=1e-14) and pair.rate == 0.1
        assert np.linalg.norm(pair.P - prj.free_projection(H.basis, n), "fro") <= 1e-14

    def test_guard_edge_window_falls_back_to_c_n(self):
        # d_in = 0.949n and d_out = 1.051n pass the 5% guard on C_n, but the
        # geometric-mean circle keeps only 1 - sqrt(d_in / d_out) = 0.0498,
        # so the level integrates on C_n
        d_in, d_out = 9.49, 10.51
        H = level_matrix({10: 100 + d_in, 8: 100 - d_out})
        assert prj._gate(H, 100, 10.0, 2) == pytest.approx(0.051)
        with pytest.raises(prj.EigenvalueOnContour):
            prj._gate(H, 100, np.sqrt(d_in * d_out), 2)
        pair = hp.riesz_projection(H, 10)  # a pair on C_n, not an error
        on_c_n, = prj._circle_rules(H, [(10, pair.cols, 100, 10.0, pair.guard_margin)])
        assert pair.radius == 10.0 and np.array_equal(pair.X, on_c_n.X)
        assert pair.rate == pytest.approx(10 / d_out)
        # every circle the guard admits here has a rate near 0.95: at
        # _MAX_NODES = 512 the change is about 0.949^256 = 1.5e-6, and P lies
        # within about 0.949^512 = 2e-12 of P0
        assert pair.nodes_used == prj._MAX_NODES and 1e-7 < pair.quad_error_est < 1e-5
        assert np.linalg.norm(pair.P - prj.free_projection(H.basis, 10), "fro") <= 1e-11

    def test_too_small_radius_is_refused(self, monkeypatch):
        # the level pair coupled into 99 and 105: a circle of radius 3
        # about 100 keeps 1 of the 2 eigenvalues of C_n
        H = level_matrix({10: 102.0}, coupling=3.0)
        assert sorted(H.eigenvalues()[np.abs(H.eigenvalues() - 100) < 10]) == \
            pytest.approx([99.0, 105.0])
        assert hp.riesz_projection(H, 10).converged
        monkeypatch.setattr(prj, "_level_radius", lambda H, n: 3.0)
        with pytest.raises(prj.RankMismatch):
            hp.riesz_projection(H, 10)


# w(-m) = -conj(w(m)): a real potential with a complex Hermitian L, whose
# projections are not real
COMPLEX_HERMITIAN = [(2, 0.3 + 0.4j), (-2, -0.3 + 0.4j), (4, 0.1j), (-4, 0.1j)]


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
        pair = level[2 if perturbed else 1]
        P = pair.P
        idem = np.linalg.norm(P @ P - P, "fro")
        assert abs(pair.idempotency - idem) <= 1e-13
        assert abs(pair.trace_defect - abs(np.trace(P) - pair.bc.rank)) <= 1e-13
        assert (idem > 1e-2) if perturbed else (idem < 1e-12)

    @pytest.mark.parametrize("block", [1, 7, 13])
    def test_sum_abs_B_over_row_blocks(self, level, block, monkeypatch):
        pair = level[2]
        monkeypatch.setattr(prj, "_ROW_BLOCK", block)
        fresh = dataclasses.replace(pair)  # sum_abs_B is cached per pair
        assert abs(fresh.sum_abs_B - np.abs(pair.B).sum()) <= 1e-14 * fresh.sum_abs_B

    def test_doubling_estimate(self, level, monkeypatch):
        H, pair, bad = level
        dense = np.linalg.norm(pair.P - bad.P, "fro")
        assert abs(prj._change((pair.X, pair.Y), (bad.X, bad.Y)) - dense) <= 1e-13
        # the estimate of the circle rule: 16 nodes, doubled once to 32
        monkeypatch.setattr(prj, "_TOL", 0.0)
        monkeypatch.setattr(prj, "_NODES", 16)
        circle = (pair.n, pair.cols, complex(pair.n ** 2), float(pair.n), pair.guard_margin)
        monkeypatch.setattr(prj, "_MAX_NODES", 16)
        p16, = prj._circle_rules(H, [circle])
        monkeypatch.setattr(prj, "_MAX_NODES", 32)
        p32, = prj._circle_rules(H, [circle])
        est = p32.quad_error_est
        assert p32.nodes_used == 32 and est > 1e-12 and not p32.converged
        assert abs(est - np.linalg.norm(p32.P - p16.P, "fro")) <= 1e-13


def dense_rect_quadrature(H, N, panels_scale, panel_nodes=20):
    """Reference: Gauss-Legendre panel sum of the full resolvent inverse.

    Same rectangle, panels and nodes as rectangle_projection, but every
    node inverts z - L densely, so the result has whatever rank the
    rectangle holds.
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
    """The panel doubling of rectangle_projection over the dense node sum."""
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
        assert np.linalg.norm(rect.P - S_ref, "fro") <= 1e-13
        assert rect.quad_error_est < 1e-9 and est_ref < 1e-9

    def test_non_hermitian_potential(self):
        p = pot.from_coeffs(0.3 + 0.2j, [(2, 0.5), (-2, 0.1j), (4, 0.2 - 0.3j)])
        H = hp.assemble(BC.PER_PLUS, p, 48)
        assert np.abs(H.L - H.L.T).max() > 0.1
        rect = prj.rectangle_projection(H, 4)
        S_ref, _ = dense_rectangle_projection(H, 4)
        assert np.linalg.norm(rect.P - S_ref, "fro") <= 1e-13

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


class TestLargestBaseBlock:
    """lpnorms builds base blocks up to N0 = 19 (N0 = max(4, min(levels) - 2))."""

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
        assert np.linalg.norm(rect.P - S_ref, "fro") <= 1e-13


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
    """block_projection: S_N as one factored ProjectionPair."""

    def test_zero_potential_coordinate_projection(self):
        H = hp.assemble(BC.PER_PLUS, pot.zero(), 48)
        blk = prj.block_projection(H, 4, 8)
        expect = np.diag([1.0 if k * k < 72 else 0.0 for k in H.basis.indices])
        assert np.abs(blk.P - expect).max() < 1e-10
        assert len(blk.cols) == 9 and blk.converged and blk.n == 8
        assert blk.frob < 1e-10 and blk.sum_abs_B < 1e-10

    @pytest.mark.parametrize("bc", [BC.PER_PLUS, BC.PER_MINUS, BC.DIRICHLET])
    def test_block_without_levels_is_the_base_block(self, bc):
        # S_N = S_N0 for N = N0: the parts' factors side by side are the
        # base block's own, and so is every piece of evidence
        H = hp.assemble(bc, gallery_potential("complex"), 48)
        blk, base = prj.block_projection(H, 4, 4), prj.rectangle_projection(H, 4)
        for f in dataclasses.fields(base):
            got, ref = getattr(blk, f.name), getattr(base, f.name)
            assert np.array_equal(got, ref) if isinstance(ref, np.ndarray) else got == ref

    def test_unconverged_rectangle_flags_the_block(self, monkeypatch):
        real = prj.rectangle_projection
        monkeypatch.setattr(prj, "rectangle_projection", lambda H, N: dataclasses.replace(
            real(H, N), quad_error_est=1e-3, converged=False))
        blk = prj.block_projection(hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 48), 4, 8)
        assert blk.quad_error_est == 1e-3 and not blk.converged

    def test_mathieu_trace_and_idempotency(self):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 48)
        blk = prj.block_projection(H, 4, 10)
        assert abs(blk.trace - len(blk.cols)) < 1e-6
        assert blk.idempotency < 1e-7

    @pytest.mark.parametrize("pname", ["mathieu", "delta", "complex"])
    @pytest.mark.parametrize("bc", [BC.PER_PLUS, BC.PER_MINUS, BC.DIRICHLET])
    def test_against_eigendecomposition(self, pname, bc):
        # independent of every contour: the eigenprojectors of the
        # eigenvalues in the N = 10 rectangle, from a dense eigendecomposition
        H = hp.assemble(bc, gallery_potential(pname), 48)
        blk = prj.block_projection(H, 4, 10)
        vals, vecs, vinv = H.eig()
        in_rect = (vals.real > -10) & (vals.real < 110) & (np.abs(vals.imag) < 10)
        assert len(blk.cols) == np.count_nonzero(in_rect)
        assert np.linalg.norm(blk.P - vecs[:, in_rect] @ vinv[in_rect], "fro") <= 1e-10

    @pytest.mark.parametrize("bc", [BC.PER_PLUS, BC.PER_MINUS, BC.DIRICHLET])
    def test_evidence_is_the_worst_part(self, bc, monkeypatch):
        monkeypatch.setattr(prj, "_NODES", 32)
        H = hp.assemble(bc, gallery_potential("complex"), 48)
        blk = prj.block_projection(H, 4, 10)
        pairs, errors = hp.riesz_projections(H, range(5, 11))
        assert sorted(errors) == [k for k in range(5, 11) if not bc.level_ok(k)]
        parts = [prj.rectangle_projection(H, 4), *pairs.values()]
        assert blk.trace_defect < 1e-10
        assert blk.guard_margin == min(p.guard_margin for p in parts)
        assert blk.quad_error_est == max(p.quad_error_est for p in parts)
        assert blk.nodes_used == sum(p.nodes_used for p in parts)
        assert blk.converged and all(p.converged for p in parts)
        idx = np.array(H.basis.indices)
        assert np.array_equal(np.sort(blk.cols), np.flatnonzero(idx * idx < 110))
        # the factored block is the sum of its dense parts
        assert np.linalg.norm(blk.P - sum(p.P for p in parts), "fro") <= 1e-12

    def test_base_block_starts_at_the_same_count(self, monkeypatch):
        # with no doubling, every part stops at _NODES, the base block too
        monkeypatch.setattr(prj, "_TOL", math.inf)
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 48)
        assert prj.rectangle_projection(H, 4).nodes_used == prj._NODES
        monkeypatch.setattr(prj, "_NODES", 32)
        assert prj.rectangle_projection(H, 4).nodes_used == 32
        blk = prj.block_projection(H, 4, 10)
        assert blk.nodes_used == 32 * 4  # the base block and the levels 6, 8, 10

    def test_rejects_reversed_range(self):
        H = hp.assemble(BC.PER_PLUS, pot.zero(), 48)
        with pytest.raises(ValueError):
            prj.block_projection(H, 10, 4)
