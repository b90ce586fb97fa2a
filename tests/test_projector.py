import math

import numpy as np
import pytest

import hillproj as hp
from hillproj import potential as pot
from hillproj import projector as prj

BC = hp.BoundaryCondition
PI = math.pi


class TestContourSpec:
    def test_for_level(self):
        c = prj.ContourSpec.for_level(8)
        assert c.center == 64.0 and c.radius == 8.0 and c.nodes == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            prj.ContourSpec(4.0, 0.0)
        with pytest.raises(ValueError):
            prj.ContourSpec(4.0, 2.0, nodes=15)
        with pytest.raises(ValueError):
            prj.ContourSpec(4.0, 2.0, nodes=8)


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

    def test_eigenvalue_on_contour_guard(self):
        # v0 = 10 shifts the level-10 cluster onto the contour |z - 100| = 10
        bad = pot.from_coeffs(10.0, [(2, 0.25), (-2, -0.25)])
        H = hp.assemble(BC.PER_PLUS, bad, 64)
        with pytest.raises(prj.EigenvalueOnContour):
            hp.riesz_projection(H, 10)

    def test_metadata(self):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 48)
        meta = hp.riesz_projection(H, 8).metadata()
        assert meta["n"] == 8 and meta["bc"] == "per+"
        for key in ("trace_re", "quad_error_est", "converged", "idempotency_residual",
                    "nodes"):
            assert key in meta

    def test_dump_projection(self, tmp_path):
        import json
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 48)
        pair = hp.riesz_projection(H, 8)
        path = prj.dump_projection(pair, tmp_path / "p.npz", fmt="npz")
        data = np.load(path)
        assert np.abs(data["P"] - pair.P).max() == 0.0
        meta = json.loads((tmp_path / "p.npz.meta.json").read_text())
        assert meta["n"] == 8 and "quad_error_est" in meta
        csv_path = prj.dump_projection(pair, tmp_path / "p.csv", fmt="csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0].split(",")[0] == "index"
        assert len(lines) == H.size + 1


def full_inverse_projection(H, n, nodes=64, tol=1e-10, max_nodes=512):
    """Reference: trapezoid node sum of the full resolvent inverse.

    Same contour, node doubling and error estimate as riesz_projection,
    but every node inverts z - L densely; returns (P, nodes_used).
    """
    c, R = complex(n * n), float(n)
    ident = np.eye(H.size, dtype=complex)

    def node_sum(thetas):
        acc = np.zeros((H.size, H.size), dtype=complex)
        for th in thetas:
            z = c + R * np.exp(1j * th)
            acc += np.exp(1j * th) * np.linalg.inv(z * ident - H.L)
        return acc

    Q = nodes
    thetas = 2.0 * np.pi * np.arange(Q) / Q
    S_even = node_sum(thetas[::2])
    S = S_even + node_sum(thetas[1::2])
    P = (R / Q) * S
    est = np.linalg.norm(P - (R / (Q // 2)) * S_even, "fro")
    while est >= tol and Q < max_nodes:
        S = S + node_sum(2.0 * np.pi * (np.arange(Q) + 0.5) / Q)
        Q *= 2
        P_new = (R / Q) * S
        est = np.linalg.norm(P_new - P, "fro")
        P = P_new
    return P, Q


class TestRankEngineVsFullInverse:
    """The rank-r moment formula against the dense node sum it replaced."""

    @pytest.mark.parametrize("pname", ["mathieu", "delta"])
    @pytest.mark.parametrize("bc,n", [(BC.PER_PLUS, 10), (BC.PER_MINUS, 9),
                                      (BC.DIRICHLET, 8)])
    def test_gallery(self, pname, bc, n):
        p = pot.mathieu(1.0) if pname == "mathieu" else pot.delta_comb(0.5, max_index=512)
        H = hp.assemble(bc, p, 64)
        pair = hp.riesz_projection(H, n)
        P_ref, q_ref = full_inverse_projection(H, n)
        assert np.linalg.norm(pair.P - P_ref, "fro") <= 1e-13
        assert pair.converged
        if bc.is_periodic_family:
            assert pair.nodes_used == q_ref
        else:
            # the rank-1 moments of the sine basis converge a doubling
            # earlier than the full resolvent (64 against 128 nodes)
            assert pair.nodes_used == q_ref // 2 == 64

    def test_non_hermitian_potential(self):
        p = pot.from_coeffs(0.3 + 0.2j, [(2, 0.5), (-2, 0.1j), (4, 0.2 - 0.3j)])
        H = hp.assemble(BC.PER_PLUS, p, 64)
        assert np.abs(H.L - H.L.T).max() > 0.1  # L^T != L, so Y differs from X
        pair = hp.riesz_projection(H, 8)
        P_ref, q_ref = full_inverse_projection(H, 8)
        assert np.linalg.norm(pair.P - P_ref, "fro") <= 1e-13
        assert pair.nodes_used == q_ref

    def test_empty_disc_raises(self):
        # v0 = 10 moves the level-8 pair to about 74, outside |z - 64| < 8
        p = pot.from_coeffs(10.0, [(2, 0.25), (-2, -0.25)])
        H = hp.assemble(BC.PER_PLUS, p, 48)
        assert prj.eigen_count_in_disc(H, 8) == 0
        with pytest.raises(prj.RankMismatch):
            hp.riesz_projection(H, 8)

    def test_unconverged_flag(self):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 64)
        pair = hp.riesz_projection(H, 8, tol=1e-30, max_nodes=64)
        assert pair.converged is False and pair.nodes_used == 64
        assert hp.riesz_projection(H, 8).converged is True


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


class TestQuadratureVsResidue:
    def test_zero_potential(self):
        dev = prj.quadrature_vs_residue_check(pot.zero(), BC.PER_PLUS, 8, 32)
        assert dev < 1e-14

    def test_mathieu_spectral_accuracy(self):
        dev = prj.quadrature_vs_residue_check(pot.mathieu(1.0), BC.PER_PLUS, 8, 64, 64)
        assert dev <= 1e-10

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


class TestBlockProjection:
    def test_zero_potential_coordinate_projection(self):
        H = hp.assemble(BC.PER_PLUS, pot.zero(), 48)
        blk = prj.block_projection(H, 4, 8)
        expect = np.diag([1.0 if k * k < 72 else 0.0 for k in H.basis.indices])
        assert np.abs(blk.S - expect).max() < 1e-10
        assert blk.free_dimension == 9

    def test_mathieu_trace_and_idempotency(self):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 48)
        blk = prj.block_projection(H, 4, 10)
        assert abs(blk.trace - blk.free_dimension) < 1e-6
        assert blk.idempotency < 1e-7

    def test_rejects_reversed_range(self):
        H = hp.assemble(BC.PER_PLUS, pot.zero(), 48)
        with pytest.raises(ValueError):
            prj.block_projection(H, 10, 4)
