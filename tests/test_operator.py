import math

import numpy as np
import pytest

import hillproj as hp
from hillproj import operator as op
from hillproj import potential as pot

PI = math.pi
BC = hp.BoundaryCondition


class TestBasis:
    def test_per_plus_indices(self):
        b = op.basis_for(BC.PER_PLUS, 4)
        assert b.indices == (-4, -2, 0, 2, 4)

    def test_per_minus_indices(self):
        b = op.basis_for(BC.PER_MINUS, 5)
        assert b.indices == (-5, -3, -1, 1, 3, 5)

    def test_dirichlet_indices(self):
        assert op.basis_for(BC.DIRICHLET, 3).indices == (1, 2, 3)

    def test_parse(self):
        assert BC.parse("per+") is BC.PER_PLUS
        assert BC.parse("Dirichlet") is BC.DIRICHLET
        with pytest.raises(ValueError):
            BC.parse("robin")

    def test_level_parity(self):
        assert BC.PER_PLUS.level_ok(8) and not BC.PER_PLUS.level_ok(9)
        assert BC.PER_MINUS.level_ok(9) and not BC.PER_MINUS.level_ok(8)
        assert BC.DIRICHLET.level_ok(8) and BC.DIRICHLET.level_ok(9)


class TestFreeMatrix:
    def test_diagonals(self):
        assert np.array_equal(op.free_matrix(op.basis_for(BC.PER_PLUS, 4)).diag0,
                              [16, 4, 0, 4, 16])
        assert np.array_equal(op.free_matrix(op.basis_for(BC.PER_MINUS, 5)).diag0,
                              [25, 9, 1, 1, 9, 25])
        assert np.array_equal(op.free_matrix(op.basis_for(BC.DIRICHLET, 3)).diag0,
                              [1, 4, 9])

    def test_zero_potential_eigenvalues_are_squares(self):
        H = hp.assemble(BC.PER_PLUS, pot.zero(), 16)
        vals = np.sort(H.eigenvalues().real)
        expect = np.sort([k * k for k in H.basis.indices])
        assert np.abs(vals - expect).max() < 1e-10

    def test_eigenvalues_skip_eigenvectors(self):
        H = hp.assemble(BC.DIRICHLET, pot.mathieu(1.0), 32)
        vals = H.eigenvalues()
        assert H._eig is None  # no eigenvectors were computed
        assert H.eigenvalues() is vals
        full = H.eig()[0]
        assert np.abs(np.sort_complex(vals) - np.sort_complex(full)).max() < 1e-10
        assert H.eigenvalues() is full  # eig() is preferred once cached


class TestAssemblePeriodic:
    def test_mathieu_matches_classical_matrix(self):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 8)
        idx = H.basis.indices
        expect = np.zeros((len(idx), len(idx)), dtype=complex)
        for i, k in enumerate(idx):
            for j, m in enumerate(idx):
                if k == m:
                    expect[i, j] = k * k
                elif abs(k - m) == 2:
                    expect[i, j] = 1.0
        assert np.abs(H.L - expect).max() == 0.0

    def test_delta_comb_constant_coupling(self):
        c = 1.0
        H = hp.assemble(BC.PER_PLUS, pot.delta_comb(c, max_index=64), 8)
        offdiag = H.L - np.diag(np.diag(H.L))
        mask = ~np.eye(H.size, dtype=bool)
        assert np.allclose(offdiag[mask], c / PI)
        assert np.allclose(np.diag(H.L), H.diag0 + c / PI)

    def test_selfadjoint_potential_gives_hermitian_matrix(self):
        for p in (pot.mathieu(1.5), pot.delta_comb(0.5, max_index=64),
                  pot.sawtooth(1.0, max_index=64)):
            H = hp.assemble(BC.PER_PLUS, p, 8)
            assert np.abs(H.L - H.L.conj().T).max() < 1e-15

    def test_per_minus_lattice(self):
        H = hp.assemble(BC.PER_MINUS, pot.mathieu(1.0), 9)
        i = H.basis.position(3)
        j = H.basis.position(1)
        assert H.L[i, j] == 1.0


class TestAssembleDirichlet:
    def test_sine_potential_real_symmetric(self):
        sp = pot.SinePotential(0.0, {2: 1 / math.sqrt(2)}, 2, complete=True)
        H = hp.assemble(BC.DIRICHLET, sp, 8)
        assert np.abs(H.L.imag).max() == 0.0
        assert np.abs(H.L - H.L.T).max() == 0.0

    def test_entry_formula(self):
        # coupling (|k-m| qt(|k-m|) - (k+m) qt(k+m)) / sqrt(2); multiplication
        # by 2 cos 2x in the sine basis has entries d_{|k-m|,2} - d_{k+m,2}
        sp = pot.SinePotential(0.0, {2: 1 / math.sqrt(2)}, 2, complete=True)
        H = hp.assemble(BC.DIRICHLET, sp, 8)
        idx = H.basis.indices
        for i, k in enumerate(idx):
            for j, m in enumerate(idx):
                expect = float(abs(k - m) == 2) - float(k + m == 2)
                if k == m:
                    expect += k * k
                assert np.isclose(H.L[i, j], expect), (k, m)

    def test_honest_sine_data_converts_to_the_same_matrix(self):
        p = pot.from_coeffs(0, [(2, -0.5j), (-2, 0.5j)])  # Q = sin 2x
        H_auto = hp.assemble(BC.DIRICHLET, p, 8)
        sp = pot.SinePotential(0.0, {2: 1 / math.sqrt(2)}, 2, complete=True)
        H_direct = hp.assemble(BC.DIRICHLET, sp, 8)
        assert np.abs(H_auto.L - H_direct.L).max() < 1e-14

    def test_delta_comb_is_invisible_to_dirichlet(self):
        # the comb sits at x = 0, pi where sine eigenfunctions vanish; the
        # literal conversion leaves only a constant (complex) diagonal shift
        c = 0.5
        H = hp.assemble(BC.DIRICHLET, pot.delta_comb(c, max_index=256), 16)
        offdiag = H.L - np.diag(np.diag(H.L))
        assert np.abs(offdiag).max() < 1e-15
        shift = np.diag(H.L) - H.diag0
        assert np.allclose(shift, c / PI - 1j * c / PI)


class TestAssembleValidation:
    def test_half_width_floor(self):
        with pytest.raises(ValueError):
            hp.assemble(BC.PER_PLUS, pot.zero(), 4)

    def test_bc_mismatch(self):
        sp = pot.SinePotential(0.0, {2: 1.0}, 2)
        with pytest.raises(op.BcMismatch):
            hp.assemble(BC.PER_PLUS, sp, 8)

    def test_insufficient_coefficients(self):
        p = pot.delta_comb(1.0, max_index=8)
        with pytest.raises(op.InsufficientCoefficients):
            hp.assemble(BC.PER_PLUS, p, 32)

    def test_coverage_ratio_reported(self):
        assert hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 32).coverage == 1.0
        p = pot.delta_comb(1.0, max_index=40)
        H = hp.assemble(BC.PER_PLUS, p, 32, coverage_floor=0.5)
        assert 0.5 < H.coverage < 1.0


class TestDump:
    def test_csv_round_readable(self, tmp_path):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 8)
        path = op.dump_matrix(H, tmp_path / "m.csv", fmt="csv")
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "index"
        assert [int(h) for h in header[1:]] == list(H.basis.indices)
        assert len(lines) == H.size + 1

    def test_npz_round_trip(self, tmp_path):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 8)
        path = op.dump_matrix(H, tmp_path / "m.npz", fmt="npz")
        data = np.load(path)
        assert np.array_equal(data["indices"], H.basis.indices)
        assert np.abs(data["L"] - H.L).max() == 0.0

    def test_bad_format(self, tmp_path):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 8)
        with pytest.raises(ValueError):
            op.dump_matrix(H, tmp_path / "m.x", fmt="hdf")
