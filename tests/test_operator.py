import math

import numpy as np
import pytest
from scipy.special import mathieu_a, mathieu_b

import hillproj as hp
from hillproj import operator as op
from hillproj import potential as pot

PI = math.pi
BC = hp.BoundaryCondition

NON_HERMITIAN = [(2, 0.5), (-2, 0.1j), (4, 0.2 - 0.3j)]
# w(-m) = -conj(w(m)): a real potential with a complex Hermitian L
COMPLEX_HERMITIAN = [(2, 0.3 + 0.4j), (-2, -0.3 + 0.4j), (4, 0.1j), (-4, 0.1j)]


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

    def test_level_indices(self):
        assert BC.PER_PLUS.level_indices(8) == (8, -8)
        assert BC.PER_MINUS.level_indices(9) == (9, -9)
        assert BC.DIRICHLET.level_indices(8) == (8,)
        # a basis holds a level when it holds every one of its indices
        assert op.basis_for(BC.PER_PLUS, 8).contains_level(8)
        assert not op.basis_for(BC.PER_PLUS, 8).contains_level(10)
        assert op.basis_for(BC.DIRICHLET, 8).contains_level(8)
        assert not op.basis_for(BC.DIRICHLET, 8).contains_level(9)


class TestFreeMatrix:
    def test_diagonals(self):
        for bc, diag in ((BC.PER_PLUS, [64, 36, 16, 4, 0, 4, 16, 36, 64]),
                         (BC.PER_MINUS, [49, 25, 9, 1, 1, 9, 25, 49]),
                         (BC.DIRICHLET, [1, 4, 9, 16, 25, 36, 49, 64])):
            assert np.array_equal(op.assemble(bc, pot.zero(), 8).L, np.diag(diag))

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
        assert H.eigenvalues() is vals  # one source: eig() never replaces them
        first = hp.assemble(BC.DIRICHLET, pot.mathieu(1.0), 32)
        first.eig()
        assert np.array_equal(first.eigenvalues(), vals)  # nor takes over when run first

    def test_hermitian_eigenvalues_are_real(self):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 32)
        assert H.hermitian
        vals = H.eigenvalues()
        assert vals.dtype == complex and not vals.imag.any()
        full = H.eig()[0]
        assert np.abs(vals - np.sort(full.real)).max() < 1e-10
        assert np.abs(full.imag).max() < 1e-10
        assert H.eigenvalues() is vals and not vals.imag.any()  # still eigvalsh's


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
        idx = np.array(H.basis.indices)
        assert np.allclose(np.diag(H.L), idx * idx + c / PI)

    @pytest.mark.parametrize("bc", list(BC))
    def test_real_potential_gives_hermitian_matrix(self, bc):
        # v real: w(-m) == -conj(w(m)); Hermitian bit for bit under every bc
        for p in (pot.mathieu(1.5), pot.delta_comb(0.5, max_index=64),
                  pot.sawtooth(1.0, max_index=64), pot.from_coeffs(0.25, COMPLEX_HERMITIAN)):
            H = hp.assemble(bc, p, 8)
            assert H.hermitian and np.array_equal(H.L, H.L.conj().T)
        assert not hp.assemble(bc, pot.from_coeffs(0.3, NON_HERMITIAN), 8).hermitian
        assert not hp.assemble(bc, pot.from_coeffs(0.1j, COMPLEX_HERMITIAN), 8).hermitian

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
        # v = 2 cos 2x has the antiderivative Q = sin 2x = -i (w(2) e^{2ix} + w(-2) e^{-2ix})
        H_auto = hp.assemble(BC.DIRICHLET, pot.mathieu(1.0), 8)
        sp = pot.SinePotential(0.0, {2: 1 / math.sqrt(2)}, 2, complete=True)
        H_direct = hp.assemble(BC.DIRICHLET, sp, 8)
        assert np.abs(H_auto.L - H_direct.L).max() < 1e-14

    def test_delta_comb_is_invisible_to_dirichlet(self):
        # the comb sits at x = 0, pi where sine eigenfunctions vanish: the
        # Dirichlet matrix is the free one.  Measured: off-diagonal entries
        # up to 5.9e-17 (rounding of |k-m| qt(|k-m|) - (k+m) qt(k+m)), and
        # the diagonal shift v0 - c/pi exactly 0
        c = 0.5
        H = hp.assemble(BC.DIRICHLET, pot.delta_comb(c, max_index=256), 16)
        assert H.hermitian
        offdiag = H.L - np.diag(np.diag(H.L))
        assert np.abs(offdiag).max() < 1e-15
        idx = np.array(H.basis.indices)
        assert np.abs(np.diag(H.L) - idx * idx).max() < 1e-15


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

    def test_coverage_ratio_reported(self, monkeypatch):
        assert hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 32).coverage == 1.0
        p = pot.delta_comb(1.0, max_index=40)
        monkeypatch.setattr(op, "COVERAGE_FLOOR", 0.5)
        H = hp.assemble(BC.PER_PLUS, p, 32)
        assert 0.5 < H.coverage < 1.0


class TestTransposeSymmetry:
    """L^T = J L J (per+-, J the index reversal) or L^T = L (Dirichlet), bit
    for bit: the contour quadrature takes the (z - L)^-T moments from the
    (z - L)^-1 moments by it."""

    @pytest.mark.parametrize("bc", list(BC))
    @pytest.mark.parametrize("pname", ["zero", "mathieu", "delta", "sawtooth",
                                       "non_hermitian", "complex_hermitian"])
    def test_assembled_gallery(self, pname, bc):
        p = {"zero": pot.zero, "mathieu": lambda: pot.mathieu(1.0),
             "delta": lambda: pot.delta_comb(0.5, max_index=512),
             "sawtooth": lambda: pot.sawtooth(1.0, max_index=512),
             "non_hermitian": lambda: pot.from_coeffs(0.3 + 0.2j, NON_HERMITIAN),
             "complex_hermitian": lambda: pot.from_coeffs(0.0, COMPLEX_HERMITIAN)}[pname]()
        for K in (40, 48, 64):
            H = hp.assemble(bc, p, K)
            if bc.is_periodic_family:
                assert H.basis.indices[::-1] == tuple(-k for k in H.basis.indices)
                assert np.array_equal(H.L.T, H.L[::-1, ::-1])
            else:
                assert np.array_equal(H.L.T, H.L)

    @pytest.mark.parametrize("bc", [BC.PER_PLUS, BC.PER_MINUS, BC.DIRICHLET])
    def test_hand_built_matrix_must_keep_it(self, bc):
        basis = op.basis_for(bc, 8)
        diag0 = np.array([float(k * k) for k in basis.indices])
        V = np.zeros((basis.size, basis.size), dtype=complex)
        V[0, 1] = V[1, 0] = 0.5  # symmetric in (k, m): L^T = L, but J L J != L
        if bc.is_periodic_family:
            with pytest.raises(ValueError, match="lattice symmetry"):
                op.HillMatrix(basis, np.diag(diag0) + V)
            V[-1, -2] = V[-2, -1] = 0.5  # and its mirror image
        op.HillMatrix(basis, np.diag(diag0) + V)
        V[2, 3] = 1.0  # one entry without its transpose partner
        with pytest.raises(ValueError, match="lattice symmetry"):
            op.HillMatrix(basis, np.diag(diag0) + V)


class TestCallerArrays:
    def test_construction_copies(self):
        basis = op.basis_for(BC.DIRICHLET, 8)
        L = np.diag([float(k * k) for k in basis.indices]).astype(complex)
        L[0, 1] = L[1, 0] = 0.5
        H = op.HillMatrix(basis, L)
        kept = H.L.copy()
        L[2, 2] = 7.0  # the caller's array stays writable ...
        assert np.array_equal(H.L, kept)  # ... and H does not see the write
        assert not H.L.flags.writeable


class TestCoupling:
    """``coupling`` and ``majorant_for``: the one owner of W(k, m)."""

    @pytest.mark.parametrize("bc", list(BC))
    @pytest.mark.parametrize("p", [pot.mathieu(1.0), pot.delta_comb(0.5, max_index=512),
                                   pot.sawtooth(1.0, max_index=512),
                                   pot.from_coeffs(0.3 + 0.2j, NON_HERMITIAN)],
                             ids=["mathieu", "delta", "sawtooth", "non_hermitian"])
    def test_matrix_entries(self, p, bc):
        H = hp.assemble(bc, p, 16)
        idx = np.array(H.basis.indices)
        W = op.coupling(p, bc, idx[:, None], idx[None, :])
        diag0 = (idx * idx).astype(float)
        assert np.array_equal(H.L, np.diag(diag0) + (W + complex(p.v0) * np.eye(H.size)))
        for i, j in ((0, 1), (3, 3), (2, -1)):
            assert op.coupling(p, bc, idx[i], idx[j]) == W[i, j]

    def test_dirichlet_reads_the_physical_q(self):
        # Q = sin 2x for v = 2 cos 2x: one sine coefficient 1/sqrt(2)
        r = op.majorant_for(pot.mathieu(1.0), BC.DIRICHLET, 16)
        assert r.step == 1 and r.max_index == 2
        assert np.isclose(r.get(2), 1 / math.sqrt(2), rtol=1e-15)
        # W(1, 3) = (2 qt(2) - 4 qt(4)) / sqrt(2) = 1, the cos 2x coupling
        assert np.isclose(op.coupling(pot.mathieu(1.0), BC.DIRICHLET, 1, 3), 1.0, rtol=1e-15)
        assert op.majorant_for(pot.mathieu(1.0), BC.PER_MINUS, 16).step == 2

    def test_sine_data_cannot_back_a_periodic_family(self):
        sp = pot.SinePotential(0.0, {2: 1.0}, 2)
        with pytest.raises(op.BcMismatch):
            op.coupling(sp, BC.PER_PLUS, 2, 4)
        with pytest.raises(op.BcMismatch):
            op.majorant_for(sp, BC.PER_MINUS, 8)


def characteristic_values(bc, q, count):
    """The lowest ``count`` eigenvalues of -y'' + 2q cos(2x) y under bc, from
    scipy's Mathieu characteristic values (y'' + (a - 2q cos 2x) y = 0):
    per+ = {a_0, a_2, b_2, ...}, per- = {a_1, b_1, ...}, dir = {b_1, b_2, ...}."""
    if bc is BC.PER_PLUS:
        vals = [mathieu_a(0, q)] + [f(m, q) for m in range(2, 2 * count, 2)
                                   for f in (mathieu_a, mathieu_b)]
    elif bc is BC.PER_MINUS:
        vals = [f(m, q) for m in range(1, 2 * count, 2) for f in (mathieu_a, mathieu_b)]
    else:
        vals = [mathieu_b(m, q) for m in range(1, count + 1)]
    return np.sort(vals)[:count]


class TestMathieuOracle:
    """Assembly against closed-form Mathieu characteristic values, which
    share no code with it.  Measured worst relative gaps over the lowest 8
    at K = 64: per+ 2.8e-13, per- 2.7e-13, dir 5.0e-15 (the periodic
    families are limited by scipy's a_m)."""

    @pytest.mark.parametrize("q", [1.0, 5.0, 25.0])
    @pytest.mark.parametrize("bc,rtol", [(BC.PER_PLUS, 1e-12), (BC.PER_MINUS, 1e-12),
                                         (BC.DIRICHLET, 2e-14)])
    def test_lowest_eigenvalues(self, bc, rtol, q):
        H = hp.assemble(bc, pot.mathieu(q), 64)
        assert H.hermitian
        vals = H.eigenvalues()[:8].real  # eigvalsh: ascending
        ref = characteristic_values(bc, q, 8)
        assert np.all(np.abs(vals - ref) <= rtol * np.maximum(1.0, np.abs(ref)))


class TestKronigPenney:
    """The delta comb v = M sum_j delta(x - j pi) against its Kronig-Penney
    discriminant D(lam) = cos(pi sqrt(lam)) + (M / 2 sqrt(lam)) sin(pi sqrt(lam)):
    the per+ eigenvalues solve D = 1 and the per- eigenvalues D = -1.  The
    truncation error falls like 1/K; measured max |D -+ 1| over the lowest 8:
    per+ 7.6e-4 at K = 128 and 1.9e-4 at K = 512, per- 1.1e-4 and 2.9e-5."""

    MASS = 0.5

    def defect(self, bc, K):
        H = hp.assemble(bc, pot.delta_comb(self.MASS, max_index=2 * K), K)
        lam = H.eigenvalues()[:8].real  # all positive for a positive mass
        s = np.sqrt(lam)
        disc = np.cos(PI * s) + self.MASS / (2 * s) * np.sin(PI * s)
        return float(np.abs(disc - (1 if bc is BC.PER_PLUS else -1)).max())

    @pytest.mark.parametrize("bc,tol128,tol512", [(BC.PER_PLUS, 1e-3, 2.5e-4),
                                                  (BC.PER_MINUS, 1.5e-4, 4e-5)])
    def test_lowest_eigenvalues_solve_the_discriminant(self, bc, tol128, tol512):
        coarse, fine = self.defect(bc, 128), self.defect(bc, 512)
        assert coarse < tol128 and fine < tol512
        assert fine < coarse / 2


class TestDirichletInsidePeriodic:
    """For even v the odd per+- eigenfunctions vanish at 0 and pi, and every
    Dirichlet eigenfunction extends oddly to one: the Dirichlet spectrum
    lies in the union of the per+ and per- spectra.  Measured worst
    relative gap over the lowest 20 at K = 64: 6.4e-13 (delta comb)."""

    @staticmethod
    def gap(p):
        dir_vals = hp.assemble(BC.DIRICHLET, p, 64).eigenvalues()[:20]
        per = np.concatenate([hp.assemble(bc, p, 64).eigenvalues()
                              for bc in (BC.PER_PLUS, BC.PER_MINUS)])
        dist = np.abs(dir_vals[:, None] - per[None, :]).min(axis=1)
        return float((dist / np.maximum(1.0, np.abs(dir_vals))).max())

    @pytest.mark.parametrize("p", [
        pot.mathieu(1.0), pot.mathieu(25.0), pot.delta_comb(0.5, max_index=512),
        pot.from_coeffs(0.3, [(2, 0.4), (-2, -0.4), (4, -0.1), (-4, 0.1), (8, 0.02), (-8, -0.02)]),
    ], ids=["mathieu_1", "mathieu_25", "delta", "custom_even"])
    def test_even_real_potentials(self, p):
        assert self.gap(p) <= 5e-12

    def test_not_for_an_odd_potential(self):
        # the sawtooth is real but not even: its Dirichlet levels fall between
        assert self.gap(pot.sawtooth(1.0, max_index=512)) > 0.1
