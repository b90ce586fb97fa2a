import cmath
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hillproj as hp
from hillproj import norms
from hillproj import potential as pot
from hillproj import projector as prj
from conftest import power_iteration_norm

PI = math.pi
BC = hp.BoundaryCondition


class TestSpectralNorm:
    """``ProjectionPair.t_n``, the spectral norm of B from its 2r x 2r core."""

    def test_zero_and_diagonal(self):
        H = hp.assemble(BC.PER_PLUS, pot.zero(), 40)
        pair = hp.riesz_projection(H, 8)
        assert pair.t_n < 1e-14 and pair.frob < 1e-14  # L diagonal: P = P0
        # 4 X gives P = 4 P0, so B = 3 P0: norm 3, Frobenius 3 sqrt(2)
        quad = dataclasses.replace(pair, X=4 * pair.X)
        assert abs(quad.t_n - 3) < 1e-12 and abs(quad.frob - 3 * math.sqrt(2)) < 1e-12

    def test_against_power_iteration(self):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 64)
        pair = hp.riesz_projection(H, 10)
        assert abs(pair.t_n - power_iteration_norm(pair.B)) < 1e-10


class TestNormChain:
    @pytest.mark.parametrize("pname", ["mathieu", "delta"])
    @pytest.mark.parametrize("bc,n", [(BC.PER_PLUS, 10), (BC.PER_MINUS, 9), (BC.DIRICHLET, 8)])
    def test_two_le_frob_le_abs_sum(self, pname, bc, n):
        p = pot.mathieu(1.0) if pname == "mathieu" else pot.delta_comb(0.5, max_index=512)
        pair = hp.riesz_projection(hp.assemble(bc, p, 48), n)
        assert 0 < pair.t_n <= pair.frob + 1e-15 and pair.frob <= pair.sum_abs_B


def oracle_ratio(basis, coeffs, M):
    """pi max|f| / int |f| with f summed point by point and an explicit
    trapezoid sum: no array synthesis, no shared weights."""
    h = PI / (M - 1)
    peak, l1 = 0.0, 0.0
    for j in range(M):
        x = j * h
        if basis.bc.is_periodic_family:
            f = sum(c * cmath.exp(1j * k * x) for k, c in zip(basis.indices, coeffs))
        else:
            f = sum(c * math.sqrt(2) * math.sin(k * x) for k, c in zip(basis.indices, coeffs))
        peak = max(peak, abs(f))
        l1 += abs(f) * (h / 2 if j in (0, M - 1) else h)
    return PI * peak / l1


def unit(basis, k):
    c = np.zeros((basis.size, 1), dtype=complex)
    c[basis.position(k)] = 1.0
    return c


class TestSampler:
    """``norms._max_ratio``, the one evaluation of pi ||f||_inf / ||f||_1."""

    @pytest.mark.parametrize("bc", list(BC))
    def test_against_pointwise_oracle(self, bc):
        basis = hp.basis_for(bc, 5 if bc is BC.PER_MINUS else 4)
        rng = np.random.default_rng(3)
        cols = rng.standard_normal((basis.size, 3)) + 1j * rng.standard_normal((basis.size, 3))
        want = [oracle_ratio(basis, cols[:, j], 1024) for j in range(3)]
        for j in range(3):
            assert abs(norms._max_ratio(basis, cols[:, j:j + 1], 1024) - want[j]) < 1e-12
        # an all-zero column is dropped, not divided by
        cols = np.hstack([cols, np.zeros((basis.size, 1))])
        assert abs(norms._max_ratio(basis, cols, 1024) - max(want)) < 1e-12

    @pytest.mark.parametrize("bc", list(BC))
    def test_basis_grid_is_complex(self, bc):
        # built complex once, so no block of ``_max_ratio`` recasts it
        basis = hp.basis_for(bc, 5 if bc is BC.PER_MINUS else 4)
        grid = norms._basis_grid(basis, 1024)
        assert grid.dtype == complex and grid.shape == (1024, basis.size)
        if bc is BC.DIRICHLET:
            xs = np.linspace(0.0, PI, 1024)
            assert np.array_equal(grid.real, math.sqrt(2.0) * np.sin(np.outer(xs, basis.indices)))
            assert not grid.imag.any()

    def test_constant_has_ratio_one(self):
        basis = hp.basis_for(BC.PER_PLUS, 8)
        assert abs(norms._max_ratio(basis, unit(basis, 0), 8192) - 1.0) < 1e-12

    def test_dirichlet_unit_has_ratio_pi_over_two(self):
        # sqrt(2) sin 3x: grid max and trapezoid L^1 both within O(h^2)
        basis = hp.basis_for(BC.DIRICHLET, 8)
        assert abs(norms._max_ratio(basis, unit(basis, 3), 8192) - PI / 2) < 1e-6

    @given(st.floats(min_value=0.01, max_value=50.0), st.floats(min_value=0.0, max_value=2 * PI))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, c, phase):
        basis = hp.basis_for(BC.PER_MINUS, 9)
        cols = np.random.default_rng(1).standard_normal((basis.size, 1)) + 0.3j
        a = norms._max_ratio(basis, cols, 1024)
        b = norms._max_ratio(basis, c * cmath.exp(1j * phase) * cols, 1024)
        assert abs(b - a) <= 1e-12 * a

    def test_grid_floor(self):
        basis = hp.basis_for(BC.PER_PLUS, 8)
        with pytest.raises(ValueError):
            norms._max_ratio(basis, unit(basis, 0), 512)

    def test_all_zero_columns_refused(self):
        basis = hp.basis_for(BC.PER_PLUS, 8)
        with pytest.raises(ValueError):
            norms._max_ratio(basis, np.zeros((basis.size, 4)), 1024)

    @pytest.mark.parametrize("block", [1, 10 ** 6])
    def test_block_size_invariance(self, monkeypatch, block):
        basis = hp.basis_for(BC.DIRICHLET, 24)
        cols = norms._draws(basis, 70, 11)
        want = norms._max_ratio(basis, cols, 2048)
        monkeypatch.setattr(norms, "_COL_BLOCK", block)
        assert abs(norms._max_ratio(basis, cols, 2048) - want) <= 1e-14 * want

    def test_peak_memory_is_bounded_by_the_block(self):
        # the whole M x samples array of values would take 131 MB here
        pair = hp.riesz_projection(hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 64), 12)
        tracemalloc.start()
        try:
            norms.equivalence_check(pair, samples=1000, M=8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestDecayRecord:
    def test_zero_potential_record(self):
        H = hp.assemble(BC.PER_PLUS, pot.zero(), 40)
        pair = hp.riesz_projection(H, 8)
        rec = norms.decay_record(pair, pot.majorant(pot.zero()))
        assert rec.sum_abs_B < 1e-12 and rec.t_n < 1e-12
        assert rec.kappa_n == max(rec.rho_n, rec.eps_n)
        assert rec.bound64 == 64 * rec.kappa_n
        assert not rec.bound_valid  # eps floor keeps kappa above 1/4 here

    def test_chain_holds_on_real_data(self):
        p = pot.mathieu(1.0)
        H = hp.assemble(BC.PER_PLUS, p, 64)
        rec = norms.decay_record(hp.riesz_projection(H, 10), pot.majorant(p))
        assert rec.t_n <= rec.frob <= rec.sum_abs_B
        assert rec.l1_linf_bound == rec.sum_abs_B  # D = 1 for exponentials

    def test_dirichlet_sup_constant(self):
        sp = pot.SinePotential(0.0, {2: 1 / math.sqrt(2)}, 2, complete=True)
        H = hp.assemble(BC.DIRICHLET, sp, 48)
        rec = norms.decay_record(hp.riesz_projection(H, 8),
                                 pot.majorant_dir(sp))
        assert np.isclose(rec.l1_linf_bound, 2.0 * rec.sum_abs_B)  # D^2 = 2


class TestEquivalence:
    def test_free_periodic_within_three(self):
        H = hp.assemble(BC.PER_PLUS, pot.zero(), 48)
        pair = hp.riesz_projection(H, 8)
        rep = norms.equivalence_check(pair, samples=300, M=4096)
        assert rep.regime_ok and rep.passed
        assert rep.max_ratio <= 3.0 + 0.05

    def test_free_dirichlet_ratio_is_pi_over_two(self):
        # every element of the range is c sqrt(2) sin nx: the ratio
        # pi ||f||_inf / ||f||_1 equals pi/2 identically
        H = hp.assemble(BC.DIRICHLET, pot.zero(), 48)
        pair = hp.riesz_projection(H, 6)
        rep = norms.equivalence_check(pair, samples=50, M=8192)
        assert abs(rep.max_ratio - PI / 2) < 2e-3

    def test_regime_flag_reported_not_failed(self):
        # strong coupling pushes the deviation proxy above 1/2 at small n
        p = pot.mathieu(6.0)
        H = hp.assemble(BC.PER_PLUS, p, 64)
        pair = hp.riesz_projection(H, 8)
        rep = norms.equivalence_check(pair, samples=50, M=2048)
        assert not rep.regime_ok and rep.passed
        assert "proxy" in rep.note

    def test_determinism(self):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 48)
        pair = hp.riesz_projection(H, 10)
        a = norms.equivalence_check(pair, samples=100, M=2048, seed=5)
        b = norms.equivalence_check(pair, samples=100, M=2048, seed=5)
        assert a.max_ratio == b.max_ratio


class TestBlockEquivalence:
    def test_zero_potential_dirichlet_kernel_scale(self):
        H = hp.assemble(BC.PER_PLUS, pot.zero(), 48)
        blk = prj.block_projection(H, 4, 10)
        rep = norms.sn_equivalence(blk, samples=100, M=4096)
        assert rep.passed
        # the concentrated spike has ratio of order N, far below 50 N ln N
        assert 1.0 <= rep.max_ratio <= 50 * 10 * math.log(10) / 10

    @pytest.mark.parametrize("bc", list(BC))
    def test_spike_is_the_block_kernel(self, bc):
        # zero potential: S_10 is the coordinate projection onto k^2 < 110,
        # and the spike alone (no samples) sums exactly those basis functions
        H = hp.assemble(bc, pot.zero(), 40)
        rep = norms.sn_equivalence(prj.block_projection(H, 4, 10), samples=0, M=1024)
        ones = [1.0 if k * k < 110 else 0.0 for k in H.basis.indices]
        assert rep.samples == 1
        assert abs(rep.max_ratio - oracle_ratio(H.basis, ones, 1024)) <= 1e-10 * rep.max_ratio


class TestSerialization:
    def test_csv_and_json(self):
        H = hp.assemble(BC.PER_PLUS, pot.mathieu(1.0), 48)
        r = pot.majorant(pot.mathieu(1.0))
        recs = [norms.decay_record(hp.riesz_projection(H, n), r) for n in (8, 10)]
        # the frozen CSV columns are the first fields of every JSON record
        for rec in recs:
            row = dataclasses.asdict(rec)
            assert list(row)[:len(norms.DECAY_CSV_COLUMNS)] == norms.DECAY_CSV_COLUMNS
            assert json.loads(json.dumps(row, allow_nan=False)) == row
