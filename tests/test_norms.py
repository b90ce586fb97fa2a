import cmath
import dataclasses
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def dense_ratio(basis, coeffs, M):
    """The same ratio from a dense (M + 1) x size grid of basis functions on
    x_j = pi j / M, one matrix product and the closed trapezoid weights."""
    xs = np.linspace(0.0, PI, M + 1)
    idx = np.array(basis.indices, dtype=float)
    if basis.bc.is_periodic_family:
        grid = np.exp(1j * np.outer(xs, idx))
    else:
        grid = math.sqrt(2.0) * np.sin(np.outer(xs, idx))
    mod = np.abs(grid @ coeffs)
    w = np.full(M + 1, PI / M)
    w[[0, -1]] *= 0.5
    return float((PI * mod.max(axis=0) / (w @ mod)).max())


def unit(basis, k):
    c = np.zeros((basis.size, 1), dtype=complex)
    c[basis.position(k)] = 1.0
    return c


def gaussian(rows, samples, seed):
    """rows x samples standard complex Gaussians from ``random.Random(seed)``
    by Box-Muller in row-major order: the sampler's W for Y = I, up to rounding."""
    rng = random.Random(seed)
    u = np.array([rng.random() for _ in range(2 * rows * samples)]).reshape(rows, samples, 2)
    return np.sqrt(-2.0 * np.log1p(-u[..., 0])) * np.exp(2j * PI * u[..., 1])


def ratio(basis, cols, M):
    """``_max_ratio`` of the coefficient columns themselves: X = cols, W = I."""
    return norms._max_ratio(basis, cols, np.eye(cols.shape[1]), M)


class TestSampler:
    """``norms._max_ratio``, the one evaluation of pi ||f||_inf / ||f||_1."""

    @pytest.mark.parametrize("bc", list(BC))
    def test_against_pointwise_oracle(self, bc):
        basis = hp.basis_for(bc, 5 if bc is BC.PER_MINUS else 4)
        rng = np.random.default_rng(3)
        cols = rng.standard_normal((basis.size, 3)) + 1j * rng.standard_normal((basis.size, 3))
        zero = np.zeros((basis.size, 1))
        for M in (1024, 1031):  # M intervals are M + 1 oracle points; 1031 is prime
            want = [oracle_ratio(basis, cols[:, j], M + 1) for j in range(3)]
            for j in range(3):
                assert abs(ratio(basis, cols[:, j:j + 1], M) - want[j]) < 1e-12
            # an all-zero column is dropped, not divided by
            assert abs(ratio(basis, np.hstack([cols, zero]), M) - max(want)) < 1e-12

    @pytest.mark.parametrize("bc", list(BC))
    def test_against_dense_grid_past_the_fft_length(self, bc):
        # degree 1100 on M = 1024: the scattered indices wrap the FFT length
        basis = hp.basis_for(bc, 1100)
        cols = gaussian(basis.size, 5, 7)
        want = dense_ratio(basis, cols, 1024)
        assert abs(ratio(basis, cols, 1024) - want) <= 1e-12 * want

    def test_constant_has_ratio_one(self):
        basis = hp.basis_for(BC.PER_PLUS, 8)
        assert abs(ratio(basis, unit(basis, 0), 8192) - 1.0) < 1e-12

    def test_dirichlet_unit_has_ratio_pi_over_two(self):
        # sqrt(2) sin 3x: grid max and trapezoid L^1 both within O(h^2)
        basis = hp.basis_for(BC.DIRICHLET, 8)
        assert abs(ratio(basis, unit(basis, 3), 8192) - PI / 2) < 1e-6

    @given(st.floats(min_value=0.01, max_value=50.0), st.floats(min_value=0.0, max_value=2 * PI))
    @example(1e-13, 0.0)  # |f|^2 of order 1e-25: the zero-column floor must scale with f
    @example(1e13, 1.0)
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, c, phase):
        basis = hp.basis_for(BC.PER_MINUS, 9)
        cols = np.random.default_rng(1).standard_normal((basis.size, 1)) + 0.3j
        a = ratio(basis, cols, 1024)
        b = ratio(basis, c * cmath.exp(1j * phase) * cols, 1024)
        assert abs(b - a) <= 1e-12 * a

    def test_grid_floor(self):
        basis = hp.basis_for(BC.PER_PLUS, 8)
        with pytest.raises(ValueError):
            ratio(basis, unit(basis, 0), 512)

    def test_all_zero_columns_refused(self):
        basis = hp.basis_for(BC.PER_PLUS, 8)
        with pytest.raises(ValueError):
            ratio(basis, np.zeros((basis.size, 4)), 1024)

    @pytest.mark.parametrize("bc", list(BC))
    def test_block_size_invariance(self, monkeypatch, bc):
        # one column per block against all 70 columns in one block
        basis = hp.basis_for(bc, 24)
        X, W = gaussian(basis.size, 2, 11), gaussian(2, 70, 12)
        monkeypatch.setattr(norms, "_BLOCK_VALUES", 1)
        one = norms._max_ratio(basis, X, W, 2048)
        monkeypatch.setattr(norms, "_BLOCK_VALUES", 10 ** 9)
        whole = norms._max_ratio(basis, X, W, 2048)
        assert abs(one - whole) <= 1e-14 * whole

    @pytest.mark.parametrize("bc", [BC.PER_PLUS, BC.DIRICHLET])
    def test_peak_memory_is_independent_of_the_grid(self, bc):
        # the whole grid of values would take 5.3-144 MB at these M
        basis = hp.basis_for(bc, 64)
        X, W = gaussian(basis.size, 2, 5), gaussian(2, 200, 6)
        for M in (4096, 8192, 65536):
            tracemalloc.start()
            try:
                norms._max_ratio(basis, X, W, M)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2 ** 20, (M, peak)

    @pytest.mark.parametrize("bc", list(BC))
    def test_factor_pair_against_dense_grid(self, bc):
        # two proportional columns of X: the last column w = (2, 1) of W has X w = 0
        basis = hp.basis_for(bc, 40)
        X = gaussian(basis.size, 1, 3) @ np.array([[1.0, -2.0]])
        W = np.hstack([gaussian(2, 4, 4), [[2.0], [1.0]]])
        want = dense_ratio(basis, X @ W[:, :4], 2048)
        assert abs(norms._max_ratio(basis, X, W, 2048) - want) <= 1e-12 * want
        with pytest.raises(ValueError):
            norms._max_ratio(basis, X, W[:, 4:], 2048)

    @pytest.mark.parametrize("bc,K,M,phases", [
        # K 24 at M 2048: per+- span 25 (per+) or 24 (per-) frequencies of a
        # 2048-point grid, L = 32 and P = 64 phases; the sine basis spans 49
        # of 4096, L = 64, P = 64, and sweeps P // 2 + 1 = 33 of them
        (BC.PER_PLUS, 24, 2048, 64), (BC.PER_MINUS, 24, 2048, 64), (BC.DIRICHLET, 24, 2048, 33),
        # an odd P: the sine basis spans 1001 of 3072, L = 1024, P = 3, and
        # phase 1 stands for phases 1 and 2
        (BC.DIRICHLET, 500, 1536, 2)])
    def test_sine_basis_sweeps_half_the_phases(self, monkeypatch, bc, K, M, phases):
        basis = hp.basis_for(bc, K)
        cols = gaussian(basis.size, 5, 13)
        calls, ifft = [], np.fft.ifft
        monkeypatch.setattr(norms.np.fft, "ifft", lambda *a, **k: calls.append(1) or ifft(*a, **k))
        got = ratio(basis, cols, M)
        assert len(calls) == phases  # one transform of the columns of X per phase
        want = dense_ratio(basis, cols, M)
        assert abs(got - want) <= 1e-12 * want


class TestDraws:
    """``norms._draws``: W with the law of Y^T g, drawn as R^H h from the stdlib
    MT19937 stream by Box-Muller."""

    def test_entries_in_row_major_order(self):
        # entry (i, c) of a 2 x 3 h takes the uniforms 2 (3 i + c) and the next one
        rng = random.Random(9)
        u = [rng.random() for _ in range(12)]
        h = norms._draws(np.eye(2), 3, 9)
        for i in range(2):
            for c in range(3):
                a, b = u[2 * (3 * i + c)], u[2 * (3 * i + c) + 1]
                want = math.sqrt(-2.0 * math.log(1.0 - a)) * cmath.exp(2j * PI * b)
                assert abs(h[i, c] - want) <= 1e-15 * abs(want)

    def test_standard_complex_gaussian_moments(self):
        g = norms._draws(np.eye(40), 1000, 4).ravel()
        for part in (g.real, g.imag):
            assert abs(part.mean()) < 0.03 and abs(part.var() - 1.0) < 0.05
        assert abs(np.mean(g.real * g.imag)) < 0.03
        assert abs(np.mean(np.abs(g) ** 4) - 8.0) < 0.5  # E|g|^4 = 8 for this g

    @pytest.mark.parametrize("q", [1, 2, 21])  # a Dirichlet level, a per+- level, a block
    def test_independent_of_zero_rows(self, q):
        # the draws read 2 q samples uniforms however many rows Y has
        Y = np.random.default_rng(2).standard_normal((50, q)) + 0.5j
        W = norms._draws(Y, 30, 8)
        assert W.shape == (q, 30)
        assert np.array_equal(norms._draws(np.vstack([Y, np.zeros((500, q))]), 30, 8), W)

    @pytest.mark.parametrize("rank", [2, 1])
    def test_covariance_is_that_of_y_transpose_g(self, rank):
        # E W W^H = Y^T E[g g^H] conj(Y) = 2 Y^T conj(Y), for a complex Y of
        # full rank and for one of rank 1
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((30, 2)) + 1j * rng.standard_normal((30, 2))
        if rank == 1:
            Y = Y[:, :1] @ np.array([[1.0, 2.0 - 1j]])
        samples = 40000
        W = norms._draws(Y, samples, 3)
        want = 2.0 * Y.T @ Y.conj()
        # each entry of the sample mean has a standard deviation of at most
        # about max |want| / sqrt(samples) = 0.005 max |want|
        assert np.abs(W @ W.conj().T / samples - want).max() <= 0.03 * np.abs(want).max()
        assert np.abs(W @ W.T / samples).max() <= 0.03 * np.abs(want).max()  # circular

    def test_no_samples(self):
        assert norms._draws(np.ones((9, 2)), 0, 1).shape == (2, 0)


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


    @pytest.mark.parametrize("bc", [BC.PER_PLUS, BC.DIRICHLET])
    def test_peak_memory_is_independent_of_size_and_samples(self, bc):
        # f = X W for all samples would take 4-95 MB here; W is drawn in the
        # q <= 2 columns of Y
        p = pot.delta_comb(0.5, max_index=8192)
        for K in (256, 1024):
            pair = hp.riesz_projection(hp.assemble(bc, p, K), 12)
            pair.sum_abs_B  # cached beforehand: it forms B by row blocks
            for samples in (200, 1000):
                tracemalloc.start()
                try:
                    rep = norms.equivalence_check(pair, samples=samples)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert rep.passed and peak < 2 * 2 ** 20, (K, samples, peak)


class TestBlockEquivalence:
    def test_zero_potential_dirichlet_kernel_scale(self):
        H = hp.assemble(BC.PER_PLUS, pot.zero(), 48)
        blk = prj.rectangle_projection(H, 10)
        rep = norms.sn_equivalence(blk, samples=100, M=4096)
        assert rep.passed
        # the concentrated spike has ratio of order N, far below 50 N ln N
        assert 1.0 <= rep.max_ratio <= 50 * 10 * math.log(10) / 10

    @pytest.mark.parametrize("bc", list(BC))
    def test_spike_is_the_block_kernel(self, bc):
        # zero potential: S_10 is the coordinate projection onto k^2 < 110,
        # and the spike alone (no samples) sums exactly those basis functions
        H = hp.assemble(bc, pot.zero(), 40)
        rep = norms.sn_equivalence(prj.rectangle_projection(H, 10), samples=0, M=1024)
        ones = [1.0 if k * k < 110 else 0.0 for k in H.basis.indices]
        assert rep.samples == 1
        assert abs(rep.max_ratio - oracle_ratio(H.basis, ones, 1025)) <= 1e-10 * rep.max_ratio


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
