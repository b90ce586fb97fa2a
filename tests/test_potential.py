import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hillproj as hp
import hillproj.potential as pot

PI = math.pi


def V(p, m):
    """The per+- coupling W(m, 0) = V(m) that the matrices carry."""
    return complex(hp.operator.coupling(p, hp.BoundaryCondition.PER_PLUS, m, 0))


def quad_fourier_coeff(q_values, xs, m):
    """Oracle: (1/pi) int_0^pi Q(x) exp(-i m x) dx by trapezoid."""
    return np.trapezoid(q_values * np.exp(-1j * m * xs), xs) / PI


def q_grid(p, xs):
    """Oracle: Q = -i sum w(m) exp(imx), from the literal series, on a grid."""
    return -1j * sum(c * np.exp(1j * m * xs) for m, c in zip(p.w.idx, p.w.val))


def q_grid_sine(sp, xs):
    """Oracle: Q(x) sampled from the sine coefficients."""
    return sum(c * math.sqrt(2.0) * np.sin(m * xs) for m, c in zip(sp.qt.idx, sp.qt.val))


class TestFromCoeffs:
    def test_zero_potential(self):
        p = pot.from_coeffs(0, [])
        assert p.l2_w == 0.0
        assert pot.majorant(p).norm == 0.0

    def test_sin2x_coefficients_match_quadrature_oracle(self):
        # Q(x) = sin 2x is the zero-mean antiderivative of v = 2 cos 2x, and
        # Q = -i sum w(m) e^{imx}: w(m) is i times the Fourier coefficient of Q
        xs = np.linspace(0.0, PI, 20001)
        q = np.sin(2 * xs)
        p = pot.from_coeffs(0, [(2, 0.5), (-2, -0.5)])
        assert p.w.get(2) == 0.5 and p.w.get(-2) == -0.5
        for m in (2, -2, 4):
            assert np.isclose(1j * quad_fourier_coeff(q, xs, m), p.w.get(m), atol=1e-10)
        # V(m) = m w(m) are the Fourier coefficients of v
        assert V(p, 2) == 1.0 and V(p, -2) == 1.0

    def test_rejects_zero_index(self):
        with pytest.raises(pot.ZeroIndex):
            pot.from_coeffs(0, [(0, 1.0)])

    def test_rejects_odd_index(self):
        with pytest.raises(pot.OddIndex):
            pot.from_coeffs(0, [(3, 1.0)])

    def test_rejects_duplicate_index(self):
        with pytest.raises(pot.DuplicateIndex):
            pot.from_coeffs(0, [(2, 1.0), (2, 2.0)])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            pot.from_coeffs(0, [(2, complex("nan"))])


class TestGallery:
    def test_mathieu_interaction_is_classical(self):
        p = pot.mathieu(1.0)
        assert V(p, 2) == 1.0 and V(p, -2) == 1.0
        assert p.complete
        assert all(hp.assemble(bc, p, 8).hermitian for bc in hp.BoundaryCondition)

    def test_delta_comb_pairing(self):
        # pairing the periodic delta against exp(-imx) gives V(m) = c/pi
        c = 1.0
        p = pot.delta_comb(c, max_index=200)
        assert np.isclose(p.w.get(2), 1.0 / (2 * PI))
        assert np.isclose(p.w.get(-2), -1.0 / (2 * PI))
        assert np.isclose(p.v0, c / PI)
        for m in (2, -2, 10, -50, 200):
            assert np.isclose(V(p, m), c / PI)

    def test_delta_comb_l2_partial_sum(self):
        p = pot.delta_comb(1.0, max_index=200)
        direct = sum(1.0 / (PI * m) ** 2 for m in range(-200, 201)
                     if m != 0 and m % 2 == 0)
        assert np.isclose(p.l2_w ** 2, direct, rtol=1e-12)

    def test_delta_comb_zero_mass(self):
        assert pot.delta_comb(0.0).l2_w == 0.0

    def test_sawtooth_is_selfadjoint_l2(self):
        p = pot.sawtooth(1.0, max_index=64)
        assert hp.assemble(hp.BoundaryCondition.PER_PLUS, p, 8).hermitian
        # oracle: V(m) must be the Fourier coefficient (1/pi) int s(x) e^{-imx}
        xs = np.linspace(0.0, PI, 40001)
        saw = (PI - 2 * xs) / (2 * PI)
        for m in (2, -2, 6, -10):
            oracle = np.trapezoid(saw * np.exp(-1j * m * xs), xs) / PI
            assert np.isclose(V(p, m), oracle, atol=1e-8), m
        assert np.isclose(V(p, 2), -1j / (2 * PI))


class TestMajorant:
    def test_zero(self):
        r = pot.majorant(pot.zero())
        assert r.norm == 0.0 and r.get(2) == 0.0

    def test_max_of_moduli(self):
        p = pot.from_coeffs(0, [(2, 3.0), (-2, -4.0j)])
        r = pot.majorant(p)
        assert r.get(2) == 4.0 and r.get(-2) == 4.0

    def test_delta_comb_values(self):
        r = pot.majorant(pot.delta_comb(1.0, max_index=100))
        for m in (2, 10, 100):
            assert np.isclose(r.get(m), 1.0 / (PI * m))

    def test_dominates_coefficients(self):
        entries = [(2, 1 + 1j), (-2, 0.5), (6, -2.0)]
        p = pot.from_coeffs(0, entries)
        r = pot.majorant(p)
        for m, _ in entries:
            assert r.get(m) >= abs(p.w.get(m)) and r.get(m) >= abs(p.w.get(-m))

    def test_r_zero_is_zero(self):
        with pytest.raises(ValueError):
            pot.MajorantSeq({0: 1.0}, step=2)


class TestTailEnergy:
    def test_zero_and_whole_sequence(self):
        r = pot.majorant(pot.delta_comb(1.0, max_index=100))
        assert pot.majorant(pot.zero()).tail_energy(5) == 0.0
        assert r.tail_energy(0) == r.norm

    def test_delta_matches_direct_sum(self):
        r = pot.majorant(pot.delta_comb(1.0, max_index=400))
        direct = math.sqrt(sum(1.0 / (PI * m) ** 2 for m in range(-400, 401)
                               if m % 2 == 0 and m != 0 and abs(m) >= 100))
        assert abs(r.tail_energy(100) - direct) < 1e-12

    @given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60))
    @settings(max_examples=30, deadline=None)
    def test_monotone_nonincreasing(self, a, b):
        r = pot.majorant(pot.delta_comb(0.7, max_index=64))
        lo, hi = min(a, b), max(a, b)
        assert r.tail_energy(hi) <= r.tail_energy(lo) + 1e-15


class TestPerToDir:
    def test_zero(self):
        sp = pot.per_to_dir(pot.zero(), 8)
        assert sp.l2_qt == 0.0

    def test_sin2x_gives_inverse_sqrt2(self):
        p = pot.from_coeffs(0, [(2, -0.5j), (-2, 0.5j)])  # the literal series is sin 2x
        sp = pot.per_to_dir(p, 8)  # of Q = -i sin 2x
        assert np.isclose(sp.qt.get(2), -1j / math.sqrt(2), atol=1e-14)
        assert abs(sp.qt.get(1)) < 1e-14 and abs(sp.qt.get(3)) < 1e-14

    def test_generic_coefficients_match_quadrature_oracle(self):
        p = pot.from_coeffs(0, [(2, 0.3 + 0.1j), (-2, -0.2), (4, 0.05j)])
        sp = pot.per_to_dir(p, 9)
        xs = np.linspace(0.0, PI, 40001)
        q = q_grid(p, xs)
        for m in range(1, 10):
            oracle = math.sqrt(2) / PI * np.trapezoid(q * np.sin(m * xs), xs)
            assert np.isclose(sp.qt.get(m), oracle, atol=1e-8), m

    def test_round_trip_for_pure_sine_potentials(self):
        # exact finite sine expansions exist iff Q has no cosine part
        rng = np.random.default_rng(3)
        entries = []
        for m in range(2, 65, 2):
            c = complex(rng.standard_normal(), rng.standard_normal()) / m
            entries += [(m, c), (-m, -c)]
        p = pot.from_coeffs(0, entries)
        sp = pot.per_to_dir(p, 64)
        xs = np.linspace(0.0, PI, 4096)
        assert np.abs(q_grid(p, xs) - q_grid_sine(sp, xs)).max() < 1e-8
        assert not sp.qt.get(np.arange(1, 65, 2)).any()  # summed in +-k pairs: exact zeros

    @staticmethod
    def odd_loop_reference(p, max_sine):
        """(indices, values) of the sine data with the odd-index sum run
        for every odd m, zero pairs or not: the conversion as it was
        before it skipped a pure sine series."""
        w = p.w
        s = np.zeros(max_sine + 1, dtype=complex)
        ev = np.arange(2, max_sine + 1, 2)
        s[ev] = ((1j * (w.get(ev) - w.get(-ev))).view(float) / math.sqrt(2.0)).view(complex)
        if len(w.idx):
            ks = np.unique(np.abs(w.idx))
            pairs, ksq = w.get(ks) + w.get(-ks), ks.astype(float) ** 2
            for m in range(1, max_sine + 1, 2):
                s[m] = (2.0 * math.sqrt(2.0) * m / math.pi) * np.sum(pairs / (m * m - ksq))
        ms = np.flatnonzero(s)
        return ms, -1j * s[ms]

    @pytest.mark.parametrize("pname", ["zero", "mathieu", "delta", "sawtooth", "mixed"])
    def test_bit_identical_to_the_odd_loop(self, pname):
        p = {"zero": pot.zero, "mathieu": lambda: pot.mathieu(1.0),
             "delta": lambda: pot.delta_comb(0.5, max_index=256),
             "sawtooth": lambda: pot.sawtooth(1.0, max_index=256),
             # an odd part (w(-2) = -w(2), w(-6) = -w(6)) and an even one
             "mixed": lambda: pot.from_coeffs(0.3, [(2, 0.4 + 0.1j), (-2, -0.4 - 0.1j),
                                                   (4, 0.2), (-4, 0.05j), (6, 0.01j),
                                                   (-6, -0.01j)])}[pname]()
        for max_sine in (1, 9, 300):
            sp = pot.per_to_dir(p, max_sine)
            ms, vals = self.odd_loop_reference(p, max_sine)
            assert sp.qt.idx.tobytes() == ms.tobytes()
            assert sp.qt.val.tobytes() == vals.tobytes()
        # truncated Fourier data cover only their own indices
        assert sp.max_index == (256 if pname in ("delta", "sawtooth") else 300)
        assert sp.v0 == p.v0

    def test_gallery_round_trip(self):
        for p in (pot.mathieu(1.0), pot.delta_comb(0.5, max_index=64)):
            sp = pot.per_to_dir(p, 64)
            xs = np.linspace(0.0, PI, 4096)
            assert np.abs(q_grid(p, xs) - q_grid_sine(sp, xs)).max() < 1e-8


class TestFlags:
    def test_real_q_flag(self):
        # w(-m) == conj(w(m)): the literal series sum w(m) e^{imx} is real,
        # so v is imaginary (V(m) = m w(m) anti-Hermitian)
        imaginary_v = pot.from_coeffs(0, [(2, -0.5j), (-2, 0.5j)])
        assert imaginary_v.hermitian_w
        assert not hp.assemble(hp.BoundaryCondition.PER_PLUS, imaginary_v, 8).hermitian
        assert not pot.mathieu(1.0).hermitian_w

    def test_delta_selfadjoint(self):
        p = pot.delta_comb(1.0, max_index=32)
        assert all(hp.assemble(bc, p, 8).hermitian for bc in hp.BoundaryCondition)

    @pytest.mark.parametrize("gap", [0.5e-15, 1.5e-15, 2.5e-15])
    def test_tolerance_is_cmath_isclose(self, gap):
        # at |w| ~ 1e-6 the relative and absolute tolerances are both 1e-15:
        # cmath.isclose takes their max, np.isclose would take their sum
        a, b = 1e-6, 1e-6 + gap
        expect = cmath.isclose(b, a, abs_tol=1e-15)
        assert pot.from_coeffs(0, [(2, a), (-2, b)]).hermitian_w == expect


class TestConfig:
    def test_kinds(self, tmp_path):
        assert pot.from_config({"kind": "zero"}).l2_w == 0.0
        assert V(pot.from_config({"kind": "mathieu", "coupling": 2.0}), 2) == 2.0
        p = pot.from_config({"kind": "delta_comb", "mass": 0.5, "truncation": 64})
        assert p.max_index == 64 and np.isclose(V(p, 2), 0.5 / PI)
        assert pot.from_config({"kind": "sawtooth", "amplitude": 1.0}).l2_w > 0

    def test_custom_triples(self):
        cfg = {"kind": "custom", "v0": [0.5, 0.0],
               "entries": [[2, 0.0, -0.5], [-2, 0.0, 0.5]]}
        p = pot.from_config(cfg)
        assert p.v0 == 0.5 and p.w.get(2) == -0.5j

    def test_errors(self):
        with pytest.raises(ValueError):
            pot.from_config({"kind": "unknown"})
        with pytest.raises(ValueError):
            pot.from_config({})

    def test_parse_arg_and_file(self, tmp_path):
        assert V(pot.parse_potential_arg("mathieu:2.0"), 2) == 2.0
        assert pot.parse_potential_arg("zero").l2_w == 0.0
        cfgfile = tmp_path / "potential.json"
        cfgfile.write_text(json.dumps({"kind": "mathieu", "coupling": 3.0}))
        assert V(pot.parse_potential_arg(f"file:{cfgfile}"), 2) == 3.0
        for arg in ("nope:1", "custom:1"):
            with pytest.raises(ValueError, match="cannot parse"):
                pot.parse_potential_arg(arg)

    @pytest.mark.parametrize("arg,cfg", [
        ("zero", {"kind": "zero"}),
        ("mathieu", {"kind": "mathieu"}),
        ("Mathieu:2.5", {"kind": "mathieu", "coupling": 2.5}),
        ("delta_comb:0.5", {"kind": "delta_comb", "mass": 0.5, "truncation": 96}),
        ("delta_comb:", {"kind": "delta_comb", "mass": 1.0, "truncation": 96}),
        ("sawtooth:-1.5", {"kind": "sawtooth", "amplitude": -1.5, "truncation": 96}),
    ])
    def test_shorthand_is_its_config(self, arg, cfg):
        a, b = pot.parse_potential_arg(arg, 96), pot.from_config(cfg, 96)
        assert np.array_equal(a.w.idx, b.w.idx) and np.array_equal(a.w.val, b.w.val)
        assert (a.v0, a.max_index, a.complete) == (b.v0, b.max_index, b.complete)


# -- sparse storage against a dict-based brute-force reference ------------------

def ref_window(seq, lo, hi, scale_by_index=False):
    tab = np.zeros(hi - lo + 1, dtype=complex)
    for m, c in seq.items():
        if lo <= m <= hi:
            tab[m - lo] = m * c if scale_by_index else c
    return tab


def ref_majorant(w):
    return {abs(m): max(abs(w.get(abs(m), 0.0)), abs(w.get(-abs(m), 0.0))) for m in w}


def ref_sq_sum(r, t):
    return 2.0 * sum(v * v for m, v in r.items() if m >= max(t, 1))


def ref_max_index(r):
    return max((m for m, v in r.items() if v > 0), default=0)


def ref_symmetric(w, flip):
    """Whether flip(w(-m)) == w(m) for every stored m, under cmath.isclose."""
    return all(cmath.isclose(flip(complex(w.get(-m, 0.0))), complex(c), abs_tol=1e-15)
               for m, c in w.items())


coef = st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))


@st.composite
def sparse_potential(draw):
    """Random sparse even-lattice w, sometimes (anti)Hermitian, and a window."""
    ms = draw(st.lists(st.integers(-60, 60).map(lambda k: 2 * k).filter(bool),
                       max_size=25, unique=True))
    w = {m: draw(coef) for m in ms}
    sym = draw(st.sampled_from([None, 1, -1]))
    if sym is not None:
        for m in [m for m in w if m > 0]:
            w[-m] = sym * w[m].conjugate()
    return w, draw(st.booleans()), draw(st.integers(1, 130))


class TestSparseStorage:
    @given(sparse_potential())
    @settings(max_examples=60, deadline=None)
    def test_fourier_side_matches_dict_reference(self, case):
        w, complete, D = case
        p = pot.FourierPotential(0.25, w, 40, complete=complete)
        assert np.array_equal(p.v_table(D), ref_window(w, -D, D, scale_by_index=True))
        assert p.hermitian_w == ref_symmetric(w, lambda c: c.conjugate())
        # the assembled matrix is Hermitian bit for bit exactly when every
        # coupling V(d), |d| <= 16, is the conjugate of V(-d)
        vt = ref_window(w, -16, 16, scale_by_index=True)
        assert (hp.assemble(hp.BoundaryCondition.PER_PLUS, p, 8).hermitian
                == np.array_equal(vt[::-1], vt.conj()))
        ms = np.arange(-130, 131)
        assert np.array_equal(p.covers(ms), [complete or abs(m) <= 40 for m in ms])
        assert p.covers(7) == (complete or 7 <= 40)
        ref = ref_majorant(w)
        r = pot.majorant(p)
        assert np.array_equal(r.table(D), ref_window(ref, 0, D).real)
        assert r.max_index == ref_max_index(ref)
        assert np.isclose(r.norm ** 2, ref_sq_sum(ref, 0), rtol=1e-14, atol=0)
        for t in (0.5, 2, 7.3, D, 200):
            assert np.isclose(r.tail_energy(t) ** 2, ref_sq_sum(ref, t), rtol=1e-14, atol=0)

    @given(st.dictionaries(st.integers(1, 90), coef, max_size=25),
           st.booleans(), st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_sine_side_matches_dict_reference(self, qt, complete, M):
        sp = pot.SinePotential(0.0, qt, 50, complete=complete)
        assert np.array_equal(sp.qt_table(M), ref_window(qt, 0, M))
        ms = np.arange(0, 101)
        assert np.array_equal(sp.covers(ms), [complete or m <= 50 for m in ms])
        ref = {m: abs(c) for m, c in qt.items() if abs(c) > 0}
        r = pot.majorant_dir(sp)
        assert np.array_equal(r.table(M), ref_window(ref, 0, M).real)
        assert r.max_index == ref_max_index(ref)
        assert np.isclose(r.norm ** 2, ref_sq_sum(ref, 0), rtol=1e-14, atol=0)
        for t in (1, 3.5, M):
            assert np.isclose(r.tail_energy(t) ** 2, ref_sq_sum(ref, t), rtol=1e-14, atol=0)

    def test_far_entries_stay_sparse(self):
        # a dense array over +-1e12 would need terabytes
        far = 10 ** 12
        cfg = {"kind": "custom", "entries": [[2, 0.5, 0.0], [-2, -0.5, 0.0],
                                             [far, 0.0, 1e-3], [-far, 2e-3, 0.0]]}
        p = pot.from_config(cfg)
        assert p.max_index == far
        near = pot.mathieu(1.0)
        for bc in hp.BoundaryCondition:
            H = hp.assemble(bc, p, 16)
            assert H.coverage == 1.0
            assert np.allclose(H.L, hp.assemble(bc, near, 16).L, rtol=1e-12, atol=1e-15)
        r = pot.majorant(p)
        assert r.max_index == far and r.get(-far) == 2e-3 and r.get(4) == 0.0
        sp = pot.per_to_dir(p, 32)
        assert np.allclose(sp.qt_table(32), pot.per_to_dir(near, 32).qt_table(32),
                           rtol=1e-12, atol=1e-15)
