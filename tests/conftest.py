"""Shared fixtures: gallery potentials and cached projection sweeps.

The K = 256 sweeps are expensive (a contour quadrature per level), so
they are computed once per session and shared between the unit tests
and the acceptance suite.
"""

import time

import numpy as np
import pytest

import hillproj as hp
from hillproj import norms

BIG_K = 256

TIMINGS = {}  # fixture build times, consulted by the acceptance runtime checks

SWEEP_LEVELS = {
    hp.BoundaryCondition.PER_PLUS: tuple(range(6, 61, 2)),
    hp.BoundaryCondition.PER_MINUS: tuple(range(7, 40, 2)),
    hp.BoundaryCondition.DIRICHLET: tuple(range(6, 41)),
}


@pytest.fixture(scope="session")
def gallery():
    return {
        "mathieu": hp.mathieu(1.0),
        "delta": hp.delta_comb(0.5, max_index=1024),
    }


@pytest.fixture(scope="session")
def big_matrices(gallery):
    mats = {}
    for pname, pot in gallery.items():
        for bc in hp.BoundaryCondition:
            mats[pname, bc] = hp.assemble(bc, pot, BIG_K)
    return mats


@pytest.fixture(scope="session")
def sweeps(big_matrices):
    """(potential, bc) -> {n: ProjectionPair} over the standard level grids."""
    t0 = time.time()
    out = {}
    for (pname, bc), H in big_matrices.items():
        pairs, errors = hp.riesz_projections(H, SWEEP_LEVELS[bc])
        if errors:
            raise next(iter(errors.values()))
        out[pname, bc] = pairs
    TIMINGS["sweeps"] = time.time() - t0
    return out


@pytest.fixture(scope="session")
def decay_records(sweeps, gallery):
    """(potential, bc) -> list of DecayRecord over the sweep levels; the
    Dirichlet majorant reads the sine data through 2 BIG_K."""
    out = {}
    for (pname, bc), pairs in sweeps.items():
        p = gallery[pname] if bc.is_periodic_family else hp.per_to_dir(gallery[pname], 2 * BIG_K)
        r = hp.operator.majorant_for(p, bc)
        out[pname, bc] = [norms.decay_record(pairs[n], r) for n in sorted(pairs)]
    return out


def power_iteration_norm(B, iters=3000, seed=7):
    """Independent spectral-norm oracle: power iteration on B*B."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(B.shape[1]) + 1j * rng.standard_normal(B.shape[1])
    v /= np.linalg.norm(v)
    BtB = B.conj().T @ B
    lam = 0.0
    for _ in range(iters):
        w = BtB @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
        lam = nw
    return float(np.sqrt(lam))
