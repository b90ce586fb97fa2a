"""Riesz spectral projections of Hill operators with rough periodic potentials."""

__version__ = "0.1.0"

from . import bounds, norms, operator, potential, projector  # noqa: F401
from .operator import BoundaryCondition, assemble, basis_for  # noqa: F401
from .potential import (  # noqa: F401
    FourierPotential,
    MajorantSeq,
    SinePotential,
    delta_comb,
    from_coeffs,
    majorant,
    mathieu,
    per_to_dir,
    sawtooth,
    zero,
)
from .projector import (  # noqa: F401
    ProjectionPair,
    eigen_count_in_disc,
    free_projection,
    rectangle_projection,
    riesz_projection,
    riesz_projections,
)
