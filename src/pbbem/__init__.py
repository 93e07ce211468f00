"""Boundary-integral Poisson-Boltzmann solver on curved molecular surfaces.

Solves the linearized Poisson-Boltzmann equation for a dielectric solute in
an ionic solvent using a well-posed second-kind boundary-integral formulation
on a triangulated molecular surface. Two discretizations are provided: a
higher-order scheme on 10-node cubic curved elements with vertex collocation
and regularized singular quadrature (HOBI), and a low-order centroid
collocation scheme on flat triangles (LOBI). The operator is applied
matrix-free and solved with GMRES; Kirkwood sphere series provide
analytic references for verification.
"""

from .kernels import PhysicalParams
from .kirkwood import SphereProblem, kirkwood_centered, kirkwood_series
from .mesh import (
    ChargeSystem,
    FlatMesh,
    icosahedral_sphere,
    parse_charges,
    parse_msms,
    write_msms,
)
from .report import RunReport
from .solver import (
    DiscretizedProblem,
    GmresBreakdown,
    GmresNonConvergence,
    SolverConfig,
    SurfaceSolution,
    WorkerDied,
    assemble_rhs,
    convergence_order,
    discretize,
    gmres_solve,
    make_operator,
    matvec_hobi,
    matvec_lobi,
    solvation_energy,
    solve,
    surface_potential_error,
)

__version__ = "0.1.0"

__all__ = [
    "ChargeSystem",
    "DiscretizedProblem",
    "FlatMesh",
    "GmresBreakdown",
    "GmresNonConvergence",
    "PhysicalParams",
    "RunReport",
    "SolverConfig",
    "SphereProblem",
    "SurfaceSolution",
    "WorkerDied",
    "assemble_rhs",
    "convergence_order",
    "discretize",
    "gmres_solve",
    "icosahedral_sphere",
    "kirkwood_centered",
    "kirkwood_series",
    "make_operator",
    "matvec_hobi",
    "matvec_lobi",
    "parse_charges",
    "parse_msms",
    "solvation_energy",
    "solve",
    "surface_potential_error",
    "write_msms",
]
