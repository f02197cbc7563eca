"""Solvers and benchmarks for the tempered time-fractional advection-dispersion
equation on graded temporal meshes.

Two time-stepping methods are provided for the same Crank-Nicolson-type
half-time-level discretization: ``fast`` compresses the convolution history
through a certified sum-of-exponentials recurrence (O(M N n_exp) work),
``direct`` evaluates the exact-kernel history term by quadrature (O(M N^2)
work) and serves as the reference baseline.
"""

from tfade.mesh import SpatialGrid, TemporalMesh, graded_mesh, soe_interval, uniform_grid
from tfade.problems import ManufacturedCase, case, h1_norm, l2_norm, max_error, order_table
from tfade.soe import (
    CertificationError,
    SOEApprox,
    build_soe,
    certify_soe,
    eval_soe,
)
from tfade.solver import SchemeConfig, Trajectory, run, stability_probe, thomas_solve

__all__ = [
    "CertificationError",
    "ManufacturedCase",
    "SOEApprox",
    "SchemeConfig",
    "SpatialGrid",
    "TemporalMesh",
    "Trajectory",
    "build_soe",
    "case",
    "certify_soe",
    "eval_soe",
    "graded_mesh",
    "h1_norm",
    "l2_norm",
    "max_error",
    "order_table",
    "run",
    "soe_interval",
    "stability_probe",
    "thomas_solve",
    "uniform_grid",
]

__version__ = "0.1.0"
