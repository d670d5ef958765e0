"""Numerical laboratory for uniform W^{1,p} bounds of P1 Galerkin schemes
and for second-order elliptic operators on weighted graphs."""

from .mesh import MeshError, Polygon, Triangulation, refine_red, triangulate
from .graph import (GeometryReport, GraphError, WeightedGraph, ball, box_window,
                    distances_from, from_triangulation, geometry_report, h_star,
                    lattice_box, rescale)
from .spaces import (EmbeddingReport, SpaceError, df_grad_bracket, differential,
                     edge_lp_norm, embedding_report, gradient_length, holder_norm,
                     holder_seminorm, lp_norm, w1p_norm)
from .fem import (CoefficientField, FemError, MeyersProblem, P1Field, P1System,
                  apply_Lh, assemble, checkerboard_field, coefficient_field,
                  constant_field, f_h, identity_field, load, meyers_field,
                  meyers_problem, reconstruct, solve)
from .operators import (EdgeCoefficients, GraphOperator, KernelBoundFit,
                        KernelColumn, OperatorError, build_operator, contour_nodes,
                        expm_oracle, kernel_bound_check, kernel_column,
                        kernel_holder_fit, perturbed_coefficients,
                        resolvent_bound_sweep, resolvent_solve, semigroup_apply,
                        uniform_coefficients)
from .fitting import FitError, fit_loglog
from . import reference

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
