"""HDG and WG discretizations of the mixed-form Poisson problem on the
unit square, with stability and limit-behavior study harnesses."""

__version__ = "0.1.0"

from .mesh import Mesh, build_structured_mesh
from .spaces import SpaceCase, build_space_triple
from .assembly import (
    CoefficientField,
    assemble_hdg,
    assemble_mixed_conforming,
    assemble_primal_conforming,
    assemble_wg,
)
from .linalg import min_generalized_singular_value, solve_symmetric_indefinite
from .norms import assemble_norm_gram, compute_error_norm
from .norms import consistency_residual, dg_identity_residual
from .experiments import (
    manufactured_case,
    run_convergence_study,
    run_infsup_study,
    run_rho_limit_study,
)
