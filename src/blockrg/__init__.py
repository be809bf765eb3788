"""Numerical laboratory for block-spin lattice Green functions.

Builds the finite-lattice operators of multiscale renormalization (Neumann
Laplacians, block averaging, regularized propagators), verifies the exact
operator identities tying the scales together, and measures the exponential
decay of kernels uniformly in lattice spacing and volume.
"""

from .lattice import (FreePatch, LatticeGeometry, all_sites, block_label,
                      block_sites, coarse_geometry, dist, dist_to_set,
                      image_points, make_geometry, positions, reflect,
                      sample_sites, scale_geometry, sup_dist)
from .operators import (DenseSizeError, Field, KernelOperator, SpectrumReport,
                        adjoint, apply, averaging, block_projector,
                        chebyshev_roots, chebyshev_u, compose, dct,
                        delta_field, identity, idct, inner, invert,
                        laplacian_spectrum_1d, min_eigenvalue,
                        neumann_laplacian, scaling_unitary)
from .multiscale import (MultiscaleParams, RgOperators, TowerLevel, a_sequence,
                         c_identity_residual, green_j, green_neumann,
                         positivity_report, rg_operators, rg_step_residual,
                         rg_telescope_residual, scaling_residuals, tower_level)
from .fourier import (TorusGrid, bracket, free_apply_ghat, free_kernel_g,
                      free_kernel_gq, h_function, laplacian_symbol,
                      qkqk_fourier_residual, strip_bound_report,
                      technical_bounds_report, u_delta, u_kernel)
from .images import (ImageSumResult, gq_kernel_via_images,
                     images_residual_report, neumann_kernel_via_images)
from .decay import (CtReport, DecayFit, conjugated_operator, ct_bound_report,
                    decay_profile, fit_decay, linf_report)

__version__ = "0.1.0"
