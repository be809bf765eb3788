"""Numerical laboratory for block-spin lattice Green functions.

Builds the finite-lattice operators of multiscale renormalization (Neumann
Laplacians, block averaging, regularized propagators), verifies the exact
operator identities tying the scales together, and measures the exponential
decay of kernels uniformly in lattice spacing and volume.
"""

from .lattice import (FreePatch, LatticeGeometry, all_sites, block_sites,
                      coarse_geometry, image_points, make_geometry, positions,
                      sample_sites, scale_geometry)
from .operators import (DenseSizeError, Field, KernelOperator, SpectrumReport,
                        adjoint, apply, averaging, block_projector,
                        chebyshev_roots, compose, dct, identity, idct, invert,
                        laplacian_spectrum_1d, min_eigenvalue,
                        neumann_laplacian, scaling_unitary)
from .multiscale import (MultiscaleParams, RgOperators, TowerLevel, a_sequence,
                         c_identity_residual, green_j, green_neumann,
                         positivity_report, rg_operators, rg_step_residual,
                         rg_telescope_residual, scaling_residuals, tower_level)
from .fourier import (TorusGrid, bracket, free_apply_ghat, free_kernel_g,
                      free_kernel_gq, qkqk_fourier_residual, strip_bound_report)
from .images import (ImageSumResult, gq_kernel_via_images,
                     images_residual_report, neumann_kernel_via_images)
from .decay import (CtReport, DecayFit, conjugated_operator, ct_bound_report,
                    decay_profile, fit_decay)

__version__ = "0.1.0"
