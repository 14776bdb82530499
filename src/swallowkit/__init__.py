"""swallowkit: swallowtail germs in conformal space forms.

Representation formulas, sign invariants and classification, certified
deformation families, and the constant-curvature pipeline, built on a
truncated-Taylor jet engine whose kernels are numpy index-table operations.
"""

from .builder import (AsymptoticData, BuildError, SwallowtailData, build,
                      build_asymptotic, convert_to_asymptotic_form, discriminants,
                      exists_swallowtail_along, extract_data, flip_data,
                      normal_on_axis)
from .curves import (CurveGerm, CuspFactorization, FrenetData, classify_cusp,
                     factor_cusp, integrate_frenet, mirror_properties,
                     normalize_half_arclength)
from .deform import (Certificate, DeformationFamily, certify,
                     coordinate_homotopy, deform_any_swallowtail,
                     deform_flip_sigma_S, deform_lemma_3_7,
                     deform_make_generic, deform_theorem_A, deform_theorem_D)
from .frontal import (ClassificationError, MapGerm, SingularityReport, classify,
                      gaussian_curvature, lambda_jet, limit_normal_at_second_kind,
                      normalized_cuspidal_curvature, limiting_normal_curvature,
                      sigma0_C, sigma0_S, sigma_g_C, sigma_g_S, singular_set_grid)
from .jets import Expr, Jet2, JetError, ParseError, diff, parse, to_source
from .metric import SpaceForm, DomainError, conformal_factor

__version__ = "0.1.0"
