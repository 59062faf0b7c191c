"""Exact computational algebra for component groups of Prym varieties,
norm maps on quotient algebras, and spectral-polynomial constructions."""

__version__ = "0.1.0"

from .abelian import (
    AmbientMismatch,
    FinAbGroup,
    GroupHom,
    TorsionAmbient,
    TorsionSubgroup,
    dual_group,
    dual_of_inclusion,
    hermite_normal_form,
    intersect,
    preimage_mul,
    smith_normal_form,
    structure,
    subgroup_from_generators,
)
from .covers import (
    DoubleCoverData,
    FactoredSpectral,
    TwistedSpectralPoly,
    galois_pushforward,
    pullback_splits,
    squarefree_decompose,
    trace_translate,
)
from .norms import (
    AlgebraElement,
    ParentMismatch,
    SpectralPoly,
    mul_matrix,
    norm_component_law,
    norm_element,
    norm_multiplicativity_check,
    norm_power_law,
    norm_resultant_oracle,
    spectral_mul,
    spectral_pow,
)
from .polynomials import Poly, RatFunc, TPoly, resultant, yun_squarefree
from .spectral import (
    ComponentData,
    DescriptorError,
    EndoscopyReport,
    InvariantViolation,
    SpectralCoverDescriptor,
    ambient_modulus,
    endoscopic_dim,
    endoscopy_report,
    gamma_in_k,
    is_cn_cover,
    phi_surjection,
    pi0_prym,
    prym_component_group,
    variant_bound,
)
