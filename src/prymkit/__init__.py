"""Exact computational algebra for component groups of Prym varieties,
norm maps on quotient algebras, and spectral-polynomial constructions.

Every public name below is loaded from its module on first access (PEP 562),
so ``import prymkit`` costs nothing beyond this file and a command line run
imports only the modules it uses."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in (
    ("abelian", "AmbientMismatch FinAbGroup GroupHom TorsionAmbient TorsionSubgroup "
                "dual_group dual_of_inclusion hermite_normal_form intersect "
                "preimage_mul smith_normal_form structure subgroup_from_generators"),
    ("covers", "DoubleCoverData FactoredSpectral TwistedSpectralPoly galois_pushforward "
               "pullback_splits squarefree_decompose trace_translate"),
    ("norms", "AlgebraElement ParentMismatch SpectralPoly norm_component_law "
              "norm_element norm_multiplicativity_check norm_power_law "
              "norm_resultant_oracle spectral_mul spectral_pow"),
    ("polynomials", "Poly TPoly yun_squarefree"),
    ("spectral", "ComponentData DescriptorError EndoscopyReport InvariantViolation "
                 "SpectralCoverDescriptor ambient_modulus endoscopic_dim endoscopy_report "
                 "gamma_in_k is_cn_cover phi_surjection pi0_prym prym_component_group "
                 "variant_bound"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
