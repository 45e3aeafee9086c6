"""Exact-arithmetic Hopf cyclic cohomology.

Finite-dimensional Hopf algebras, stable anti-Yetter-Drinfeld modules and
contramodules, the cocyclic modules they define, Hochschild and cyclic
cohomology at low degree, and cup products pairing the theories -- all over
exact rational arithmetic with machine-verified structural identities.

Names resolve on first use: `import hopfcyclic` loads no engine layer, and
reading an exported name (or a layer, as `hopfcyclic.cup`) imports the layer
that defines it.  No copy is kept here: each read returns the layer's own
attribute, so a layer function that is patched or traced shows through.
"""

import sys

# layer -> the names it exports
_LAYERS = {
    "cocyclic": (
        "CocyclicModule",
        "algebra_contra_cocyclic",
        "algebra_module_cocyclic",
        "coalgebra_cocyclic",
        "comodule_algebra_cocyclic",
        "cyclic_cohomology",
        "hochschild_cohomology",
        "mixed_complex",
        "plain_algebra_cocyclic",
        "verify_cocyclic",
    ),
    "coefficients": (
        "CompatiblePair",
        "SaydContramodule",
        "SaydModule",
        "check_compatible_pair",
        "check_sayd_contramodule",
        "check_sayd_module",
        "contratensor",
        "dualize",
        "evaluation_pair",
        "grouplike_coefficients",
        "trivial_coefficients",
    ),
    "cup": (
        "BBcocycle",
        "BicocyclicModule",
        "CompletionObstruction",
        "TotalMixedComplex",
        "aa_cup_setup",
        "ac_cup_setup",
        "bb_cohomologous",
        "check_aw_chain_map",
        "check_bb_cocycle",
        "check_bicocyclic",
        "check_collapse_factorization",
        "check_phi",
        "check_psi",
        "check_total_mixed_complex",
        "collapse_bb",
        "cup_aa",
        "cup_aa_general",
        "cup_ac",
        "cup_ac_general",
        "cyclic_cocycle_subspace",
        "cyclic_complete",
        "diagonal",
        "tensor_bicocyclic",
        "total_complex",
    ),
    "hopf": (
        "Algebra",
        "Coalgebra",
        "CoalgebraAction",
        "ComoduleAlgebra",
        "HopfAlgebra",
        "ModuleAlgebra",
        "ModuleCoalgebra",
        "adjoint_action",
        "check_coalgebra_action",
        "check_comodule_algebra",
        "check_hopf_axioms",
        "check_module_algebra",
        "check_module_coalgebra",
        "crossed_product",
        "cyclic_group_table",
        "group_algebra",
        "left_regular_action",
        "regular_coaction",
        "sweedler_h4",
        "symmetric_group_table",
        "trivial_action",
        "trivial_coaction",
        "trivial_hopf",
    ),
    "linalg": (
        "Fraction",
        "LinAlgError",
        "LinearMap",
        "MembershipError",
        "Rational",
        "VectorSpace",
        "tensor_map",
        "tensor_permutation",
        "tensor_space",
    ),
    "reporting": ("Report", "ReportEntry"),
    "specfile": ("SpecError", "SpecFile", "parse_spec"),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted(_LAYER_OF)

__version__ = "0.1.0"


def __getattr__(name):
    """The exported `name` as its layer holds it now, or the layer `name`
    itself; either way the layer is imported on first use."""
    layer = name if name in _LAYERS else _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    path = f"{__name__}.{layer}"
    __import__(path)
    module = sys.modules[path]
    return module if layer == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
