"""Computing with finite biquandles.

Operation tables and axiom checking, module biquandles (Alexander-style and
affine switch constructions), two cross-validated isomorphism deciders, and
the homomorphism-counting invariant of virtual knots given by Gauss codes.

Hot loops run on the pure-Python kernels in ``biquandles.kernels``;
``BACKEND`` names them.
"""

from .alexander import SwitchReport, make_alexander, make_switch_biquandle
from .axioms import AxiomReport, verify_biquandle, yang_baxter_check
from .errors import (BiquandleError, GaussCodeError, MatrixParseError,
                     ModuleError, SwitchError, WitnessError)
from .isomorphism import (EnumerationResult, IsoWitness, SearchStats,
                          all_isomorphisms, assemble_witness_map,
                          brute_force_iso, enumerate_biquandles,
                          enumerate_homomorphisms, extract_witness,
                          fixed_point_profile, normalize_iso,
                          profiles_compatible, structural_iso)
from .kernels import BACKEND
from .knot import (Diagram, GaussCode, HomCountReport, ReidemeisterReport,
                   build_diagram, count_gauss, count_homs, kishino_codes,
                   parse_gauss_code, reidemeister_suite)
from .modules import (FiniteModule, ModuleIso, Submodule, Transversal,
                      counting_element_order, kernel_one_minus_s, make_module,
                      make_scalar_module, module_isomorphisms,
                      one_minus_st_submodule, s_orbit, translation_map,
                      transversal)
from .tables import (BiquandleTable, is_homomorphism, parse_matrix,
                     serialize_matrix, trivial_biquandle)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport", "BACKEND", "BiquandleError", "BiquandleTable", "Diagram",
    "EnumerationResult", "FiniteModule", "GaussCode", "GaussCodeError",
    "HomCountReport", "IsoWitness", "MatrixParseError", "ModuleError",
    "ModuleIso", "ReidemeisterReport", "SearchStats", "Submodule",
    "SwitchError", "SwitchReport", "Transversal", "WitnessError",
    "all_isomorphisms", "assemble_witness_map", "brute_force_iso",
    "build_diagram", "count_gauss", "count_homs", "counting_element_order",
    "enumerate_biquandles", "enumerate_homomorphisms", "extract_witness",
    "fixed_point_profile", "is_homomorphism",
    "kernel_one_minus_s", "kishino_codes", "make_alexander", "make_module",
    "make_scalar_module", "make_switch_biquandle", "module_isomorphisms",
    "normalize_iso", "one_minus_st_submodule", "parse_gauss_code",
    "parse_matrix", "profiles_compatible", "reidemeister_suite", "s_orbit",
    "serialize_matrix", "structural_iso", "translation_map", "transversal",
    "trivial_biquandle", "verify_biquandle", "yang_baxter_check",
]
