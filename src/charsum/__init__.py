"""Exact-angle character sums over finite fields: verification checks
for square-root cancellation bounds, pseudo-finite counting measures,
and equidistribution experiments on root angles.

The arithmetic core works in exact rational angles (fractions of a full
turn); complex floats appear only when angles are finally summed.
"""

from ._version import __version__
from .angles import (Angle, CharacterDesc, psi_p, standard_character,
                     twisted_character, unit_roots)
from .equidist import (SPReport, SweepReport, dfi_extended_sweep, dfi_sweep,
                       ks_statistic, multi_weyl, sample_histogram, sp_check,
                       weyl_sum)
from .errors import BadPrimeError, BudgetError, CharsumError, ParseError
from .ffield import (ExtFieldDesc, FqElem, build_extension, fq_trace,
                     frobenius, prime_field, sqrt_mod)
from .laurent import LaurentPoly, laurent_from_expression
from .measure import (MeasureSeries, PushforwardMoments, ValueTable,
                      constant_table, delta_table, fourier_table, mu0_sweep,
                      mu1_sweep, pushforward_weyl)
from .mpoly import MPoly
from .nfield import (LatticeBasis, NFElem, NumberFieldDesc, ValueSetDesc,
                     hnf, lattice_basis, nf_build, nf_reduce, qlin_relations,
                     value_set)
from .parser import PolyExpr, parse_polynomial, poly_to_string, print_polynomial
from .points import count_points, enumerate_points, sample_points
from .polyroots import poly_roots_fq, roots_mod_p
from .primes import is_prime, next_prime, primes_in
from .rootsums import (PsiSymTerm, kappa_eval, make_term, psisym_add,
                       psisym_conj, psisym_eval, psisym_mul, rational_roots)
from .weil import (BoxCountResult, HyperplaneResult, SupResult, WeilRecord,
                   axiom3_sup, box_count, exp_sum, hyperplane_height_test,
                   weil_check, weil_check_curve, weil_sweep)

__all__ = [
    "__version__",
    "Angle", "CharacterDesc", "psi_p", "standard_character",
    "twisted_character", "unit_roots",
    "SPReport", "SweepReport", "dfi_extended_sweep", "dfi_sweep",
    "ks_statistic", "multi_weyl", "sample_histogram", "sp_check", "weyl_sum",
    "BadPrimeError", "BudgetError", "CharsumError", "ParseError",
    "ExtFieldDesc", "FqElem", "build_extension", "fq_trace", "frobenius",
    "prime_field", "sqrt_mod",
    "LaurentPoly", "laurent_from_expression",
    "MeasureSeries", "PushforwardMoments", "ValueTable", "constant_table",
    "delta_table", "fourier_table", "mu0_sweep", "mu1_sweep",
    "pushforward_weyl",
    "MPoly",
    "LatticeBasis", "NFElem", "NumberFieldDesc", "ValueSetDesc", "hnf",
    "lattice_basis", "nf_build", "nf_reduce", "qlin_relations", "value_set",
    "PolyExpr", "parse_polynomial", "poly_to_string", "print_polynomial",
    "count_points", "enumerate_points", "sample_points",
    "poly_roots_fq", "roots_mod_p",
    "is_prime", "next_prime", "primes_in",
    "PsiSymTerm", "kappa_eval", "make_term", "psisym_add", "psisym_conj",
    "psisym_eval", "psisym_mul", "rational_roots",
    "BoxCountResult", "HyperplaneResult", "SupResult", "WeilRecord",
    "axiom3_sup", "box_count", "exp_sum", "hyperplane_height_test",
    "weil_check", "weil_check_curve", "weil_sweep",
]
