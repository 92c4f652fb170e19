"""sumprod-lab: exact growth, energy and character-sum experiments in GF(p^m).

Everything is built on integer element codes (see fields.Field), immutable
sorted sets (sets.ESet), and a strict split between exact theorems (asserted,
RuntimeError on violation) and asymptotic statements (reported as ratios,
never asserted).
"""

from .energy import (EnergyReport, cauchy_schwarz_chain, energy,
                     growth_chain_report, make_triple_witness,
                     pair_energy_bound_ratio, plunnecke_ruzsa_check,
                     product_shift_identity, shifted_subgroup_ratio,
                     triple_cover_count, triple_cover_totals)
from .families import FAMILIES, generate_family
from .fields import Field, divisors, factorize, is_prime, make_field
from .gauss import (GaussReport, gauss_bounds_report, gauss_sum,
                    gauss_sum_by_subgroup, subgroup_character_sum)
from .sets import (CosetStat, ESet, coset_scan, difference_set, dilate,
                   product_set, shift, sum_set)
from .subgroups import (ConditionReport, DifferenceCount, SubgroupInfo,
                        difference_count, gcd_growth_condition,
                        nth_power_subgroup, subfield_intersection,
                        subfield_overlap_condition, subgroup_additive_energy,
                        subgroup_energy_exponent, subgroup_of_order,
                        subgroup_orders)
from .sweep import ResultRow, SweepConfig, exponent_fit, rows_to_csv, run_sweep
from .verify import CheckResult, run_suite

__version__ = "1.0.0"

__all__ = [
    "CheckResult", "ConditionReport", "CosetStat", "DifferenceCount",
    "ESet", "EnergyReport", "FAMILIES", "Field", "GaussReport", "ResultRow",
    "SubgroupInfo", "SweepConfig", "cauchy_schwarz_chain", "coset_scan",
    "difference_count", "difference_set", "dilate", "divisors", "energy",
    "exponent_fit", "factorize", "gauss_bounds_report", "gauss_sum",
    "gauss_sum_by_subgroup", "gcd_growth_condition", "generate_family",
    "growth_chain_report", "is_prime", "make_field", "make_triple_witness",
    "nth_power_subgroup", "pair_energy_bound_ratio", "plunnecke_ruzsa_check",
    "product_set", "product_shift_identity", "rows_to_csv", "run_suite",
    "run_sweep", "shift", "shifted_subgroup_ratio", "subfield_intersection",
    "subfield_overlap_condition", "subgroup_additive_energy",
    "subgroup_character_sum", "subgroup_energy_exponent", "subgroup_of_order",
    "subgroup_orders", "sum_set", "triple_cover_count", "triple_cover_totals",
    "__version__",
]
