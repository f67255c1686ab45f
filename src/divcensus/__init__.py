"""Exact censuses of divisor triples (a, b, r) with r | ab, ab <= N.

B(N) counts all such triples, A(N) the ones where r | a or r | b, C(N) the
ones where r divides both, S(N) = sum_{ab<=N} d(a).  A(N)/B(N) is the
empirical success rate of the (false in general) implication
"r | ab  =>  r | a or r | b".
"""

from .census import (
    CensusResult,
    Counterexample,
    brute_force_census,
    count_all_triples,
    count_da_over_hyperbola,
    count_gcd_divisor_sum,
    fast_census,
)
from .config import ResourceLimitError
from .divisor_core import (
    DivisorTable,
    divisor_list,
    divisor_summatory,
    divisor_square_summatory,
    divisor_square_summatory_segmented,
    sieve_divisor_counts,
)
from .asymptotics import (
    RatioPoint,
    ratio_point,
    ratio_table,
)
from .sampler import SampleEstimate, build_triple_space, sample_triples

__version__ = "0.1.0"
