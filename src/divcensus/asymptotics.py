"""Normalizations of the exact counts against their leading asymptotics.

Each census count grows like an explicit leading term; dividing it out
gives a sequence that should drift toward 1 (or toward a finite constant),
which is what the convergence tables report:

    ratio          A(N)/B(N)            ~  pi^2 / ln N
    theorem1_norm  ratio * ln N / pi^2  ->  1
    ramanujan_norm B(N)*pi^2/(N ln^3 N) ->  1      (leading term of sum d(n)^2)
    a_norm         A(N)/(N ln^2 N)      ->  1
    lemma_norm     C(N)/(N ln N)        ->  zeta(2) = pi^2 / 6

The last limit follows from C(N) = sum_{r<=sqrt(N)} D(N / r^2) (census)
and D(x) = x ln x + (2 gamma - 1) x + O(sqrt(x)).  Summed over r, the
first two terms give N (ln N - 2 ln r + 2 gamma - 1) / r^2; the sums of
1/r^2 and ln(r)/r^2 over r <= sqrt(N) miss zeta(2) and -zeta'(2) by
O(ln N / sqrt(N)), and the errors O(sqrt(N) / r) add up to
O(sqrt(N) ln N), so

    C(N) = zeta(2) N ln N + (zeta(2) (2 gamma - 1) + 2 zeta'(2)) N + O(sqrt(N) ln N),

and lemma_norm = zeta(2) - 1.621 / ln N + O(1 / sqrt(N)): 1.5276 at 10^6
and 1.5444 at 10^7.

All logarithms are natural.  Floats appear only after the integer counts
are final; the counts themselves are exact.
"""

import math
from dataclasses import dataclass
from typing import Sequence

from .census import CensusResult, check_census_size, fast_census

PI_SQUARED = math.pi**2


@dataclass(frozen=True)
class RatioPoint:
    """One row of a convergence table, derived from exact counts at N.

    At N = 1 the three normalizations that divide by ln N are +inf
    (theorem1_norm multiplies by ln N and is 0.0 there); they are
    meaningful only for N >= 2.
    """

    N: int
    ratio: float
    theorem1_norm: float
    ramanujan_norm: float
    a_norm: float
    lemma_norm: float


def ratio_point(result: CensusResult) -> RatioPoint:
    """Derive all normalizations from one exact census result."""
    n = result.N
    ratio = result.a_count / result.b_count
    ln = math.log(n)
    theorem1 = ratio * ln / PI_SQUARED
    if n == 1:
        ramanujan = a_norm = lemma = math.inf
    else:
        ramanujan = result.b_count * PI_SQUARED / (n * ln**3)
        a_norm = result.a_count / (n * ln**2)
        lemma = result.c_count / (n * ln)
    return RatioPoint(
        N=n,
        ratio=ratio,
        theorem1_norm=theorem1,
        ramanujan_norm=ramanujan,
        a_norm=a_norm,
        lemma_norm=lemma,
    )


def _check_grid(Ns: Sequence[int]) -> None:
    if len(Ns) == 0:
        raise ValueError("Ns must be nonempty")
    if any(n < 1 for n in Ns):
        raise ValueError("all N must be >= 1")
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError(f"Ns must be strictly increasing, got {list(Ns)}")


def ratio_table(Ns: Sequence[int]) -> list[RatioPoint]:
    """One RatioPoint per N, via the fast census; a too-large grid is refused up front."""
    _check_grid(Ns)
    check_census_size(Ns[-1])
    return [ratio_point(fast_census(n)) for n in Ns]
