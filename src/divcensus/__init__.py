"""Exact censuses of divisor triples (a, b, r) with r | ab, ab <= N.

B(N) counts all such triples, A(N) the ones where r | a or r | b, C(N) the
ones where r divides both, S(N) = sum_{ab<=N} d(a).  A(N)/B(N) is the
empirical success rate of the (false in general) implication
"r | ab  =>  r | a or r | b".
"""

__version__ = "0.1.0"
