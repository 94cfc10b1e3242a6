"""Two-generator numerical semigroups <n, m> with gcd(n, m) = 1.

The diagonal evaluation of a coordinate-scaled up-set lands in the set
{n*a + m*b}, so membership, the conductor bound (n-1)(m-1) and the gap
list below it describe exactly which exponents that evaluation can reach.
"""

from __future__ import annotations

from math import gcd


def _validate(n: int, m: int) -> None:
    if n < 1 or m < 1:
        raise ValueError(f"generators must be >= 1, got ({n}, {m})")
    if gcd(n, m) != 1:
        raise ValueError(f"generators must be coprime, got ({n}, {m})")


def represents(n: int, m: int, c: int) -> bool:
    """True iff c = n*a + m*b for some naturals a, b.

    Any such ``a`` is congruent to ``c / n`` modulo ``m``, so ``c`` is
    representable iff the least natural of that class, times ``n``, is
    at most ``c``.
    """
    _validate(n, m)
    return c >= 0 and n * (c * pow(n, -1, m) % m) <= c


def conductor(n: int, m: int) -> int:
    """(n-1)(m-1): everything from here up is representable."""
    _validate(n, m)
    return (n - 1) * (m - 1)


def gaps(n: int, m: int) -> list[int]:
    """Non-representable naturals below the conductor, ascending."""
    bound = conductor(n, m)
    inv = pow(n, -1, m)  # the test of ``represents``, validated and inverted once
    return [c for c in range(bound) if n * (c * inv % m) > c]
