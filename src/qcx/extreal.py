"""Extended-real arithmetic conventions.

An extended real is represented as a plain ``float`` in ``[-inf, +inf]``;
NaN is never a valid value. The conventions implemented here differ from
IEEE-754 defaults in exactly the places the library relies on:

* ``0 * (+inf) = 0 * (-inf) = 0``
* ``1 / 0 = +inf``

Subtraction of two infinities of the same sign has no canonical value; the
helpers below resolve ``(+inf) - (+inf)`` to ``+inf`` together with a
degeneracy flag so that callers can treat the result as "no information"
rather than as an error.
"""

from __future__ import annotations

import math

POS_INF = math.inf
NEG_INF = -math.inf


def ext_mul(a: float, b: float) -> float:
    """Product under the convention ``0 * (+-inf) = 0``."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def ext_inv(a: float) -> float:
    """Reciprocal under the conventions ``1/0 = +inf`` and ``1/(+-inf) = 0``."""
    if a == 0.0:
        return POS_INF
    if math.isinf(a):
        return 0.0
    return 1.0 / a


def ext_sub(a: float, b: float) -> tuple[float, bool]:
    """Difference ``a - b`` with a degeneracy flag.

    Returns ``(value, degenerate)``. When both operands are infinite with the
    same sign the true difference is undetermined; the value is reported as
    ``+inf`` and the flag is set.
    """
    if math.isinf(a) and math.isinf(b) and (a > 0) == (b > 0):
        return POS_INF, True
    return a - b, False


def ext_combo(eta: float, a: float, b: float) -> float:
    """Convex combination ``eta*a + (1-eta)*b`` under ``0 * inf = 0``.

    Assumes neither operand is ``-inf`` with the other ``+inf`` and positive
    weights, which cannot occur for proper functions (never ``-inf``).
    """
    left = ext_mul(eta, a)
    right = ext_mul(1.0 - eta, b)
    if math.isinf(left) and math.isinf(right) and (left > 0) != (right > 0):
        raise ValueError("combination of opposite infinities is undefined")
    return left + right
