"""Built-in 1-D function families.

Every factory returns a :class:`qcx.extcore.FunctionSpec` with derivative
oracles where the family is smooth, so certifications default to the tight
tolerance. Custom shapes are supported only through tabulated values with
linear interpolation, which keeps the certification semantics exact.
"""

from __future__ import annotations

import numpy as np

from .extcore import FunctionSpec, scale_function


def _require_finite(**params) -> None:
    """Reject a NaN or infinite parameter (or table entry) by name."""
    for name, value in params.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value}")


def affine(a: float = 1.0, b: float = 0.0) -> FunctionSpec:
    _require_finite(a=a, b=b)
    return FunctionSpec(
        1, lambda p: a * p[:, 0] + b,
        grad=lambda p: np.full(len(p), float(a)),
        hess=lambda p: np.zeros(len(p)),
        name=f"affine({a:g},{b:g})")


def square() -> FunctionSpec:
    return FunctionSpec(
        1, lambda p: p[:, 0] ** 2,
        grad=lambda p: 2 * p[:, 0],
        hess=lambda p: np.full(len(p), 2.0),
        name="square")


def negsquare() -> FunctionSpec:
    return FunctionSpec(
        1, lambda p: -p[:, 0] ** 2,
        grad=lambda p: -2 * p[:, 0],
        hess=lambda p: np.full(len(p), -2.0),
        name="negsquare")


def sqrt() -> FunctionSpec:
    # domain must stay within x > 0
    return FunctionSpec(
        1, lambda p: np.sqrt(p[:, 0]),
        grad=lambda p: 0.5 / np.sqrt(p[:, 0]),
        hess=lambda p: -0.25 * p[:, 0] ** -1.5,
        name="sqrt")


def neglog() -> FunctionSpec:
    # domain must stay within x > 0
    return FunctionSpec(
        1, lambda p: -np.log(p[:, 0]),
        grad=lambda p: -1.0 / p[:, 0],
        hess=lambda p: p[:, 0] ** -2.0,
        name="neglog")


def exp() -> FunctionSpec:
    return FunctionSpec(
        1, lambda p: np.exp(p[:, 0]),
        grad=lambda p: np.exp(p[:, 0]),
        hess=lambda p: np.exp(p[:, 0]),
        name="exp")


def const(c: float = 0.0) -> FunctionSpec:
    _require_finite(c=c)
    return FunctionSpec(
        1, lambda p: np.full(len(p), float(c)),
        grad=lambda p: np.zeros(len(p)),
        hess=lambda p: np.zeros(len(p)),
        name=f"const({c:g})")


def piecewise(xs, ys) -> FunctionSpec:
    """Linear interpolation through the table; no derivative oracles."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
        raise ValueError("piecewise needs matching x/y tables of length >= 2")
    _require_finite(xs=xs, ys=ys)
    if not (np.diff(xs) > 0).all():
        raise ValueError("piecewise x table must be strictly increasing")
    return FunctionSpec(
        1, lambda p: np.interp(p[:, 0], xs, ys),
        name=f"piecewise[{len(xs)}]")


#: Registry used by the configuration front end.
FAMILIES = {
    "affine": affine,
    "square": square,
    "negsquare": negsquare,
    "sqrt": sqrt,
    "neglog": neglog,
    "exp": exp,
    "const": const,
    "piecewise": piecewise,
}


def make_function(family: str, weight: float = 1.0, **params) -> FunctionSpec:
    """Instantiate a registered family, optionally scaled by ``weight``."""
    try:
        factory = FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown function family {family!r}; "
                         f"known: {sorted(FAMILIES)}") from None
    f = factory(**params)
    if weight != 1.0:
        f = scale_function(f, weight)
    return f
