"""The coefficient certificate of innerness against a 2048-point grid.

``is_inner`` bounds sup_{|z|=1} ||Theta(z)^H Theta(z) - I||_2 by the sum of
the spectral norms of the coefficients of Theta* Theta - I.  The sampled
test it replaced is kept here as the oracle: the bound must never fall below
the grid maximum, and on every symbol the package's scenarios, benchmark
recipes and tests use, both must give the same verdict once the oracle also
asks for an analytic symbol.
"""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tklab.cli_reports import bundled_scenario_dir
from tklab.symbols import (LaurentMatrixSymbol, blaschke_taylor, is_inner,
                           unit_circle_grid)

from conftest import random_inner, random_unitary
from test_structured_operators import CLASS_NAMES, _workloads, class_symbol

GRID_SIZE = 2048
TOL = 1e-8


def grid_deviation(theta: LaurentMatrixSymbol, grid_size: int = GRID_SIZE) -> float:
    """max over a uniform circle grid of ||Theta(z)^H Theta(z) - I||_2."""
    vals = theta.evaluate(unit_circle_grid(grid_size))
    gram = np.einsum("gij,gik->gjk", vals.conj(), vals) - np.eye(theta.m)[None]
    return float(np.max(np.linalg.norm(gram, 2, axis=(1, 2))))


def blaschke_diagonal(entries) -> LaurentMatrixSymbol:
    """diag(z^k b_alpha) with b_alpha's Taylor series cut at the given degree,
    one (alpha, degree, k) per entry; alpha = 0 leaves z^k alone."""
    rows = []
    for alpha, degree, k in entries:
        series = blaschke_taylor(alpha, degree) if alpha else np.array([1.0])
        rows.append(np.concatenate([np.zeros(k), series]))
    return LaurentMatrixSymbol.diagonal(rows)


# -- the bound is never below the grid ----------------------------------------


def _inner_mix(rng):
    m = int(rng.integers(1, 4))
    theta = random_inner(rng, m, int(rng.integers(0, 5)))
    if rng.random() < 0.5:
        theta = theta.multiply(random_inner(rng, m, int(rng.integers(1, 4))))
    return theta.multiply(LaurentMatrixSymbol.shift(m, int(rng.integers(0, 3))))


def _blaschke(rng):
    entries = []
    for _ in range(int(rng.integers(1, 4))):
        alpha = rng.uniform(0.05, 0.6) * np.exp(2j * np.pi * rng.random())
        entries.append((alpha, int(rng.integers(4, 41)), int(rng.integers(0, 3))))
    theta = blaschke_diagonal(entries)
    U = LaurentMatrixSymbol.constant(random_unitary(rng, theta.m))
    return U.multiply(theta) if rng.random() < 0.5 else theta


def _non_inner(rng):
    m = int(rng.integers(1, 4))
    lo, hi = -int(rng.integers(0, 3)), int(rng.integers(0, 4))
    noise = LaurentMatrixSymbol(m, {k: rng.standard_normal((m, m))
                                    + 1j * rng.standard_normal((m, m))
                                    for k in range(lo, hi + 1)})
    if rng.random() < 0.5:
        return noise.scale(float(rng.choice([1e-3, 1.0, 3.0])))
    # near an inner symbol, where verdicts sit close to any tolerance
    eps = 10.0 ** rng.uniform(-11, -2)
    return random_inner(rng, m, int(rng.integers(0, 4))) + noise.scale(eps)


KINDS = {"inner_mix": _inner_mix, "blaschke": _blaschke, "non_inner": _non_inner}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(KINDS)), seed=st.integers(0, 2 ** 32 - 1))
def test_certificate_bounds_the_grid(kind, seed):
    theta = KINDS[kind](np.random.default_rng(seed))
    bound = is_inner(theta).max_deviation
    # the grid's own roundoff grows with |Theta|^2, as the bound does
    assert grid_deviation(theta) <= bound + 1e-14 * max(1.0, bound)


def test_certificate_is_tight_on_one_signed_coefficients():
    # |2 + z|^2 - 1 = 4 + 2z + 2/z peaks at z = 1, where its terms add
    theta = LaurentMatrixSymbol.diagonal([[2.0, 1.0]])
    assert is_inner(theta).max_deviation == 8.0
    assert grid_deviation(theta) == pytest.approx(8.0, rel=1e-15)


@pytest.mark.parametrize("theta", [
    LaurentMatrixSymbol.identity(2), LaurentMatrixSymbol.shift(3, 4),
    LaurentMatrixSymbol.diagonal([[0, 0, 1.0], [0, 0, 0, 1.0]]),
], ids=["identity", "shift", "mixed_monomials"])
def test_monomial_symbols_certify_exactly(theta):
    chk = is_inner(theta, tol=0.0)
    assert chk.ok and chk.max_deviation == 0.0


# -- the verdict at 1e-8 agrees with the grid ---------------------------------


def _bundled_symbols():
    out = {}
    for path in sorted(bundled_scenario_dir().glob("*.json")):
        data = json.loads(path.read_text())
        found = [("symbol", data.get("symbol"))]
        for group in ("factors", "pair"):
            found += sorted((data.get(group) or {}).items())
        for key, payload in found:
            if payload is not None:
                out[f"{path.stem}:{key}"] = LaurentMatrixSymbol.from_json(payload)
    return out


def _recipe_symbols():
    """The symbols and factors of the benchmark's kernel-sweep recipes."""
    out = {}
    for recipe in _workloads().SWEEP_RECIPES:
        sc = recipe(np.random.default_rng(0), 32)
        found = [("symbol", sc.symbol)] + list(zip(("F1", "F2"), sc.factors or ()))
        for key, theta in found:
            if theta is not None:
                out[f"sweep:{recipe.__name__}:{key}"] = theta
    return out


def _test_symbols():
    """The inner and nearly inner symbols the other test modules build."""
    out = {f"class:{name}": functools.partial(class_symbol, name) for name in CLASS_NAMES}
    out.update({
        "b(0.3,20)+z": blaschke_diagonal([(0.3, 20, 0), (0, 0, 1)]),
        "b(0.3,20)+z^2": blaschke_diagonal([(0.3, 20, 0), (0, 0, 2)]),
        "b(0.3,20)+b(0.2,20)": blaschke_diagonal([(0.3, 20, 0), (0.2, 20, 0)]),
        "b(0.5,30)+z": blaschke_diagonal([(0.5, 30, 0), (0, 0, 1)]),
        "b(0.2,40)+z times z^2": blaschke_diagonal(
            [(0.2, 40, 0), (0, 0, 1)]).multiply(LaurentMatrixSymbol.shift(2, 2)),
        "2+z": LaurentMatrixSymbol.diagonal([[2.0, 1.0]]),
        "(2+z)I": LaurentMatrixSymbol.diagonal([[2.0, 1.0], [2.0, 1.0]]),
        "shift(2,3)": LaurentMatrixSymbol.shift(2, 3),
        "shift(1,1)*": LaurentMatrixSymbol.shift(1).adjoint(),
    })
    for R in (4, 8, 16, 24):
        out[f"b(0.5,{R})"] = blaschke_diagonal([(0.5, R, 0)])
    rng = np.random.default_rng(11)
    for m, degree in [(1, 2), (2, 1), (2, 3), (3, 2)]:
        out[f"random_inner({m},{degree})"] = random_inner(rng, m, degree)
    return out


ALL_SYMBOLS = {**_bundled_symbols(), **_recipe_symbols(), **_test_symbols()}


@pytest.mark.parametrize("name", sorted(ALL_SYMBOLS))
def test_verdict_agrees_with_the_grid(name):
    theta = ALL_SYMBOLS[name]
    if isinstance(theta, functools.partial):  # a class symbol, built on first use
        theta = theta()
    chk = is_inner(theta, tol=TOL)
    grid = grid_deviation(theta)
    # the grid sees the circle only, where z^-1 is unitary too
    assert chk.ok == (theta.is_analytic() and grid <= TOL)
    assert grid <= chk.max_deviation + 1e-14 * max(1.0, chk.max_deviation)
