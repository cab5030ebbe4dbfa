"""Operators held by their coefficients, against their dense matrices (N <= 64).

The structured kernel paths never form a dense mN x mN matrix: the banded
products, the coefficient column norms and the coefficient certificate of
the inner range are checked here against the dense forms they replace, and
spies show that the dense builders stay unused on those paths.
"""

import functools
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rand_orthonormal, random_inner, spy, svd_shapes
from reference_oracle import shifted_range_matrix
from tklab import operators
from tklab.cli_reports import bundled_scenario_dir, load_scenario, run_scenario_object
from tklab.config import (EXACT_INNER_ROUNDOFF, SUBSPACE_GRAM_BOUND, Tolerances)
from tklab.errors import DimensionMismatch
from tklab.model_spaces import build_model_space
from tklab.near_invariance import kernel_of
from tklab.operators import (PerturbedToeplitz, ToeplitzCompression, _block_toeplitz,
                             apply_block_toeplitz, build_perturbed)
from tklab.subspaces import column_gram_deviation, column_norms
from tklab.symbols import (LaurentMatrixSymbol, blaschke_taylor,
                           inner_coefficient_deviation, invert_analytic)

SCENARIOS = bundled_scenario_dir()
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MIXED = LaurentMatrixSymbol.diagonal([[0, 0, 1.0], [0, 0, 0, 1.0]])


def _random_symbol(rng, m, powers):
    return LaurentMatrixSymbol(m, {k: rng.standard_normal((m, m))
                                   + 1j * rng.standard_normal((m, m)) for k in powers})


@st.composite
def toeplitz_cases(draw):
    m = draw(st.integers(1, 3))
    rows = draw(st.integers(1, 64))
    cols = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(["sparse", "negative", "series", "band", "outside",
                                 "zero"]))
    if kind == "sparse":
        powers = draw(st.sets(st.integers(-70, 70), min_size=1, max_size=4))
    elif kind == "negative":
        powers = draw(st.sets(st.integers(-70, -1), min_size=1, max_size=4))
    elif kind == "series":
        lo = draw(st.integers(-520, 20))
        powers = range(lo, lo + 500)
    elif kind == "band":
        # every power from past -cols on, up to rows + cols of them: the
        # band is clipped at both ends of the window
        lo = draw(st.integers(-cols - 2, 0))
        powers = range(lo, lo + draw(st.integers(1, rows + cols)))
    elif kind == "outside":
        # no power reaches from [0, cols) into [0, rows)
        powers = draw(st.sets(st.integers(rows, rows + 40) | st.integers(-cols - 40, -cols),
                              min_size=1, max_size=4))
    else:
        powers = ()
    k = draw(st.integers(0, 16))
    return m, list(powers), rows, cols, k, draw(st.integers(0, 2 ** 31))


@given(toeplitz_cases())
@example((2, list(range(-9, 12)), 12, 10, 2, 0))       # powers span rows + cols - 1
@example((2, list(range(-12, 15)), 12, 10, 3, 1))      # and reach past both ends
@example((3, list(range(-2, 4)), 20, 10, 16, 2))       # rows above cols + hi
@example((2, list(range(-2, 4)), 13, 10, 1, 3))        # rows at cols + hi
@example((2, list(range(-2, 4)), 7, 10, 5, 4))         # rows below cols + hi
@example((2, [12, 30, -10, -25], 12, 10, 4, 5))        # every power outside
@settings(max_examples=100, deadline=None)
def test_apply_block_toeplitz_equals_dense(case):
    m, powers, rows, cols, k, seed = case
    rng = np.random.default_rng(seed)
    symbol = _random_symbol(rng, m, powers)
    X = rng.standard_normal((m * cols, k)) + 1j * rng.standard_normal((m * cols, k))
    banded = apply_block_toeplitz(symbol, X, rows)
    dense = _block_toeplitz(symbol, rows, cols) @ X
    assert banded.shape == dense.shape == (m * rows, k)
    scale = max(1.0, float(np.max(np.abs(dense), initial=0.0)))
    assert np.max(np.abs(banded - dense), initial=0.0) <= 1e-12 * scale


def _factored_symbol():
    F1 = LaurentMatrixSymbol.diagonal([[2.0, 1.0], [2.0, 1.0]])
    F2 = LaurentMatrixSymbol.diagonal([[3.0, 1.0], [2.0, 0.0, 1.0]])
    return F1.adjoint().multiply(F2)


@functools.cache
def _random_symbols():
    """The random inner and raw symbols, drawn in this order from one stream."""
    rng = np.random.default_rng(7)
    return random_inner(rng, 2, 3), _random_symbol(rng, 2, [-2, 0, 1])


#: a builder per symbol class; ``class_symbol`` builds each on first use, so
#: a builder that raises fails the tests of its own class only
_CLASS_BUILDERS = {
    "zero": lambda: LaurentMatrixSymbol.zero(2),
    "inner": lambda: _random_symbols()[0],
    "inner_mixed": lambda: MIXED,
    "theta_star": lambda: _random_symbols()[0].adjoint(),
    "factored": _factored_symbol,
    "factored_series": lambda: invert_analytic(
        LaurentMatrixSymbol.diagonal([[2.0, 1.0], [3.0, 1.0]]), 60).adjoint(),
    "raw": lambda: _random_symbols()[1],
    "series_inner": lambda: LaurentMatrixSymbol.diagonal([blaschke_taylor(0.3, 20),
                                                          [0.0, 1.0]]),
}
CLASS_NAMES = tuple(sorted(_CLASS_BUILDERS))


@functools.cache
def class_symbol(name):
    return _CLASS_BUILDERS[name]()


@pytest.mark.parametrize("name", CLASS_NAMES)
@pytest.mark.parametrize("N,n", [(24, 0), (40, 2), (64, 3)])
def test_banded_action_and_column_norms_equal_dense(name, N, n):
    symbol = class_symbol(name)
    if N <= symbol.d:
        N = symbol.d + 4
    rng = np.random.default_rng([N, n])
    G = rand_orthonormal(rng, 2, N, 6, n)
    H = rand_orthonormal(rng, 2, N, 6, n)
    T = build_perturbed(symbol, N, G, H)
    dense = T.action_matrix()
    assert T.action_shape == dense.shape
    Z = rng.standard_normal((2 * N, 4)) + 1j * rng.standard_normal((2 * N, 4))
    expected = dense @ Z
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(T.apply_action(Z) - expected)) <= 1e-12 * scale
    dense_norms = column_norms(dense)
    norms = T.action_column_norms()
    top = float(np.max(dense_norms))
    assert abs(float(np.max(norms)) - top) <= 1e-12 * max(top, 1.0)
    assert np.max(np.abs(norms - dense_norms)) <= 1e-10 * max(top, 1.0)
    base = T.base
    assert np.max(np.abs(base.apply_action(Z) - base.action_matrix() @ Z)) <= 1e-12 * scale
    assert np.allclose(base.action_column_norms(), column_norms(base.action_matrix()),
                       rtol=0.0, atol=1e-12 * max(top, 1.0))


def test_dense_forms_are_cached_and_read_only():
    rng = np.random.default_rng(3)
    G = rand_orthonormal(rng, 2, 16, 4, 2)
    H = rand_orthonormal(rng, 2, 16, 4, 2)
    T = build_perturbed(MIXED, 16, G, H)
    assert T.action_matrix() is T.action_matrix()
    assert np.shares_memory(T.matrix, T.action_matrix())
    C = ToeplitzCompression(MIXED, 16)
    assert C.matrix is C.matrix
    for mat in (T.action_matrix(), T.matrix, C.matrix):
        assert not mat.flags.writeable


# -- the inner range R -------------------------------------------------------


def _exact_inner_symbols():
    rng = np.random.default_rng(11)
    return [MIXED, LaurentMatrixSymbol.shift(2, 3)] + [
        random_inner(rng, m, degree) for m, degree in [(1, 2), (2, 1), (2, 3), (3, 2)]]


@pytest.mark.parametrize("theta", _exact_inner_symbols())
@pytest.mark.parametrize("N", [8, 24, 64])
def test_range_gram_is_the_coefficient_deviation(theta, N):
    if N <= theta.d:
        pytest.skip("truncation below the bandwidth")
    dense = column_gram_deviation(shifted_range_matrix(theta, N))
    coeff = inner_coefficient_deviation(theta)
    assert coeff <= EXACT_INNER_ROUNDOFF
    assert dense <= SUBSPACE_GRAM_BOUND
    assert abs(dense - coeff) <= 64 * np.finfo(float).eps


# -- coefficient validation ----------------------------------------------------


@pytest.mark.parametrize("terms,error,message", [
    ({0: np.eye(2), 3: np.ones((3, 3))}, DimensionMismatch,
     r"coefficient at power 3 has shape \(3, 3\), expected \(2, 2\)"),
    ({0: np.eye(2), -2: [[1.0, 2.0]]}, DimensionMismatch,
     r"coefficient at power -2 has shape \(1, 2\), expected \(2, 2\)"),
    ({1: [[1.0, np.nan], [0.0, 0.0]], 2: np.eye(2)}, ValueError,
     "coefficient at power 1 is not finite"),
    ({1: np.eye(2), 4: [[1.0, 0.0], [0.0, complex(0.0, np.inf)]]}, ValueError,
     "coefficient at power 4 is not finite"),
    ({5: [[np.inf, 0.0], [0.0, 0.0]], 1: np.ones((3, 3))}, ValueError,
     "coefficient at power 5 is not finite"),
    ({1: np.ones((3, 3)), 5: [[np.inf, 0.0], [0.0, 0.0]]}, DimensionMismatch,
     "coefficient at power 1 has shape"),
])
def test_bad_coefficients_name_the_power(terms, error, message):
    with pytest.raises(error, match=message):
        LaurentMatrixSymbol(2, terms)


def test_stack_drops_zero_coefficients_and_sorts_powers():
    sym = LaurentMatrixSymbol(2, {3: np.eye(2), 0: np.zeros((2, 2)), -1: 2 * np.eye(2)})
    assert sym.powers() == [-1, 3] and (sym.d, sym.d_pos) == (3, 3)
    dense = sym.coefficient_stack(-2, 4)
    assert [float(dense[i, 0, 0].real) for i in range(7)] == [0, 2, 0, 0, 0, 1, 0]
    assert sym.adjoint().adjoint().equals(sym)


# -- guards: the structured paths form no dense matrix -------------------------


def _dense_spies(monkeypatch):
    calls = []

    def record(name, fn):
        def spy(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(PerturbedToeplitz, "action_matrix",
                        record("action_matrix", PerturbedToeplitz.action_matrix))
    monkeypatch.setattr(ToeplitzCompression, "matrix",
                        property(record("matrix", ToeplitzCompression.matrix.fget)))
    monkeypatch.setattr(operators, "_block_toeplitz",
                        record("_block_toeplitz", operators._block_toeplitz))
    return calls


STRUCTURED_CLASSES = ("inner", "theta_star", "invertible_factors")
STRUCTURED = [p for p in sorted(SCENARIOS.glob("*.json"))
              if load_scenario(p).symbol_class in STRUCTURED_CLASSES
              and "defect_theorem" in load_scenario(p).checks]


@pytest.mark.parametrize("path", STRUCTURED, ids=lambda p: p.stem)
def test_structured_scenarios_form_no_dense_matrix(path, monkeypatch):
    calls = _dense_spies(monkeypatch)
    report = run_scenario_object(load_scenario(path), Tolerances())
    assert report.ok
    assert calls == []


def _workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.mark.parametrize("recipe,N", [
    pytest.param(recipe, N, id=recipe.__name__ + ("" if N == 64 else f"-{N}"))
    for N in (64, 1024) for recipe in _workloads().SWEEP_RECIPES])
def test_kernel_sweep_recipes_form_no_dense_matrix(recipe, N, monkeypatch):
    # the benchmark's sizes end at 512; N = 1024 guards the paths past them
    scenario = recipe(np.random.default_rng([0, 1]), N)
    calls = _dense_spies(monkeypatch)
    report = run_scenario_object(scenario, Tolerances())
    assert report.outcomes[0].status == "pass"
    assert calls == []


def test_repr_large_zero_scenario_takes_no_dense_svd(monkeypatch):
    # past the n x n core, the zero route decomposes only the m x dim values
    # and the mN x n slice projection of S U: no SVD wider than max(m, n)
    scenario = _workloads().zero_symbol_repr(np.random.default_rng([0, 1]), 64)
    calls = _dense_spies(monkeypatch)
    dense_svds = spy(monkeypatch, "nullspace")
    shapes = svd_shapes(monkeypatch)
    report = run_scenario_object(scenario, Tolerances())
    assert [o.status for o in report.outcomes] == ["pass", "pass"]
    assert report.outcomes[0].residuals["details"]["kernel_method"] == "zero"
    bound = max(scenario.m, len(scenario.G))
    assert shapes and all(min(shape) <= bound for shape in shapes), shapes
    assert dense_svds == [] and calls == []


def test_dense_classes_still_use_the_dense_builders(monkeypatch):
    calls = _dense_spies(monkeypatch)
    dense_svds = spy(monkeypatch, "nullspace")
    report = run_scenario_object(load_scenario(SCENARIOS / "zero_symbol_defect.json"),
                                 Tolerances())
    assert report.ok
    assert report.outcomes[0].residuals["details"]["kernel_method"] == "zero"
    assert "action_matrix" not in calls and dense_svds == []
    rng = np.random.default_rng(5)
    G = rand_orthonormal(rng, 2, 24, 5, 2)
    H = rand_orthonormal(rng, 2, 24, 5, 2)
    calls.clear()
    assert kernel_of(build_perturbed(class_symbol("raw"), 24, G, H)).method == "dense"
    assert "action_matrix" in calls
    calls.clear()
    series = class_symbol("series_inner")
    assert kernel_of(build_perturbed(series, 24, G, H)).method == "dense"
    build_model_space(series, 24, tol_inner=1e-6)
    assert {"action_matrix", "matrix"} <= set(calls)


def test_corrupted_banded_route_fails_the_probe(monkeypatch):
    rng = np.random.default_rng(9)
    G = rand_orthonormal(rng, 2, 32, 5, 2)
    H = rand_orthonormal(rng, 2, 32, 5, 2)
    build_perturbed(MIXED, 32, G, H)
    real = LaurentMatrixSymbol.coefficient_stack

    def corrupted(self, lo, hi):
        out = np.array(real(self, lo, hi))
        out[0, 0, 0] += 1e-6
        return out

    monkeypatch.setattr(LaurentMatrixSymbol, "coefficient_stack", corrupted)
    with pytest.raises(AssertionError, match="banded and functional forms disagree"):
        build_perturbed(MIXED, 32, G, H)

