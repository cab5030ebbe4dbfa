"""The blocked substitution that applies T_N(A)^-1, against the N-term series.

``symbols.solve_block_toeplitz`` applies T_N(A)^-1 and T_N(A)^-H from the
certificate of ``symbols.is_invertible_analytic``; the oracle is
``apply_block_toeplitz`` with the degree-by-degree series
``series_oracle.invert_sequential(A, N - 1)``, which shares no code with the
substitution (``invert_analytic`` runs the same ``symbols._substitute``
loop).  Both are backward stable to a few units of roundoff, so their
forward gap is bounded by the roundoff times the condition number
l1(A) l1(A^-1) of T_N(A).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tklab import near_invariance, symbols
from tklab.cli_reports import (ScenarioRun, bundled_scenario_dir, load_scenario,
                               run_scenario_object)
from tklab.config import Tolerances
from tklab.symbols import (LaurentMatrixSymbol, apply_block_toeplitz, invert_analytic,
                           is_invertible_analytic, solve_block_toeplitz)

from conftest import certified, class_scenario, rand_orthonormal, spy
from series_oracle import diagonal_inverse_l1, invert_sequential
from test_symbols import power_of, triangular_factors

EPS = np.finfo(float).eps
#: factors whose roots all lie outside the closed disk, so each certifies
INVERTIBLE = triangular_factors(moduli=st.floats(1.03, 4.0))

BUNDLED = [load_scenario(bundled_scenario_dir() / f"{name}.json").factors
           for name in ("factored_symbol_defect", "factored_symbol_rank_one")]
#: the kernel-sweep recipe's factors
SWEEP = (LaurentMatrixSymbol.diagonal([[2.0, 1.0], [2.0, 1.0]]),
         LaurentMatrixSymbol.diagonal([[3.0, 1.0], [2.0, 0.0, 1.0]]))
#: nearly singular on the circle: certified at K = 2047 and 16383
NEARLY_SINGULAR = (LaurentMatrixSymbol.diagonal([power_of(0.99, 3)]),
                   LaurentMatrixSymbol.diagonal([power_of(0.999, 2)]))


def _long_factor(m, degree, seed):
    """2I plus mixing coefficients of total spectral norm 1.44 up to
    ``degree``: a factor longer than a substitution block."""
    rng = np.random.default_rng(seed)
    terms = {0: 2.0 * np.eye(m)}
    for k in range(1, degree + 1):
        R = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        terms[k] = 0.12 * R / np.linalg.norm(R, 2)
    return LaurentMatrixSymbol(m, terms)


FACTORS = {
    "bundled F1": BUNDLED[0][0], "bundled F2": BUNDLED[0][1],
    "rank-one F1": BUNDLED[1][0], "rank-one F2": BUNDLED[1][1],
    "sweep F1": SWEEP[0], "sweep F2": SWEEP[1],
    "(1-0.99z)^3": NEARLY_SINGULAR[0], "(1-0.999z)^2": NEARLY_SINGULAR[1],
    "degree 12": _long_factor(2, 12, 5),
}


def _columns(rng, m, N, k=2):
    return rng.standard_normal((m * N, k)) + 1j * rng.standard_normal((m * N, k))


def _series_apply(F, X, adjoint):
    N = X.shape[0] // F.m
    inv = invert_sequential(F, N - 1)
    return apply_block_toeplitz(inv.adjoint() if adjoint else inv, X, N)


def _assert_matches_series(check, X, adjoint):
    F, N = check.factor, X.shape[0] // check.factor.m
    got, want = solve_block_toeplitz(check, X, adjoint=adjoint), _series_apply(F, X, adjoint)
    condition = F.coefficient_l1_norm() * check.l1_norm(N)
    assert np.linalg.norm(got - want) <= 64 * EPS * condition * np.linalg.norm(want)
    # the substitution solves T_N(A) Y = X to the series' own backward error
    compression = F.adjoint() if adjoint else F
    residual = apply_block_toeplitz(compression, got, N) - X
    assert np.linalg.norm(residual) <= 64 * EPS * F.coefficient_l1_norm() * np.linalg.norm(got)


@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
@pytest.mark.parametrize("N", [5, 64, 512, 4096])
@pytest.mark.parametrize("name", list(FACTORS))
def test_substitution_equals_series_apply(name, N, adjoint):
    check = is_invertible_analytic(FACTORS[name])
    X = _columns(np.random.default_rng([N, len(name)]), check.factor.m, N)
    _assert_matches_series(check, X, adjoint)


def test_well_conditioned_factors_match_to_roundoff():
    # the factors the scenarios run: the two applies agree to a few ulps
    for F in (*BUNDLED[0], *BUNDLED[1], *SWEEP):
        check = is_invertible_analytic(F)
        for N in (64, 512, 4096):
            X = _columns(np.random.default_rng(N), F.m, N)
            for adjoint in (False, True):
                got = solve_block_toeplitz(check, X, adjoint=adjoint)
                want = _series_apply(F, X, adjoint)
                assert np.linalg.norm(got - want) <= 8 * EPS * np.linalg.norm(want)


@given(factor=INVERTIBLE, N=st.sampled_from([3, 17, 64, 200]),
       adjoint=st.booleans(), seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_substitution_equals_series_apply_on_drawn_factors(factor, N, adjoint, seed):
    check = is_invertible_analytic(factor[0])
    assert check.ok
    _assert_matches_series(check, _columns(np.random.default_rng(seed), check.factor.m, N),
                           adjoint)


@pytest.mark.parametrize("name", list(FACTORS))
def test_l1_bound_covers_the_series(name):
    # the series' own l1 prefix plus the Wiener-algebra term l1(B_K) rho /
    # (1 - rho) at every window; past K + 1 degrees that keeps it above the
    # N-term sum
    check = is_invertible_analytic(FACTORS[name])
    K = len(check.series) - 1
    term = (invert_analytic(check.factor, K).coefficient_l1_norm()
            * check.bound / (1.0 - check.bound))
    for window in sorted({2, K + 1, K + 2, 2 * K + 2, 4096}):
        series = invert_analytic(check.factor, window - 1).coefficient_l1_norm()
        if window <= K + 1:
            assert check.l1_norm(window) == series + term
        else:
            assert check.l1_norm(window) >= series


#: the diagonal factors, whose inverse series ``diagonal_inverse_l1`` runs in
#: extended precision
DIAGONAL = [name for name in FACTORS if name != "degree 12"]


@pytest.mark.parametrize("name", DIAGONAL)
def test_l1_bound_covers_the_extended_precision_series(name):
    # a proof at every window, inside K + 1 degrees too: the computed B_j
    # carry the recursion's roundoff, which rho covers there
    check = is_invertible_analytic(FACTORS[name])
    K = len(check.series) - 1
    windows = sorted({1, 2, 9, (K + 1) // 2, K, K + 1, K + 2, 2 * K + 2, 4096})
    exact = diagonal_inverse_l1(check.factor, windows[-1])
    for window in windows:
        assert np.longdouble(check.l1_norm(window)) >= exact[window - 1], window


@given(factor=INVERTIBLE, window=st.integers(1, 600))
@settings(max_examples=25, deadline=None)
def test_l1_bound_covers_the_series_on_drawn_factors(factor, window):
    check = is_invertible_analytic(factor[0])
    assert check.ok
    # the two sums add the same leading norms in another order
    series = invert_analytic(check.factor, window - 1).coefficient_l1_norm()
    assert check.l1_norm(window) >= series * (1 - 16 * EPS)


@pytest.mark.parametrize("N", [48, 64, 512, 4096])
def test_kernel_bound_covers_the_series_product(N, monkeypatch):
    # |L| of the candidate space is at least the product of the two N-term
    # series' l1 sums it was before
    F1, F2 = SWEEP
    rng = np.random.default_rng(N)
    G, H = rand_orthonormal(rng, 2, N, 5, 1), rand_orthonormal(rng, 2, N, 5, 1)
    seen = spy(monkeypatch, "nullspace_within", [near_invariance])
    ScenarioRun(class_scenario("invertible_factors", G, H, N, factors=(F1, F2)),
                Tolerances()).kernel
    product = (invert_analytic(F1, N + F2.d - 1).coefficient_l1_norm()
               * invert_analytic(F2, N - 1).coefficient_l1_norm())
    assert seen[0][3] >= product
    # within the certificates' K + 1 = 64 degrees only their rho terms
    # separate the two
    rho = max(check.bound for check in certified(F1, F2))
    assert seen[0][3] <= product * (1 + 4 * rho) or N + F2.d > 64


def test_large_factored_route_stays_within_the_certificate(monkeypatch):
    # at N = 4096 the defect route asks for no series degree past the
    # certificate's K: nothing of size N is inverted
    F1, F2 = SWEEP
    N = 4096
    rng = np.random.default_rng(7)
    G, H = rand_orthonormal(rng, 2, N, 5, 1), rand_orthonormal(rng, 2, N, 5, 1)
    degrees = spy(monkeypatch, "_inverse_series", [symbols])
    run = ScenarioRun.validated(class_scenario("invertible_factors", G, H, N,
                                               factors=(F1, F2)), Tolerances())
    report = run.predicted_defect()
    assert report.subspace_dim == 0 and report.containment_residual == 0.0
    K = min(len(check.series) for check in run.certificates) - 1
    assert degrees and max(call[1] for call in degrees) <= K


def test_scenario_proves_each_factor_once(monkeypatch):
    # validation's certificates reach the kernel, the prediction and route
    # one of the rank-one analysis; route two is the one series
    sc = load_scenario(bundled_scenario_dir() / "factored_symbol_rank_one.json")
    proofs = spy(monkeypatch, "is_invertible_analytic")
    series = spy(monkeypatch, "invert_analytic")
    report = run_scenario_object(sc, Tolerances())
    assert report.ok
    assert [call[0] for call in proofs] == list(sc.factors)
    assert series == [(sc.factors[1], sc.N - 1)]


@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
@pytest.mark.parametrize("k", [0, 3])
def test_substitution_on_no_degrees_is_empty(k, adjoint):
    # as the apply does on an empty X
    check = is_invertible_analytic(SWEEP[1])
    X = np.zeros((0, k), dtype=complex)
    got = solve_block_toeplitz(check, X, adjoint=adjoint)
    assert got.shape == apply_block_toeplitz(SWEEP[1], X, 0).shape == (0, k)


def test_defect_check_substitutes_each_factor_once(monkeypatch):
    # one F1 adjoint solve of H and one F2 solve over [Y, S* Y] serve both
    # the kernel's candidates and the defect prediction
    F1, F2 = SWEEP
    N = 64
    rng = np.random.default_rng(3)
    G, H = rand_orthonormal(rng, 2, N, 5, 2), rand_orthonormal(rng, 2, N, 5, 2)
    calls = spy(monkeypatch, "solve_block_toeplitz")
    report = run_scenario_object(class_scenario("invertible_factors", G, H, N,
                                                factors=(F1, F2)), Tolerances())
    assert report.ok
    assert [(call[0].factor, call[1].shape[1]) for call in calls] == [(F1, 2), (F2, 4)]
