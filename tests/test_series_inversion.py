"""The blocked inverse series against the degree-by-degree oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from series_oracle import invert_sequential
from test_structured_operators import _workloads
from tklab.cli_reports import bundled_scenario_dir, load_scenario
from tklab.config import SERIES_BLOCK
from tklab.symbols import LaurentMatrixSymbol, _inversion_residual, invert_analytic

B = SERIES_BLOCK


def assert_matches_oracle(A, K):
    got, want = invert_analytic(A, K), invert_sequential(A, K)
    assert got.powers() == want.powers()
    gap = np.max(np.abs(got.coefficient_stack(0, K) - want.coefficient_stack(0, K)))
    assert gap <= 1e-13 * max(1.0, want.coefficient_norm())


def well_separated_factor(m, d, seed, zeros, diagonal):
    """A_0 within 0.3 of 3I and A_1..A_d of total norm 0.5, so |A_0^{-1}|
    sum |A_t| < 1/5; A_t is exactly zero for 0 < t < d where ``zeros`` says so."""
    rng = np.random.default_rng(seed)

    def draw(norm):
        mat = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        mat = np.diag(np.diag(mat)) if diagonal else mat
        return norm * mat / np.linalg.norm(mat, 2)

    terms = {0: 3 * np.eye(m) + draw(0.3)}
    for t in range(1, d + 1):
        if t == d or not zeros[t - 1]:
            terms[t] = draw(0.5 / d)
    return LaurentMatrixSymbol(m, terms)


@given(m=st.integers(1, 3), d=st.integers(0, 3), K=st.integers(0, 3 * B + 1),
       seed=st.integers(0, 2 ** 32 - 1), zeros=st.lists(st.booleans(), min_size=2, max_size=2),
       diagonal=st.booleans())
@example(m=2, d=3, K=1, seed=0, zeros=[False, False], diagonal=False)  # K < d
@example(m=3, d=2, K=0, seed=1, zeros=[False, False], diagonal=False)
@example(m=1, d=1, K=B - 1, seed=2, zeros=[False, False], diagonal=False)
@example(m=2, d=3, K=3 * B - 1, seed=3, zeros=[True, True], diagonal=False)
@example(m=2, d=2, K=2 * B + 1, seed=4, zeros=[True, False], diagonal=True)
@settings(max_examples=60, deadline=None)
def test_blocked_series_matches_the_oracle(m, d, K, seed, zeros, diagonal):
    assert_matches_oracle(well_separated_factor(m, d, seed, zeros, diagonal), K)


@pytest.mark.parametrize("K", [0, 1, B - 1, B, 2 * B + 5])
def test_exactly_zero_series_blocks_are_dropped(K):
    # 1/(2 + z^2) has no odd powers, 1/(2 + z^3) only multiples of 3
    A = LaurentMatrixSymbol.diagonal([[2.0, 0.0, 1.0], [2.0, 0.0, 1.0]])
    inv = invert_analytic(A, K)
    assert inv.powers() == list(range(0, K + 1, 2))
    assert_matches_oracle(A, K)
    cubic = LaurentMatrixSymbol.diagonal([[2.0, 0.0, 0.0, 1.0]])
    assert invert_analytic(cubic, K).powers() == list(range(0, K + 1, 3))
    assert_matches_oracle(cubic, K)


def _factored_scenarios():
    for path in sorted(bundled_scenario_dir().glob("*.json")):
        sc = load_scenario(path)
        if sc.factors is not None:
            yield pytest.param(sc.N, sc.factors, id=path.stem)
    workloads = _workloads()
    for N in (workloads.WARMUP_N,) + workloads.SWEEP_SIZES:
        sc = workloads.factored_symbol_defect(np.random.default_rng(0), N)
        yield pytest.param(N, sc.factors, id=sc.name)


@pytest.mark.parametrize("N, factors", list(_factored_scenarios()))
def test_bundled_and_sweep_factors_match_the_oracle(N, factors):
    # the degrees the factored kernel solve inverts F1 and F2 to
    F1, F2 = factors
    assert_matches_oracle(F1, N + F2.d - 1)
    assert_matches_oracle(F2, N - 1)


@pytest.mark.parametrize("root, power", [(0.99, 3), (0.999, 2), (0.9, 4)])
def test_nearly_singular_factors_pass_the_residual_check(root, power):
    # (1 - root z)^power at K = 1023; longer blocks or powers by squaring fail
    K = 1023
    A = LaurentMatrixSymbol.diagonal([(np.poly1d([-root, 1.0]) ** power).coeffs[::-1]])
    inv = invert_analytic(A, K)
    resid = _inversion_residual(A.coefficient_stack(0, A.d), inv.coefficient_stack(0, K), K)
    assert resid <= 1e-10 * A.coefficient_norm()
