"""Workload definitions: which scenarios one pass runs, built from a seed.

Every generated scenario carries the kernel and defect dimensions its recipe
guarantees in ``expect``; tklab's own checks compare them, and the benchmark
compares them again from the report so a mismatch is never silently dropped.
"""

from __future__ import annotations

import numpy as np

import tklab as tk
from tklab.cli_reports import Scenario, bundled_scenario_dir

WORKLOADS = ("suite", "repr-large", "kernel-sweep")
SUITE_DIR = bundled_scenario_dir()

REPR_SIZES = (128, 256)
SWEEP_SIZES = (64, 128, 256, 512)
#: every recipe builds at this size too; the warm-up pass runs it once
WARMUP_N = 32


def _family(rng, m, N, deg, count, lo=0):
    """Orthonormal family supported on degrees [lo, deg); draws do not depend on N."""
    vecs = []
    for _ in range(count):
        arr = np.zeros((m, N), complex)
        arr[:, lo:deg] = (rng.standard_normal((m, deg - lo))
                          + 1j * rng.standard_normal((m, deg - lo)))
        vecs.append(tk.CoeffVec(arr))
    return tk.orthonormalize_family(vecs)


def _unit(v):
    return v * (1.0 / v.norm())


def zero_symbol_repr(rng, N):
    """Zero symbol, n = 3: the kernel is span{G}^perp and the defect is n-dimensional."""
    m, n = 2, 3
    G = _family(rng, m, N, 8, n)
    H = _family(rng, m, N, 8, n)
    return Scenario(name=f"zero_symbol_repr[N={N}]", m=m, N=N, symbol_class="zero",
                    checks=["defect_theorem", "representation"], seed=0, G=G, H=H,
                    expect={"kernel_dim": m * N - n, "defect_dim": n})


def inner_mixed_monomials_defect(rng, N):
    """Theta = diag(z^2, z^3), H_i = Theta u_i, G_i = -u_i: kernel span{u_1, u_2}."""
    m = 2
    theta = tk.LaurentMatrixSymbol.diagonal([[0, 0, 1.0], [0, 0, 0, 1.0]])
    us = _family(rng, m, N, 6, 2, lo=1)
    H = [theta.act(u).analytic_part().resized(N) for u in us]
    return Scenario(name=f"inner_mixed_monomials_defect[N={N}]", m=m, N=N,
                    symbol_class="inner", checks=["defect_theorem"], seed=0,
                    G=[-1.0 * u for u in us], H=H, symbol=theta,
                    expect={"kernel_dim": 2, "defect_dim": 2})


def inner_monomial_sweep(rng, N):
    """Theta = z^2 I, a unit u of degree 1 with H = z^2 u, G = -u: kernel span{u}."""
    m, p = 2, 2
    theta = tk.LaurentMatrixSymbol.shift(m, p)
    arr = np.zeros((m, N), complex)
    arr[:, 1] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    u = _unit(tk.CoeffVec(arr))
    harr = np.zeros((m, N), complex)
    harr[:, p + 1] = u.coeffs[:, 1]
    return Scenario(name=f"inner_monomial_sweep[N={N}]", m=m, N=N,
                    symbol_class="inner", checks=["defect_theorem"], seed=0,
                    G=[-1.0 * u], H=[tk.CoeffVec(harr)], symbol=theta,
                    expect={"kernel_dim": 1, "defect_dim": 1})


def adjoint_mixed_defect(rng, N):
    """Theta* with Theta = diag(z^2, z^3); G_1 in the shifted range, G_2 not."""
    m = 2
    theta = tk.LaurentMatrixSymbol.diagonal([[0, 0, 1.0], [0, 0, 0, 1.0]])
    inside = _family(rng, m, N, 4, 1)[0]
    g1 = _unit(theta.act(inside).analytic_part().resized(N))
    g2_raw = _family(rng, m, N, 5, 1)[0]
    g2 = _unit(g2_raw - tk.inner_product(g2_raw, g1) * g1)
    return Scenario(name=f"adjoint_mixed_defect[N={N}]", m=m, N=N,
                    symbol_class="theta_star", checks=["defect_theorem"], seed=0,
                    G=[g1, g2], H=_family(rng, m, N, 5, 2), symbol=theta,
                    expect={"kernel_dim": 5, "defect_dim": 2})


def factored_symbol_defect(rng, N):
    """Symbol F1* F2 with invertible analytic diagonal factors, rank-one bump."""
    m = 2
    F1 = tk.LaurentMatrixSymbol.diagonal([[2.0, 1.0], [2.0, 1.0]])
    F2 = tk.LaurentMatrixSymbol.diagonal([[3.0, 1.0], [2.0, 0.0, 1.0]])
    return Scenario(name=f"factored_symbol_defect[N={N}]", m=m, N=N,
                    symbol_class="invertible_factors", checks=["defect_theorem"],
                    seed=0, G=_family(rng, m, N, 5, 1), H=_family(rng, m, N, 5, 1),
                    factors=(F1, F2), expect={"kernel_dim": 0, "defect_dim": 0})


SWEEP_RECIPES = (inner_mixed_monomials_defect, inner_monomial_sweep,
                 adjoint_mixed_defect, factored_symbol_defect)


def _build(recipes, sizes, seed):
    # one stream per (seed, recipe); reseeding per size keeps the families the
    # same at every N, so the expected dimensions are too
    return [recipe(np.random.default_rng([seed, idx]), N)
            for idx, recipe in enumerate(recipes) for N in sizes]


def build(workload: str, seed: int):
    """(timed scenarios, warm-up scenarios); suite scenarios are parsed per pass."""
    if workload == "suite":
        return None, None
    if workload == "repr-large":
        return (_build([zero_symbol_repr], REPR_SIZES, seed),
                _build([zero_symbol_repr], [WARMUP_N], seed))
    if workload == "kernel-sweep":
        return (_build(SWEEP_RECIPES, SWEEP_SIZES, seed),
                _build(SWEEP_RECIPES, [WARMUP_N], seed))
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
