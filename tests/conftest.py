import numpy as np
import pytest

from tklab import (cli_reports, model_spaces, near_invariance, operators,
                   representation, symbols)
from tklab.cli_reports import Scenario, ScenarioRun
from tklab.config import Tolerances
from tklab.hardy_core import CoeffVec
from tklab.operators import orthonormalize_family
from tklab.subspaces import _LinkBlock
from tklab.symbols import LaurentMatrixSymbol


def rand_coeffvec(rng, m, N, deg, lo=0):
    """Random polynomial element supported on degrees [lo, deg)."""
    arr = np.zeros((m, N), dtype=complex)
    arr[:, lo:deg] = (rng.standard_normal((m, deg - lo))
                      + 1j * rng.standard_normal((m, deg - lo)))
    return CoeffVec(arr)


def rand_orthonormal(rng, m, N, deg, count, lo=0):
    return orthonormalize_family(
        [rand_coeffvec(rng, m, N, deg, lo=lo) for _ in range(count)])


def unit(v: CoeffVec) -> CoeffVec:
    return v * (1.0 / v.norm())


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_unitary(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_inner(rng, m, degree):
    """Exactly inner polynomial U_0 prod_k (I - P_k + z P_k) U_k with rank-one
    projections P_k: mixes components, degree `degree`."""
    theta = LaurentMatrixSymbol.constant(random_unitary(rng, m))
    for _ in range(degree):
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        P = np.outer(v, v.conj()) / np.vdot(v, v)
        factor = LaurentMatrixSymbol(m, {0: np.eye(m) - P, 1: P})
        theta = theta.multiply(factor).multiply(
            LaurentMatrixSymbol.constant(random_unitary(rng, m)))
    return theta


#: every tklab module a spy may find a name bound in
TKLAB_MODULES = (cli_reports, near_invariance, representation, model_spaces, operators,
                 symbols)


def spy(monkeypatch, name, modules=TKLAB_MODULES):
    """Wrap ``name`` in each of the modules that binds it; the returned list
    collects the positional arguments of every call through any of them.

    Raises when none of the modules binds the name: a spy on a function that
    was renamed or removed would count nothing and pass vacuously.
    """
    bound = [module for module in modules if getattr(module, name, None) is not None]
    if not bound:
        raise AttributeError(f"no module in {[m.__name__ for m in modules]} binds {name!r}")
    calls = []
    for module in bound:
        def wrapper(*args, real=getattr(module, name), **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


def linked(X):
    """The array X held as links plus one block (``subspaces._LinkBlock``):
    its exact unit columns, one nonzero equal to 1.0 on a row that no
    earlier one took and no other column fills, are the links, and its other
    nonzero columns are the block, on their nonzero rows."""
    X = np.asarray(X, dtype=complex)
    nonzero = X != 0
    if not X.size:
        return _LinkBlock(*[np.zeros(0, int)] * 4, X[:0, :0], X.shape)
    row = nonzero.argmax(axis=0)
    unit = (nonzero.sum(axis=0) == 1) & (X[row, np.arange(X.shape[1])] == 1.0)
    taken = set()
    for j in np.flatnonzero(unit):
        unit[j] = row[j] not in taken
        taken.add(row[j])
    unit &= ~nonzero[:, ~unit].any(axis=1)[row]  # a link shares no row with the block
    J = np.flatnonzero(~unit & nonzero.any(axis=0))
    I = np.flatnonzero(nonzero[:, J].any(axis=1))
    return _LinkBlock(row[unit], np.flatnonzero(unit), I, J, X[np.ix_(I, J)], X.shape)


def svd_shapes(monkeypatch):
    """Record the shape of every matrix passed to ``np.linalg.svd``."""
    shapes = []
    real = np.linalg.svd

    def wrapper(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", wrapper)
    return shapes


def certified(*factors):
    """Each factor's invertibility certificate, as a scenario's validation
    proves it: the factored kernel solve takes these."""
    return tuple(symbols.is_invertible_analytic(F) for F in factors)


def class_scenario(symbol_class, G, H, N, *, symbol=None, factors=None, m=None):
    """A one-check defect_theorem scenario of the class; ``m`` defaults to
    that of the first G, the symbol or the first factor."""
    if m is None:
        m = next(x.m for x in [*G, symbol, *(factors or ())] if x is not None)
    return Scenario(name=f"{symbol_class}_defect", m=m, N=N, symbol_class=symbol_class,
                    checks=["defect_theorem"], seed=0, G=list(G), H=list(H),
                    symbol=symbol, factors=factors)


def class_defect(symbol_class, G, H, N, *, symbol=None, factors=None, m=None,
                 **tolerances):
    """The measured defect of T = T_Phi + sum <., G_i> H_i with its class
    prediction, as the defect_theorem check computes it:
    ``ScenarioRun.predicted_defect()`` of the ``class_scenario``.  Keywords
    are ``Tolerances`` field names.

    The scenario is not validated, so a truncation below the scenario
    headroom stays allowed; the run still demands orthonormal families.
    """
    sc = class_scenario(symbol_class, G, H, N, symbol=symbol, factors=factors, m=m)
    return ScenarioRun(sc, Tolerances(**tolerances)).predicted_defect()
