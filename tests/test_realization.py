"""The realization certificate of the representation check, with the
peeling engine as its oracle."""

import json
import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tklab import representation
from tklab.cli_reports import (Scenario, ScenarioRun, bundled_scenario_dir,
                               load_scenario, run_scenario_object)
from tklab.config import Tolerances
from tklab.errors import FrameDeficientError
from tklab.representation import (RepresentationFrame, build_frame,
                                  certify_representation, default_depth,
                                  peel_members)

from test_representation import ORACLE_CASES, complement_frame
from test_structured_operators import _workloads

SCENARIOS = bundled_scenario_dir()
REPRESENTATION_SCENARIOS = sorted(
    p.stem for p in SCENARIOS.glob("*.json")
    if "representation" in json.loads(p.read_text()).get("checks", []))
#: P and D are evaluated in double precision, so a bound that reads at
#: roundoff level may undercut the exact value by about one unit of it
EPS = np.finfo(float).eps


def scenario_frame(name):
    run = ScenarioRun.validated(load_scenario(SCENARIOS / f"{name}.json"), Tolerances())
    kernel = run.kernel.subspace
    return build_frame(kernel, run.defect), run.depth


def oracle_frame(case):
    kind, m, N = case
    return complement_frame(kind, m, N, seed=10 * m + N), default_depth(N)


def _zero_symbol_frame(scenario):
    run = ScenarioRun.validated(scenario, Tolerances())
    return build_frame(run.kernel.subspace, run.defect), run.depth


def _repr_large_frame(N):
    """The repr-large workload's zero-symbol frame: G and H of degree < 8, so
    the kernel basis is a few Householder columns among unit vectors."""
    return _zero_symbol_frame(
        _workloads().zero_symbol_repr(np.random.default_rng([0, 1]), N))


def _full_degree_frame(N):
    """A zero-symbol frame whose G and H have full degree N: Q and A_Q are dense."""
    workloads, rng, m, n = _workloads(), np.random.default_rng(3), 2, 3
    G, H = (workloads._family(rng, m, N, N, n) for _ in range(2))
    return _zero_symbol_frame(Scenario(
        name=f"zero_full_degree[N={N}]", m=m, N=N, symbol_class="zero",
        checks=["defect_theorem", "representation"], seed=0, G=G, H=H,
        expect={"kernel_dim": m * N - n, "defect_dim": n}))


FRAMES = ([pytest.param(scenario_frame, name, id=name) for name in REPRESENTATION_SCENARIOS]
          + [pytest.param(oracle_frame, case, id="-".join(map(str, case)))
             for case in ORACLE_CASES]
          + [pytest.param(_repr_large_frame, 32, id="repr-large-32"),
             pytest.param(_full_degree_frame, 16, id="zero-full-degree-16")])
#: every frame on the measured route (under its own id), and again with
#: every product of the certificate taken over exact nonzeros, however dense
ROUTED_FRAMES = ([pytest.param(*p.values, False, id=p.id) for p in FRAMES]
                 + [pytest.param(*p.values, True, id=f"{p.id}-support-route")
                    for p in FRAMES])


def _take_route(support_route, monkeypatch):
    if support_route:
        monkeypatch.setattr(representation, "SUPPORT_PRODUCT_FACTOR", 0)


def _shift_up(V, m):
    """The truncating forward shift z of the Horner pass."""
    out = np.zeros_like(V)
    out[m:] = V[:-m]
    return out


def test_bundled_scenarios_are_covered():
    assert len(REPRESENTATION_SCENARIOS) >= 4
    for name in REPRESENTATION_SCENARIOS:
        assert load_scenario(SCENARIOS / f"{name}.json").N <= 64


@pytest.mark.parametrize("make,arg", FRAMES)
def test_realized_coefficients_equal_peeled_ones(make, arg):
    frame, depth = make(arg)
    cert = certify_representation(frame, depth)
    peeling = peel_members(frame.M.basis, frame)
    realized = cert.C  # column i holds C_Q A_Q^t e_i at step t
    for t, block in enumerate(peeling.series):
        members = peeling.lengths > t
        assert np.max(np.abs(realized[:, members] - block[:, members])) <= 1e-12, t
        assert not block[:, ~members].any(), t
        realized = realized @ cert.A
    assert peeling.lengths.max() == len(peeling.series)


@pytest.mark.parametrize("make,arg,support_route", ROUTED_FRAMES)
def test_bounds_cover_explicit_reassembly(make, arg, support_route, monkeypatch):
    # the realized series in extended precision, run until ||A_Q^t|| < 1e-14
    # and past the window, where z^t leaves nothing to reassemble
    frame, depth = make(arg)
    _take_route(support_route, monkeypatch)
    cert = certify_representation(frame, depth)
    M, r = frame.M, frame.r
    m, N, K = M.m, M.N, M.dim
    X = np.clongdouble
    Q, W, E = M.basis.astype(X), frame.W_matrix.astype(X), frame.E_matrix.astype(X)
    A, C = cert.A.astype(X), cert.C.astype(X)
    powers = [np.eye(K, dtype=X)]
    while len(powers) < N + depth or np.linalg.norm(powers[-1].astype(complex)) >= 1e-14:
        powers.append(A @ powers[-1])
    coords = [C @ power for power in powers]

    def reassembly(n):
        """R(A_Q^n e_i) for every column i: the coordinates shifted back n times."""
        acc = np.zeros((m * N, K), dtype=X)
        for u in reversed(coords[n:]):
            acc = _shift_up(acc + E @ u[r:], m) + W @ u[:r]
        return acc

    def column_norms(V):
        return np.linalg.norm(V.astype(complex), axis=0)

    recon = column_norms(reassembly(0) - Q)
    assert recon.max() <= cert.reconstruction + EPS
    coord_sq = sum(np.sum(np.abs(u) ** 2, axis=0) for u in coords)
    assert float(np.max(np.abs(1 - coord_sq))) <= cert.isometry + EPS
    assert len(cert.invariance.residuals) == depth
    for n, bound in enumerate(cert.invariance.residuals, start=1):
        # Q A_Q^n e_i is a member, so this also bounds the distance to M
        assert column_norms(reassembly(n) - Q @ powers[n]).max() <= bound + EPS, n


@pytest.mark.parametrize("kind", ["generic", "vanishing", "invariant"])
def test_bounds_are_at_roundoff_on_exact_frames(kind):
    frame = complement_frame(kind, 2, 16, seed=4)
    cert = certify_representation(frame, 4)
    assert cert.contraction < 0.5
    assert max(cert.reconstruction, cert.isometry, *cert.invariance.residuals) < 1e-12


def test_value_map_miss_is_deficient():
    # with a W column dropped, F(0) leaves range W(0) for some member F
    frame = complement_frame("generic", 2, 16, seed=7)
    assert frame.r == 2
    starved = RepresentationFrame(M=frame.M, W=frame.W[1:], E=frame.E)
    with pytest.raises(FrameDeficientError):
        certify_representation(starved, 4)


def test_missing_defect_direction_is_deficient():
    frame = complement_frame("generic", 2, 16, seed=7)
    assert frame.p >= 1
    starved = RepresentationFrame(M=frame.M, W=frame.W, E=frame.E[1:])
    with pytest.raises(FrameDeficientError):
        certify_representation(starved, 4)


def test_step_cap_is_deficient():
    frame = complement_frame("generic", 2, 16, seed=7)
    assert certify_representation(frame, 4).squarings > 2
    with pytest.raises(FrameDeficientError, match="contract"):
        certify_representation(frame, 4, max_steps=4)


def test_check_never_peels(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the representation check peeled")

    monkeypatch.setattr(representation, "peel_members", refuse)
    for name in REPRESENTATION_SCENARIOS:
        sc = load_scenario(SCENARIOS / f"{name}.json")
        sc.checks = ["representation"]
        [outcome] = run_scenario_object(sc, Tolerances()).outcomes
        assert outcome.status == "pass", name
        cert = outcome.residuals["certificate"]
        assert isinstance(cert["squarings"], int) and 0 <= cert["contraction"] < 0.5


# ---------------------------------------------------------------------------
# the norms of D and P on their exact nonzero support
# ---------------------------------------------------------------------------


def _full_norms(D, P):
    """||D|| and ||P|| from the K x K eigendecompositions the support replaces."""
    return (representation._norm2_hermitian(D),
            math.sqrt(representation._norm2_hermitian(P.conj().T @ P)))


def _full_support_norms(D, P):
    return (*_full_norms(D, P), D.shape[0], P.shape[1])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), K=st.integers(0, 24), rows=st.integers(1, 40),
       kind=st.sampled_from(["dense", "pattern", "zero"]))
def test_support_norms_equal_full_eigendecompositions(seed, K, rows, kind):
    rng = np.random.default_rng(seed)

    def noise(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    X = noise(K, K)
    D, P = X + X.conj().T, noise(rows, K)
    if kind == "pattern":
        # exact zeros outside a random index set, roundoff that breaks the
        # symmetry on it, and stray entries whose transposes stay zero
        keep = rng.random(K) < 0.4
        D[~keep] = 0.0
        D[:, ~keep] = 0.0
        D[np.ix_(keep, keep)] += 1e-16 * noise(keep.sum(), keep.sum())
        for _ in range(rng.integers(0, 3)):
            i, j = rng.integers(0, K, size=2) if K else (0, 0)
            if K and D[j, i] == 0.0:
                D[i, j] = 1e-16 * noise(1)[0]
        P[:, rng.random(K) < 0.6] = 0.0
    elif kind == "zero":
        D[:], P[:] = 0.0, 0.0
    scale = 10.0 ** rng.uniform(-14, 2)
    D, P = scale * D, scale * P
    d_norm, p_norm, d_support, p_support = representation._support_norms(D, P)
    d_full, p_full = _full_norms(D, P)
    assert d_norm == pytest.approx(d_full, rel=1e-13, abs=0.0)
    assert p_norm == pytest.approx(p_full, rel=1e-13, abs=0.0)
    assert d_support == np.sum((D != 0).any(axis=0) | (D != 0).any(axis=1))
    assert p_support == np.sum((P != 0).any(axis=0))
    if kind == "zero":
        assert (d_norm, p_norm, d_support, p_support) == (0.0, 0.0, 0, 0)


def test_support_is_the_union_of_nonzero_rows_and_columns():
    # a GEMM result need not be bitwise Hermitian: entry (1, 3) may hold
    # roundoff while (3, 1) is exactly zero; the columns alone miss row 1
    D = np.zeros((5, 5), complex)
    D[1, 3] = 3e-16
    d_norm, p_norm, d_support, p_support = representation._support_norms(
        D, np.zeros((4, 5), complex))
    assert (d_support, p_support, p_norm) == (2, 0, 0.0)
    assert d_norm == pytest.approx(_full_norms(D, np.zeros((4, 5)))[0], rel=1e-13)
    assert d_norm == pytest.approx(1.5e-16, rel=1e-13)


@pytest.mark.parametrize("make,arg", FRAMES)
def test_certificate_equals_full_eigendecompositions(make, arg, monkeypatch):
    frame, depth = make(arg)
    cert = certify_representation(frame, depth)
    monkeypatch.setattr(representation, "_support_norms", _full_support_norms)
    full = certify_representation(frame, depth)
    assert (cert.squarings, cert.contraction) == (full.squarings, full.contraction)
    for ours, oracle in zip((cert.isometry, cert.reconstruction, *cert.invariance.residuals),
                            (full.isometry, full.reconstruction, *full.invariance.residuals)):
        assert ours == pytest.approx(oracle, rel=1e-13, abs=0.0)
    K = frame.M.dim
    assert 0 <= cert.support[0] <= K and 0 <= cert.support[1] <= K


def test_eigendecompositions_do_not_grow_with_N(monkeypatch):
    # on the zero route's Householder basis D and P live on a fixed handful
    # of indices, so the certificate's eigvalsh calls keep their size as K
    # doubles
    real = np.linalg.eigvalsh
    sizes = {}
    for N in (64, 128):
        frame, depth = _repr_large_frame(N)
        calls = []

        def spy_eigvalsh(H, *args, **kwargs):
            calls.append(H.shape)
            return real(H, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", spy_eigvalsh)
            cert = certify_representation(frame, depth)
        sizes[N] = calls
        assert list(cert.support) == [calls[0][0], calls[1][0]]
    assert len(sizes[64]) == 2 and sizes[64] == sizes[128]
    assert max(max(shape) for shape in sizes[64]) < 64


def test_report_records_the_supports():
    scenario = _workloads().zero_symbol_repr(np.random.default_rng([0, 1]), 64)
    report = run_scenario_object(scenario, Tolerances())
    outcome = report.outcomes[1]
    assert outcome.name == "representation" and outcome.status == "pass"
    frame, depth = _repr_large_frame(64)
    cert = certify_representation(frame, depth)
    support = outcome.residuals["certificate"]["support"]
    assert support == list(cert.support)
    assert all(isinstance(s, int) and 0 < s < outcome.residuals["kernel_dim"]
               for s in support)
    nonzeros = outcome.residuals["certificate"]["nonzeros"]
    assert nonzeros == list(cert.nonzeros)
    K = outcome.residuals["kernel_dim"]
    assert all(isinstance(n, int) and 0 < n < K * K for n in nonzeros)
    assert nonzeros[0] == np.count_nonzero(cert.A)


# ---------------------------------------------------------------------------
# the certificate's products over exact nonzeros
# ---------------------------------------------------------------------------


def _dense_formula(frame, depth):
    """Reference copy of the certificate with every product on BLAS, as it
    was computed before the products ran over exact nonzeros."""
    M = frame.M
    m, N = M.m, M.N
    Q = M.basis
    max_steps = max(64 * N, 4096)
    C, R, P = representation._peel_step(frame, Q)
    A = Q.conj().T @ R
    Y = frame.E_matrix @ C[frame.r:] + Q @ A
    P[m:] -= Y[:-m]
    d_norm, p_norm, d_support, p_support = representation._support_norms(
        np.eye(M.dim) - A.conj().T @ A - C.conj().T @ C, P)
    power, squarings = A, 0
    q = float(np.linalg.norm(power))
    while not q < 0.5:
        assert np.isfinite(q) and 2 ** (squarings + 1) <= max_steps
        power = power @ power
        squarings += 1
        q = float(np.linalg.norm(power))
    T = 2 ** squarings
    c_T = math.exp(min(0.5 * T * math.log1p(d_norm), 700.0))
    recon = p_norm * T * c_T / (1.0 - q)
    return {"A": A, "C": C, "power": power, "squarings": squarings, "contraction": q,
            "reconstruction": recon, "isometry": d_norm * T * c_T * c_T / (1.0 - q * q),
            "invariance": tuple(recon * (1.0 + d_norm) ** (n / 2)
                                for n in range(1, depth + 1)),
            "support": (d_support, p_support)}


@pytest.mark.parametrize("make,arg,support_route", ROUTED_FRAMES)
def test_certificate_matches_dense_formula(make, arg, support_route, monkeypatch):
    # a sum over exact nonzeros is the dense sum without its exactly-zero
    # terms: only the summation order moves, within the same error bound
    frame, depth = make(arg)
    dense = _dense_formula(frame, depth)
    _take_route(support_route, monkeypatch)
    cert = certify_representation(frame, depth)
    assert cert.squarings == dense["squarings"]
    if not support_route:
        # an entry of D that cancels exactly in one summation order need not
        # in another (K = 1 on inner_monomial_rank_one), so the supports are
        # compared where the frame's own products run
        assert cert.support == dense["support"]
    # a nilpotent A_Q contracts at roundoff, where only the absolute error tells
    assert cert.contraction == pytest.approx(dense["contraction"], rel=1e-12, abs=1e-14)
    assert np.max(np.abs(cert.A - dense["A"]), initial=0.0) <= 1e-14
    assert np.array_equal(cert.C, dense["C"])
    assert cert.nonzeros[0] == np.count_nonzero(cert.A)


def test_dense_frame_takes_blas_bitwise(monkeypatch):
    frame, depth = _full_degree_frame(16)
    K = frame.M.dim
    dense = _dense_formula(frame, depth)
    assert np.count_nonzero(frame.M.basis) > 0.9 * frame.M.basis.size
    real, on_blas = representation._product, []

    def spy(X, Y):
        out = real(X, Y)
        on_blas.append(isinstance(out, np.ndarray))
        return out

    monkeypatch.setattr(representation, "_product", spy)
    cert = certify_representation(frame, depth)
    assert on_blas == [True] * (4 + cert.squarings)
    assert np.array_equal(cert.A, dense["A"]) and np.array_equal(cert.C, dense["C"])
    for key in ("squarings", "contraction", "reconstruction", "isometry", "support"):
        assert getattr(cert, key) == dense[key], key
    assert cert.invariance.residuals == dense["invariance"]
    assert cert.nonzeros == (np.count_nonzero(dense["A"]), np.count_nonzero(dense["power"]))
    assert cert.nonzeros[0] == K * K


def test_representation_check_imports_no_scipy():
    # importing scipy costs about 0.2 s per process, which every worker would
    # pay in set-up; the certificate's products are numpy alone
    code = "\n".join([
        "import sys",
        "import tklab",
        "from tklab import cli_reports",
        "path = cli_reports.bundled_scenario_dir() / 'zero_symbol_defect.json'",
        "scenario = cli_reports.load_scenario(path)",
        "scenario.checks = ['representation']",
        "[outcome] = cli_reports.run_scenario_object(scenario, tklab.Tolerances()).outcomes",
        "print(outcome.status, 'scipy' in sys.modules)"])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["pass", "False"]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(0, 12), inner=st.integers(0, 12),
       cols=st.integers(0, 12), kind=st.sampled_from(["pattern", "zero", "dense"]),
       held=st.sampled_from(["array", "nonzeros", "adjoint"]))
def test_product_over_nonzeros_equals_matmul(seed, rows, inner, cols, kind, held):
    rng = np.random.default_rng(seed)

    def noise(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    X, Y = noise(rows, inner), noise(inner, cols)
    if kind == "pattern":
        X[rng.random(X.shape) < rng.uniform(0.3, 1.0)] = 0.0
        Y[rng.random(Y.shape) < rng.uniform(0.3, 1.0)] = 0.0
    elif kind == "zero":
        X[:] = 0.0
    expected = X @ Y
    if held == "array":
        x, y = X, Y
    elif held == "nonzeros":
        x, y = representation._nonzeros(X), representation._nonzeros(Y)
    else:
        x = representation._adjoint(representation._nonzeros(X.conj().T.copy()))
        y = representation._nonzeros(Y)
    # the dense pattern keeps the measured crossover and must take BLAS; every
    # other pattern takes the support route, however small its count
    factor = representation.SUPPORT_PRODUCT_FACTOR if kind == "dense" else 0
    with mock.patch.object(representation, "SUPPORT_PRODUCT_FACTOR", factor):
        out = representation._product(x, y)
    if kind == "dense" or not rows * inner * cols:  # BLAS takes empty products
        assert isinstance(out, np.ndarray)
        if held == "array":
            assert np.array_equal(out, expected)
    else:
        assert isinstance(out, representation._Nonzeros) and out.shape == (rows, cols)
        assert np.all(out.vals != 0)
        assert np.all(np.diff(out.rows * cols + out.cols) > 0)  # row-major, no repeats
    got = representation._dense(out)
    assert got.shape == expected.shape
    # both sums carry at most the standard forward error of an inner-term sum
    bound = 4 * (inner + 2) * EPS * (np.abs(X) @ np.abs(Y))
    assert np.all(np.abs(got - expected) <= bound)
