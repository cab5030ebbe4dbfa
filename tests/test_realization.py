"""The realization certificate, the one representation engine of the
representation and rank-one checks, with the member peeler as its oracle."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tklab
from tklab import representation, subspaces
from tklab.cli_reports import (Scenario, ScenarioRun, bundled_scenario_dir,
                               load_scenario, run_scenario_object)
from tklab.config import Tolerances
from tklab.errors import FrameDeficientError
from tklab.representation import (RepresentationFrame, build_frame,
                                  certify_representation, default_depth)
from tklab.subspaces import column_norms

from conftest import linked, spy
from peeling_oracle import peel_members
from test_representation import ORACLE_CASES, complement_frame
from test_structured_operators import _workloads
from zero_route_oracle import dense_certificate

SCENARIOS = bundled_scenario_dir()


def _scenarios_with(check):
    return sorted(p.stem for p in SCENARIOS.glob("*.json")
                  if check in json.loads(p.read_text()).get("checks", []))


REPRESENTATION_SCENARIOS = _scenarios_with("representation")
RANK_ONE_SCENARIOS = _scenarios_with("rank_one")
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
#: every frame on the measured route (under its own id), and again with its
#: basis held as links plus one block on its nonzero lines, however dense
ROUTED_FRAMES = ([pytest.param(*p.values, False, id=p.id) for p in FRAMES]
                 + [pytest.param(*p.values, True, id=f"{p.id}-support-route")
                    for p in FRAMES])


def _routed(frame, support_route):
    """The frame, or with ``support_route`` the same frame over M's basis
    re-held by ``linked``: the certificate then reads it on its active
    window, with the passive links held apart."""
    if not support_route:
        return frame
    M = frame.M
    held = subspaces.Subspace(M.m, M.N, linked(M.basis), M.tol, M.sigma_gap)
    return RepresentationFrame(M=held, W=frame.W, E=frame.E)


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
        realized = realized @ subspaces._dense(cert.A)
    assert peeling.lengths.max() == len(peeling.series)


@pytest.mark.parametrize("make,arg,support_route", ROUTED_FRAMES)
def test_bounds_cover_explicit_reassembly(make, arg, support_route):
    # the realized series in extended precision, run until ||A_Q^t|| < 1e-14
    # and past the window, where z^t leaves nothing to reassemble
    frame, depth = make(arg)
    frame = _routed(frame, support_route)
    cert = certify_representation(frame, depth)
    M, r = frame.M, frame.r
    m, N, K = M.m, M.N, M.dim
    X = np.clongdouble
    Q, W, E = M.basis.astype(X), frame.W_matrix.astype(X), frame.E_matrix.astype(X)
    A, C = subspaces._dense(cert.A).astype(X), cert.C.astype(X)
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


def test_check_never_peels():
    # the certificate is the package's one representation engine; the member
    # peeler lives in the tests, as its oracle
    for name in ("peel_members", "Peeling", "Coordinates", "_reassemble"):
        assert not hasattr(representation, name), name
        assert not hasattr(tklab, name), name
    for name in REPRESENTATION_SCENARIOS:
        sc = load_scenario(SCENARIOS / f"{name}.json")
        sc.checks = ["representation"]
        [outcome] = run_scenario_object(sc, Tolerances()).outcomes
        assert outcome.status == "pass", name
        cert = outcome.residuals["certificate"]
        assert isinstance(cert["squarings"], int) and 0 <= cert["contraction"] < 0.5


#: the peeler stops a member once its remainder is at most 1e-10 of its
#: norm; a tail it leaves inside the window enters its reassemblies
PEEL_FLOOR = 1e-10


def test_rank_one_scenarios_are_covered():
    assert len(RANK_ONE_SCENARIOS) >= 10


@pytest.mark.parametrize("name", RANK_ONE_SCENARIOS)
def test_rank_one_frames_agree_with_the_peeling_oracle(name, monkeypatch):
    sc = load_scenario(SCENARIOS / f"{name}.json")
    sc.checks = ["rank_one"]
    certified = spy(monkeypatch, "certify_representation", [representation])
    [outcome] = run_scenario_object(sc, Tolerances()).outcomes
    assert outcome.status == "pass" and len(certified) == 1
    [(frame, depth)] = certified
    cert = certify_representation(frame, depth)
    M = frame.M
    series = representation._realized_series(cert, np.eye(M.dim))
    peeling = peel_members(M.basis, frame, depth=depth)
    assert len(series) == len(peeling.series)
    for t, (realized, peeled) in enumerate(zip(series, peeling.series)):
        alive = peeling.lengths > t
        assert np.max(np.abs(realized[:, alive] - peeled[:, alive]), initial=0.0) <= 1e-12
    # the bounds cover what the oracle measures, up to its own truncation
    # (none once a member's series outlasts the window) and the basis
    # columns' unit-norm roundoff
    norms = peeling.source_norms
    tail = np.where(peeling.lengths >= M.N + depth, 0.0, PEEL_FLOOR * norms)
    assert np.all(peeling.reconstruction_residuals <= cert.reconstruction + tail + EPS)
    assert np.all(peeling.isometry_gaps <= cert.isometry + np.abs(norms ** 2 - 1) + EPS)
    assert len(cert.invariance.residuals) == depth
    for n, bound in enumerate(cert.invariance.residuals, start=1):
        R = peeling.reassemblies[n]
        measured = column_norms(R - M.project_flat(R)) / norms
        assert np.all(measured <= bound + tail + EPS), n


# ---------------------------------------------------------------------------
# the norms of D and P on their exact nonzero support
# ---------------------------------------------------------------------------


def _full_norms(D, P):
    """||D|| and ||P|| from the K x K eigendecompositions the support replaces."""
    return (representation._norm2_hermitian(D),
            math.sqrt(representation._norm2_hermitian(P.conj().T @ P)))


def _full_support_norms(D, P):
    D, P = subspaces._dense(D), subspaces._dense(P)
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
    assert nonzeros[0] == np.count_nonzero(subspaces._dense(cert.A))


# ---------------------------------------------------------------------------
# the certificate's products on the held basis's active window
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make,arg,support_route", ROUTED_FRAMES)
def test_certificate_matches_dense_formula(make, arg, support_route):
    # a GEMM over the window sums the dense sum's terms less exact zeros,
    # and a passive link maps an entry without arithmetic: only the
    # summation order moves, within the same error bound
    frame, depth = make(arg)
    dense = dense_certificate(frame, depth)
    frame = _routed(frame, support_route)
    cert = certify_representation(frame, depth)
    assert cert.squarings == dense["squarings"]
    if not support_route:
        # an entry of D that cancels exactly in one summation order need not
        # in another (K = 1 on inner_monomial_rank_one), so the supports are
        # compared where the frame's own products run
        assert cert.support == dense["support"]
    # a nilpotent A_Q contracts at roundoff, where only the absolute error tells
    assert cert.contraction == pytest.approx(dense["contraction"], rel=1e-12, abs=1e-14)
    A = subspaces._dense(cert.A)
    assert np.max(np.abs(A - dense["A"]), initial=0.0) <= 1e-14
    if isinstance(frame.M.held, np.ndarray):
        assert np.array_equal(cert.C, dense["C"])
    else:
        # the peeling step's products run on the window's rows only
        assert np.max(np.abs(cert.C - dense["C"]), initial=0.0) <= 1e-14
    assert cert.nonzeros[0] == np.count_nonzero(A)


def test_dense_frame_takes_blas_bitwise(monkeypatch):
    frame, depth = _full_degree_frame(16)
    K = frame.M.dim
    dense = dense_certificate(frame, depth)
    assert np.count_nonzero(frame.M.basis) > 0.9 * frame.M.basis.size
    assert isinstance(frame.M.held, np.ndarray)

    def refuse(*args):
        raise AssertionError("an array basis took the links-plus-block route")

    # an array basis is its own window: the step and the squarings run the
    # dense formula's numpy calls, and nothing holds or reads a link
    for name in ("_LinkBlock", "_dense", "_shift_chains", "_product"):
        monkeypatch.setattr(representation, name, refuse)
    cert = certify_representation(frame, depth)
    assert isinstance(cert.A, np.ndarray)
    assert np.array_equal(cert.A, dense["A"]) and np.array_equal(cert.C, dense["C"])
    for key in ("squarings", "contraction", "reconstruction", "isometry", "support"):
        assert getattr(cert, key) == dense[key], key
    assert cert.invariance.residuals == dense["invariance"]
    assert cert.nonzeros == (np.count_nonzero(dense["A"]), np.count_nonzero(dense["power"]))
    assert cert.nonzeros[0] == K * K
    assert cert.head == K


def _dense_squarings(A, max_steps):
    """Repeated squaring of the whole dense A, reading q at every T:
    (k, ||A^(2^k)||_F, A^(2^k)), or the message the certificate refuses
    with."""
    power, k = A, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while not (q := float(np.linalg.norm(power))) < 0.5:
            if not np.isfinite(q) or 2 ** (k + 1) > max_steps:
                return (f"one peeling step does not contract within {max_steps} steps "
                        f"(||A^{2 ** k}||_F = {q:.3e})")
            power, k = power @ power, k + 1
    return k, q, power


def _shift_chain_matrix(rng, K, head, cycles, widen, scale):
    """A K x K matrix of link chains into a random head block of ``head``
    columns and Frobenius norm ``scale``, with ``cycles`` link cycles;
    ``widen`` puts head nonzeros in link rows."""
    order = [int(j) for j in rng.permutation(K)]
    A = np.zeros((K, K), complex)
    heads, rest = order[:head], order[head:]
    for _ in range(cycles):
        size = min(int(rng.integers(1, 6)), len(rest))
        loop, rest = rest[:size], rest[size:]
        for j, i in zip(loop, loop[1:] + loop[:1]):
            A[i, j] = 1.0
    # chains of random length, each into a random head entry or, without a
    # head, ended by a zero column
    while rest:
        size = min(int(rng.integers(1, 40)), len(rest))
        chain, rest = rest[:size], rest[size:]
        end = heads[int(rng.integers(len(heads)))] if heads else chain.pop()
        for j, i in zip(chain, chain[1:] + [end]):
            A[i, j] = 1.0
    reach = order if widen else heads
    block = np.zeros((K, K), complex)
    for j in heads:
        rows = rng.choice(reach, size=int(rng.integers(1, len(heads) + 2)))
        block[rows, j] = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
    return A + scale / (np.linalg.norm(block) or 1.0) * block


def _contraction_outcome(x, max_steps):
    """``_contraction``'s result, or the message it refuses with."""
    try:
        return representation._contraction(x, max_steps)
    except FrameDeficientError as exc:
        return str(exc)


def _refused_at(message):
    """The T of a refusal message's ||A^T||_F."""
    return int(message.split("||A^")[1].split("||")[0])


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), K=st.integers(1, 200), head=st.integers(0, 6),
       cycles=st.sampled_from([0, 0, 1, 2]), widen=st.booleans(),
       scale=st.sampled_from([0.3, 0.9, 3.0, 1e80]),
       max_steps=st.sampled_from([8, 4096, 4096]), held=st.sampled_from(["array", "links"]))
def test_contraction_equals_dense_squaring(seed, K, head, cycles, widen, scale, max_steps,
                                           held):
    A = _shift_chain_matrix(np.random.default_rng(seed), K, head, cycles, widen, scale)
    dense = _dense_squarings(A, max_steps)
    x = A if held == "array" else linked(A)
    outcome = _contraction_outcome(x, max_steps)
    if isinstance(dense, str):
        # the fast-forward refuses at the T where reading q at every T does
        assert isinstance(outcome, str) and _refused_at(outcome) == _refused_at(dense)
        return
    squarings, q, nonzeros, h = outcome
    k, q_dense, power = dense
    assert squarings == k
    assert q == pytest.approx(q_dense, rel=1e-12, abs=1e-14)
    # a sum that reaches an exact zero, or underflows, in one summation
    # order need not in another
    if np.all((power == 0) | (np.abs(power) > 1e-250)):
        assert nonzeros == np.count_nonzero(power)
    assert h == K if held == "array" else 0 <= h <= K


def test_cyclic_shift_never_contracts():
    K = 9
    cycle = linked(np.roll(np.eye(K), 1, axis=0))
    assert cycle.link_cols.size == K
    with pytest.raises(FrameDeficientError, match="within 4096 steps"):
        representation._contraction(cycle, 4096)


def _refusing(kind):
    """A 60 x 60 matrix whose contraction refuses: a chain of 50 links into a
    2 x 2 head, plus a cycle of 8 links (``cycle``), a head of norm 1e80
    whose squares overflow (``overflow``), or a contracting head that the
    step cap cuts off (``max_steps``); with the cap and the T it refuses at."""
    A = np.zeros((60, 60), complex)
    A[np.arange(1, 51), np.arange(50)] = 1.0  # e_j -> e_(j+1), into column 50
    A[50:52, 50:52] = [[0.25, 0.5], [0.125, 0.25]]
    if kind == "cycle":
        A[np.r_[53:60, 52], np.arange(52, 60)] = 1.0
        return A, 4096, 4096
    if kind == "overflow":
        A[50:52, 50:52] *= 4e80
        return A, 4096, 2
    return A, 16, 16


@pytest.mark.parametrize("kind", ["cycle", "overflow", "max_steps"])
@pytest.mark.parametrize("held", ["array", "links"])
def test_fast_forward_refuses_where_every_T_is_read(kind, held):
    # each refusal falls while the chain of 50 or the cycle remains, where
    # the squarings fast-forward and read q only where they must refuse
    A, max_steps, T = _refusing(kind)
    x = A if held == "array" else linked(A)
    outcome = _contraction_outcome(x, max_steps)
    assert outcome == _dense_squarings(A, max_steps)
    assert _refused_at(outcome) == T


@pytest.mark.parametrize("K", [1, 2, 5, 8, 9, 200, 32, 34, 128, 130])
def test_nilpotent_shift_contracts_when_the_chains_run_out(K):
    # A e_j = e_(j+1): every column but the last is a link into the 1 x 1
    # zero head, and ||A^T||_F^2 = max(K - T, 0).  The longest chain, K - 1
    # links, keeps q >= 1 at every T below it, so the squarings fast-forward
    # to its end, also for chains one below and one above a power of two
    shift = linked(np.eye(K, k=-1))
    assert shift.link_cols.size == K - 1
    expected = (math.ceil(math.log2(K)), 0.0, 0, 1)
    assert representation._contraction(shift, 4096) == expected
    k, q, power = _dense_squarings(np.eye(K, k=-1), 4096)
    assert (k, q, np.count_nonzero(power)) == expected[:3]


def test_head_widens_over_the_chains_it_reaches():
    # head column 0 reaches link 3, whose chain 3 -> 4 -> 5 into the zero
    # column 5 joins the head; the chain 1 -> 2 -> 0 stays links
    A = np.zeros((6, 6), complex)
    A[[2, 0, 4, 5], [1, 2, 3, 4]] = 1.0
    A[3, 0] = 0.2
    assert linked(A).link_cols.size == 4
    squarings, q, nonzeros, h = representation._contraction(linked(A), 64)
    assert h == 4
    k, q_dense, power = _dense_squarings(A, 64)
    assert (squarings, nonzeros) == (k, np.count_nonzero(power))
    assert q == pytest.approx(q_dense, rel=1e-12)


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
       cols=st.integers(0, 12), kind=st.sampled_from(["pattern", "zero", "dense", "units"]),
       held=st.sampled_from(["array", "left", "right"]))
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
    elif kind == "units":
        # exact unit columns, which ``linked`` holds as links
        for Z in (X, Y):
            for j in np.flatnonzero(rng.random(Z.shape[1]) < 0.6) if Z.size else ():
                Z[:, j] = 0.0
                Z[rng.integers(Z.shape[0]), j] = 1.0
    expected = X @ Y
    # a held factor meets an array, on either side
    x = linked(X) if held == "left" else X
    y = linked(Y) if held == "right" else Y
    got = subspaces._product(x, y)
    assert isinstance(got, np.ndarray) and got.shape == expected.shape
    if held == "array":  # two arrays take BLAS
        assert np.array_equal(got, expected)
    # both sums carry at most the standard forward error of an inner-term sum
    bound = 4 * (inner + 2) * EPS * (np.abs(X) @ np.abs(Y))
    assert np.all(np.abs(got - expected) <= bound)
