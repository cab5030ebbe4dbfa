"""The zero-symbol route on links plus one block, against its dense oracles.

The kernel of A = H G^H is held as its unit columns (the links) plus an
s-row head block (``subspaces._LinkBlock``); the defect, the prediction and
the realization certificate read it through ``_product``.  Here it is held to the dense
``nullspace`` of the action matrix, to the dense-QR kernel and the BLAS
certificate of ``tests/zero_route_oracle.py``, and, at N = 4096, to a
memory guard under which no mN x K array fits.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tklab import representation, subspaces
from tklab.cli_reports import Scenario, ScenarioRun, run_scenario_object
from tklab.config import SUBSPACE_GRAM_BOUND, Tolerances
from tklab.errors import FrameDeficientError
from tklab.hardy_core import column_vectors
from tklab.near_invariance import (KernelResult, _zero_prediction, compute_defect,
                                   kernel_of)
from tklab.operators import build_perturbed
from tklab.representation import build_frame, certify_representation, default_depth
from tklab.subspaces import Subspace, _LinkBlock, nullspace, subspace_equal
from tklab.symbols import LaurentMatrixSymbol

from conftest import linked
from test_structured_operators import _workloads
from zero_route_oracle import dense_certificate, dense_zero_kernel

EPS = np.finfo(float).eps


def _clean_cut(gap, cut):
    """Both boundary singular values sit off the cut by more than roundoff."""
    margin = 1e-6 * cut
    return ((gap.signal_side is None or gap.signal_side > cut + margin)
            and (gap.zero_side is None or cut == 0.0 or gap.zero_side < cut - margin))


@st.composite
def supported_operators(draw):
    """Zero-symbol operators whose G lives on its first s flat rows, s up to
    mN, sometimes with its top row (degree N - 1, last component) nonzero.
    Each column of G and H is random with a random scale, a multiple of an
    earlier column, or zero."""
    m = draw(st.sampled_from([1, 2, 3]))
    N = draw(st.integers(2, 40))
    if draw(st.integers(0, 5)) == 0:
        N = draw(st.sampled_from([128, 256]))
    rows = m * N
    n = draw(st.integers(0, min(4, rows - 1)))
    s = draw(st.integers(1, rows))
    top = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def family(support):
        X = np.zeros((rows, n), complex)
        for j in range(n):
            kind = draw(st.sampled_from(["random", "random", "random", "multiple", "zero"]))
            if kind == "random" or (kind == "multiple" and not j):
                X[:support, j] = (rng.standard_normal(support)
                                  + 1j * rng.standard_normal(support))
                X[:, j] *= 10.0 ** rng.uniform(-2, 2)
            elif kind == "multiple":
                X[:, j] = rng.uniform(0.5, 2.0) * X[:, int(rng.integers(j))]
        return X

    G, H = family(s), family(rows)
    if top and n:
        G[rows - 1, int(rng.integers(n))] += 1.0
    T = build_perturbed(LaurentMatrixSymbol.zero(m), N, column_vectors(G, m, N),
                        column_vectors(H, m, N), require_orthonormal=False)
    return T


def _oracle_kernel(T):
    basis, U, image = dense_zero_kernel(T)
    norms = np.linalg.norm(image, axis=0)
    return KernelResult(subspace=basis, residual_max=float(np.max(norms, initial=0.0)),
                        audit_violations=int(np.sum(
                            norms > 10.0 * max(basis.tol, EPS))),
                        method="zero", complement=U)


def _close(ours, oracle, tol):
    assert (ours is None) == (oracle is None), (ours, oracle)
    if oracle is not None:
        assert abs(ours - oracle) <= tol, (ours, oracle, tol)


@settings(max_examples=40, deadline=None)
@given(supported_operators())
def test_nonzero_route_matches_dense_oracles(T):
    m, N, rows = T.m, T.N, T.m * T.N
    kr = kernel_of(T)
    # only a G of full degree leaves no unit columns to hold as links
    full_degree = bool(np.any(T.G_matrix[-1] != 0))
    assert kr.method == "zero"
    assert isinstance(kr.subspace.held, _LinkBlock) != full_degree
    oracle = _oracle_kernel(T)
    dense = nullspace(T.action_matrix(), (m, N))
    assume(_clean_cut(dense.sigma_gap, dense.tol))
    assume(_clean_cut(oracle.sigma_gap, oracle.sigma_cut))
    # the kernel: dimension, span, gap and audit
    K = kr.subspace
    assert K.dim == oracle.subspace.dim == dense.dim
    assert subspace_equal(K, oracle.subspace, 1e-12)[0]
    signal = dense.sigma_gap.signal_side
    scale = np.linalg.norm(T.action_matrix(), 2) / signal if signal else 1.0
    assert subspace_equal(K, dense, max(1e-10, 1e-13 * scale))[0]
    action_norm = float(np.linalg.norm(T.action_matrix(), 2))
    roundoff = 64 * rows * EPS * max(action_norm, 1.0)
    _close(kr.sigma_gap.zero_side, oracle.sigma_gap.zero_side, roundoff)
    _close(kr.sigma_gap.signal_side, oracle.sigma_gap.signal_side, roundoff)
    assert kr.sigma_cut == oracle.sigma_cut
    assert abs(kr.residual_max - oracle.residual_max) <= roundoff
    assert kr.audit_violations == oracle.audit_violations == 0
    assert np.max(np.abs(kr.complement @ kr.complement.conj().T
                         - oracle.complement @ oracle.complement.conj().T),
                  initial=0.0) <= 1e-12
    # the defect and the prediction
    measured = compute_defect(K, complement=kr.complement)
    reference = compute_defect(oracle.subspace, complement=oracle.complement)
    assume(_clean_cut(reference.sigma_gap, reference.defect_basis.tol))
    assert (measured.slice_dim, measured.defect_dim) == (reference.slice_dim,
                                                         reference.defect_dim)
    assert subspace_equal(measured.defect_basis, reference.defect_basis, 1e-10)[0]
    # without the complement, the residual stack on an array copy of the basis
    stack = compute_defect(Subspace(m, N, K.basis, K.tol))
    assert (stack.slice_dim, stack.defect_dim) == (measured.slice_dim, measured.defect_dim)
    assert subspace_equal(stack.defect_basis, measured.defect_basis, 1e-10)[0]
    predicted = _zero_prediction(T, kr, measured, 1e-8)
    expected = _zero_prediction(T, oracle, reference, 1e-8)
    assert predicted.predicted_dim == expected.predicted_dim
    assert (predicted.details.get("prediction_mod_kernel_dim")
            == expected.details.get("prediction_mod_kernel_dim"))
    assert abs(predicted.containment_residual - expected.containment_residual) <= 1e-10
    # the certificate on the held basis against the BLAS one on its array
    frame = build_frame(K, measured)
    depth = default_depth(N)
    try:
        bench = dense_certificate(frame, depth)
    except FrameDeficientError:
        with pytest.raises(FrameDeficientError):
            certify_representation(frame, depth, tol_rep=np.inf)
        return
    cert = certify_representation(frame, depth, tol_rep=np.inf)
    assert cert.squarings == bench["squarings"]
    assert cert.contraction == pytest.approx(bench["contraction"], rel=1e-12, abs=1e-14)
    # a bound is a roundoff-sized norm times T c_T / (1 - q): the two
    # evaluations differ by the roundoff of sums over at most mN terms
    T_steps = 2 ** cert.squarings
    amplify = T_steps * max(1.0, bench["isometry"]) / (1.0 - cert.contraction) ** 2
    roundoff = 4 * rows * EPS * amplify
    for ours, theirs in zip((cert.reconstruction, cert.isometry, *cert.invariance.residuals),
                            (bench["reconstruction"], bench["isometry"],
                             *bench["invariance"])):
        assert abs(ours - theirs) <= roundoff, (ours, theirs)
    # an entry that cancels exactly in one summation order need not in the
    # other, so the supports of D and P may differ only where they are roundoff
    if cert.support[0] != bench["support"][0]:
        assert max(cert.isometry, bench["isometry"]) <= roundoff
    if cert.support[1] != bench["support"][1]:
        assert max(cert.reconstruction, bench["reconstruction"]) <= roundoff


@st.composite
def windowed_frames(draw):
    """Zero-route frames and where their G ends: ``edge`` puts the last link
    row mN - 1 at L - 1, L or L + 1 for the window's L = s + m (s = 1 + G's
    last row), ``interior`` anywhere below, ``vanishing`` spans the values
    e_0..e_(m-1) in G so that r = 0, and ``full_degree`` ends G at mN - 1,
    where the basis is an array.  N is 32, 256 or 1024, m small enough that
    the dense oracle squares a K x K matrix of at most 1,024 columns; a G
    that ends near mN - 1 leaves a head of nearly K columns, so those cases
    stop at N = 256."""
    case = draw(st.sampled_from(["edge", "interior", "vanishing", "full_degree"]))
    N = draw(st.sampled_from([32, 256] if case in ("edge", "full_degree")
                             else [32, 256, 1024]))
    m = draw(st.sampled_from({32: [1, 2, 3], 256: [1, 2], 1024: [1]}[N]))
    rows = m * N
    n = draw(st.integers(1, 3))
    if case == "edge":
        s = rows - m - draw(st.integers(0, 2))
    elif case == "full_degree":
        s = rows
    else:
        # G's columns fill its first s rows, and three link rows or more
        # pass the window
        s = draw(st.integers(n + m, min(n + m + 40, rows - m - 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    G = np.zeros((rows, n), complex)
    G[:s] = rng.standard_normal((s, n)) + 1j * rng.standard_normal((s, n))
    if case == "vanishing":  # random combinations of e_0..e_(m-1)
        values = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        G = np.concatenate([np.eye(rows, m) @ values, G], axis=1)
    H = rng.standard_normal(G.shape) + 1j * rng.standard_normal(G.shape)
    T = build_perturbed(LaurentMatrixSymbol.zero(m), N, column_vectors(G, m, N),
                        column_vectors(H, m, N), require_orthonormal=False)
    kr = kernel_of(T)
    frame = build_frame(kr.subspace, compute_defect(kr.subspace, complement=kr.complement))
    return case, s, frame


def _dense_head(A):
    """The head of the dense A held as ``linked`` holds it: its columns that
    are not links, and the links that a block row reaches through links."""
    held = linked(A)
    link = dict(zip(held.link_cols.tolist(), held.link_rows.tolist()))
    head = set(range(A.shape[1])) - set(link)
    for j in held.I.tolist():
        while j in link and j not in head:
            head.add(j)
            j = link[j]
    return len(head)


#: an entry of a product of unit-scale factors that may cancel to zero in
#: one summation order only
ROUNDOFF = 64 * EPS


def _same_pattern(X, Y):
    """X and Y are nonzero on the same entries, but where both are roundoff."""
    differ = (X != 0) != (Y != 0)
    return bool(np.all(np.maximum(np.abs(X), np.abs(Y))[differ] <= ROUNDOFF))


@settings(max_examples=16, deadline=None)
@given(windowed_frames())
def test_windowed_certificate_matches_dense_certificate(drawn):
    case, s, frame = drawn
    M, depth = frame.M, default_depth(frame.M.N)
    m, rows = M.m, M.m * M.N
    assert isinstance(M.held, np.ndarray) == (case == "full_degree")
    assert frame.r == 0 or case != "vanishing"
    try:
        dense = dense_certificate(frame, depth)
    except FrameDeficientError:
        with pytest.raises(FrameDeficientError):
            certify_representation(frame, depth, tol_rep=np.inf)
        return
    cert = certify_representation(frame, depth, tol_rep=np.inf)
    A = subspaces._dense(cert.A)
    assert cert.squarings == dense["squarings"]
    assert cert.head == _dense_head(dense["A"])
    assert np.max(np.abs(A - dense["A"]), initial=0.0) <= 1e-14
    assert np.max(np.abs(cert.C - dense["C"]), initial=0.0) <= 1e-14
    if case == "full_degree":  # an array basis is its own window: bitwise
        assert np.array_equal(cert.A, dense["A"]) and np.array_equal(cert.C, dense["C"])
        assert (cert.contraction, cert.reconstruction, cert.isometry, cert.support) == (
            dense["contraction"], dense["reconstruction"], dense["isometry"],
            dense["support"])
    elif case in ("edge", "interior"):
        # the passive links are Q's links on the rows past L = s + m
        assert cert.A.link_cols.size == max(rows - s - m, 0)
    # the exact counts match, but an entry at roundoff may cancel to an exact
    # zero in one summation order and not in the other: BLAS sums the dense
    # oracle's long inner products in another order than the window's
    assert cert.nonzeros[0] == np.count_nonzero(A)
    assert _same_pattern(A, dense["A"])
    if cert.nonzeros[1] != np.count_nonzero(dense["power"]):
        assert np.any((dense["power"] != 0) & (np.abs(dense["power"]) <= ROUNDOFF))
    T = 2 ** cert.squarings
    roundoff = 4 * rows * EPS * T * max(1.0, dense["isometry"]) / (1.0 - cert.contraction) ** 2
    if cert.support[0] != dense["support"][0]:
        assert max(cert.isometry, dense["isometry"]) <= roundoff
    if cert.support[1] != dense["support"][1]:
        assert max(cert.reconstruction, dense["reconstruction"]) <= roundoff


def test_basis_is_built_on_first_request_and_cached():
    rng = np.random.default_rng(5)
    G = np.zeros((12, 2), complex)
    G[:5] = np.linalg.qr(rng.standard_normal((5, 2)) + 0j)[0]
    G = column_vectors(G, 2, 6)
    T = build_perturbed(LaurentMatrixSymbol.zero(2), 6, G, G)
    K = kernel_of(T).subspace
    assert K._basis is None and isinstance(K.held, _LinkBlock)
    basis = K.basis
    assert K.basis is basis and not basis.flags.writeable
    assert np.array_equal(subspaces._dense(K.held), basis)
    X = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    dense = Subspace(2, 6, basis, K.tol)
    assert np.max(np.abs(K.project_flat(X) - dense.project_flat(X))) <= 1e-14
    assert np.max(np.abs(K.project_flat(X[:, 0]) - dense.project_flat(X[:, 0]))) <= 1e-14


def test_held_basis_is_gram_checked():
    # a held basis gets the same Gram check as an array: three links and a
    # one-entry block, which is 1 or off by 1e-9
    def held(value):
        return _LinkBlock(np.arange(3), np.arange(3), np.array([3]), np.array([3]),
                          np.array([[value]], complex), (4, 4))

    assert Subspace(1, 4, held(1.0), 0.0).dim == 4
    with pytest.raises(ValueError, match="not orthonormal"):
        Subspace(1, 4, held(1.0 + 1e-9), 0.0)
    assert SUBSPACE_GRAM_BOUND < 1e-9


def test_repr_large_recipe_at_4096_never_densifies_the_kernel(monkeypatch):
    # the dense complex kernel basis alone would take 1.07 GB at N = 4096
    scenario = _workloads().zero_symbol_repr(np.random.default_rng([0, 1]), 4096)
    real = Subspace.basis.fget
    densified = []

    def spy(self):
        if isinstance(self.held, _LinkBlock):
            densified.append(self.dim)
        return real(self)

    monkeypatch.setattr(Subspace, "basis", property(spy))
    # no product of two K x K factors: the isometry defect's A_Q^H A_Q is
    # its active window's, and the contraction squares A_Q's 15-column head,
    # not A_Q
    K = 2 * 4096 - 3
    real_product = representation._product
    square_factors = []

    def product_spy(X, Y):
        square_factors.append(X.shape == Y.shape == (K, K))
        return real_product(X, Y)

    monkeypatch.setattr(representation, "_product", product_spy)
    tracemalloc.start()
    try:
        report = run_scenario_object(scenario, Tolerances())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(o.name, o.status) for o in report.outcomes] == [
        ("defect_theorem", "pass"), ("representation", "pass")]
    defect = report.outcomes[0].residuals
    assert (defect["subspace_dim"], defect["defect_dim"]) == (2 * 4096 - 3, 3)
    assert defect["details"]["kernel_method"] == "zero"
    assert densified == []
    assert sum(square_factors) == 0
    assert report.outcomes[1].residuals["certificate"]["head"] == 15
    # about 9 MB: the squarings' temporaries set 69 MB while they took A_Q whole
    assert peak < 25e6, peak / 1e6


def test_defect_without_the_complement_reads_the_held_kernel(monkeypatch):
    # the public call on the kernel alone: the residual stack stays links
    # plus a block, where the dense basis would take 67 MB at N = 1024
    scenario = _workloads().zero_symbol_repr(np.random.default_rng([0, 0]), 1024)
    T = build_perturbed(LaurentMatrixSymbol.zero(scenario.m), scenario.N, scenario.G,
                        scenario.H)
    kr = kernel_of(T)
    real = Subspace.basis.fget

    def refuse(self):
        if isinstance(self.held, _LinkBlock):
            raise AssertionError("the kernel's dense basis was built")
        return real(self)

    monkeypatch.setattr(Subspace, "basis", property(refuse))
    public = compute_defect(kr.subspace)
    via_complement = compute_defect(kr.subspace, complement=kr.complement)
    assert isinstance(kr.subspace.held, _LinkBlock)
    assert (public.slice_dim, public.defect_dim) == (via_complement.slice_dim,
                                                     via_complement.defect_dim)
    assert public.defect_dim == 3
    assert subspace_equal(public.defect_basis, via_complement.defect_basis, 1e-12)[0]
    assert np.isclose(public.defect_basis.tol, via_complement.defect_basis.tol, rtol=1e-12)


def test_held_complement_and_defect_at_4096_never_densify_the_kernel(monkeypatch):
    # perp() reads the complement from the block, and compute_defect given
    # no complement takes it: the dense basis would take 1.07 GB
    scenario = _workloads().zero_symbol_repr(np.random.default_rng([0, 1]), 4096)
    T = build_perturbed(LaurentMatrixSymbol.zero(scenario.m), scenario.N, scenario.G,
                        scenario.H)
    kr = kernel_of(T)
    real = Subspace.basis.fget

    def refuse(self):
        if isinstance(self.held, _LinkBlock):
            raise AssertionError("the kernel's dense basis was built")
        return real(self)

    monkeypatch.setattr(Subspace, "basis", property(refuse))
    perp = kr.subspace.perp()
    assert perp.dim == 3
    U = perp.basis
    assert np.max(np.abs(U @ (U.conj().T @ kr.complement) - kr.complement)) <= 1e-13
    public = compute_defect(kr.subspace)
    via_complement = compute_defect(kr.subspace, complement=kr.complement)
    assert (public.slice_dim, public.defect_dim) == (via_complement.slice_dim, 3)
    assert subspace_equal(public.defect_basis, via_complement.defect_basis, 1e-12)[0]


def test_zero_route_sorts_nothing(monkeypatch):
    # the links gather by index arithmetic and the block meets arrays in one
    # GEMM, so neither the kernel, its defect nor the certificate sorts an index
    scenario = _workloads().zero_symbol_repr(np.random.default_rng([0, 1]), 256)
    T = build_perturbed(LaurentMatrixSymbol.zero(scenario.m), scenario.N, scenario.G,
                        scenario.H)

    def refuse(*args, **kwargs):
        raise AssertionError("the zero route sorted")

    for name in ("unique", "argsort", "lexsort", "sort"):
        monkeypatch.setattr(np, name, refuse)
    kr = kernel_of(T)
    measured = compute_defect(kr.subspace, complement=kr.complement)
    cert = certify_representation(build_frame(kr.subspace, measured), default_depth(T.N))
    assert isinstance(kr.subspace.held, _LinkBlock) and measured.defect_dim == 3
    assert max(cert.reconstruction, cert.isometry) <= 1e-10


def test_degree_64_recipe_at_1024_keeps_a_head_sized_block():
    # G and H of degree < 64 at N = 1024: a 125-column head among 1,923
    # links; A_Q's block stays within twice the head, so nothing scales with K
    workloads, rng, m, n, N = _workloads(), np.random.default_rng([0, 1]), 2, 3, 1024
    G, H = (workloads._family(rng, m, N, 64, n) for _ in range(2))
    scenario = Scenario(name="zero_degree_64", m=m, N=N, symbol_class="zero",
                        checks=["defect_theorem", "representation"], seed=0, G=G, H=H,
                        expect={"kernel_dim": m * N - n, "defect_dim": n})
    report = run_scenario_object(scenario, Tolerances())
    assert [o.status for o in report.outcomes] == ["pass", "pass"]
    run = ScenarioRun.validated(scenario, Tolerances())
    basis = run.kernel.subspace.held
    head = basis.J.size
    assert head == 125 and basis.link_cols.size == m * N - n - head
    cert = certify_representation(build_frame(run.kernel.subspace, run.defect), run.depth)
    assert isinstance(cert.A, _LinkBlock)
    assert cert.A.J.size <= 2 * head and cert.A.I.size <= 2 * head
    assert cert.head <= 2 * head and max(cert.support) <= 2 * head
