"""The realization certificate of the representation check, with the batched
peeling engine as its oracle."""

import json

import numpy as np
import pytest

from tklab import representation
from tklab.cli_reports import (ScenarioRun, bundled_scenario_dir, load_scenario,
                               run_scenario_object)
from tklab.config import Tolerances
from tklab.errors import FrameDeficientError
from tklab.representation import (RepresentationFrame, build_frame,
                                  certify_representation, default_depth,
                                  peel_members)

from test_representation import ORACLE_CASES, complement_frame

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
    return build_frame(kernel, run.defect, defect_floor=run.tol.defect_floor), run.depth


def oracle_frame(case):
    kind, m, N = case
    return complement_frame(kind, m, N, seed=10 * m + N), default_depth(N)


FRAMES = ([pytest.param(scenario_frame, name, id=name) for name in REPRESENTATION_SCENARIOS]
          + [pytest.param(oracle_frame, case, id="-".join(map(str, case)))
             for case in ORACLE_CASES])


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
    series = peel_members(frame.M.basis, frame).series
    realized = cert.C  # column i holds C_Q A_Q^t e_i at step t
    for t, block in enumerate(series.blocks):
        members = series.order[:block.shape[0]]
        assert np.max(np.abs(realized[:, members].T - block)) <= 1e-12, t
        realized = realized @ cert.A
    assert series.lengths.max() == len(series.blocks)


@pytest.mark.parametrize("make,arg", FRAMES)
def test_bounds_cover_explicit_reassembly(make, arg):
    # the realized series in extended precision, run until ||A_Q^t|| < 1e-14
    # and past the window, where z^t leaves nothing to reassemble
    frame, depth = make(arg)
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
    starved = RepresentationFrame(M=frame.M, W=frame.W[1:], E=frame.E,
                                  vanishing_case=False, value_map_cond=1.0)
    with pytest.raises(FrameDeficientError):
        certify_representation(starved, 4)


def test_missing_defect_direction_is_deficient():
    frame = complement_frame("generic", 2, 16, seed=7)
    assert frame.p >= 1
    starved = RepresentationFrame(M=frame.M, W=frame.W, E=frame.E[1:],
                                  vanishing_case=False, value_map_cond=1.0)
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
    monkeypatch.setattr(representation, "_peel", refuse)
    for name in REPRESENTATION_SCENARIOS:
        sc = load_scenario(SCENARIOS / f"{name}.json")
        sc.checks = ["representation"]
        [outcome] = run_scenario_object(sc, Tolerances()).outcomes
        assert outcome.status == "pass", name
        cert = outcome.residuals["certificate"]
        assert isinstance(cert["squarings"], int) and 0 <= cert["contraction"] < 0.5
