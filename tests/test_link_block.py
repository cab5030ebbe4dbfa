"""The algebra of matrices held as links plus one dense block.

Every operation the zero route takes on ``subspaces._LinkBlock`` is held to
numpy on the densified operands: the product within the forward error of a
sum of inner terms (bitwise for two arrays, which are blocks alone), and the
sums, the adjoint, the shifts, the top rows and the support lines bitwise.
Every result keeps the form: a partial permutation whose values stay exactly
1.0, and one block on ascending rows I x columns J off the links' lines.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tklab import subspaces
from tklab.subspaces import _LinkBlock

EPS = np.finfo(float).eps


def _random_held(rng, rows, cols, array):
    """A random rows x cols operand: an array, or links on a random partial
    permutation plus a block on random rows and columns of those left, whose
    entries are random, exact zeros or exact ones."""
    if array:
        X = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        X[rng.random(X.shape) < 0.2] = 0.0
        return X
    count = int(rng.integers(0, min(rows, cols) + 1))
    link_cols = rng.permutation(cols)[:count]
    link_rows = rng.permutation(rows)[:count]
    rest = np.setdiff1d(np.arange(cols), link_cols)
    J = np.sort(rest[rng.random(rest.size) < 0.6])
    rest = np.setdiff1d(np.arange(rows), link_rows)
    I = np.sort(rest[rng.random(rest.size) < 0.5])
    block = rng.standard_normal((I.size, J.size)) + 1j * rng.standard_normal((I.size, J.size))
    block[rng.random(block.shape) < 0.2] = 0.0
    block[rng.random(block.shape) < 0.1] = 1.0
    return _LinkBlock(link_rows, link_cols, I, J, block, (rows, cols))


def _check_form(X, shape):
    """X is an array of the shape, or a well-formed ``_LinkBlock`` of it."""
    assert X.shape == shape
    if isinstance(X, np.ndarray):
        return
    assert isinstance(X, _LinkBlock)
    rows, cols = shape
    assert X.link_rows.size == X.link_cols.size
    assert np.unique(X.link_rows).size == X.link_rows.size
    assert np.unique(X.link_cols).size == X.link_cols.size
    assert np.all((0 <= X.link_rows) & (X.link_rows < rows))
    assert np.all((0 <= X.link_cols) & (X.link_cols < cols))
    for index, size in ((X.I, rows), (X.J, cols)):
        assert np.all(np.diff(index) > 0) and np.all((0 <= index) & (index < size))
    assert not np.intersect1d(X.J, X.link_cols).size
    assert not np.intersect1d(X.I, X.link_rows).size
    assert X.block.shape == (X.I.size, X.J.size)
    # the links' values are exactly 1.0
    assert np.all(subspaces._dense(X)[X.link_rows, X.link_cols] == 1.0)


@st.composite
def operands(draw):
    """(X, Y) with X rows x inner and Y inner x cols, and a second operand
    Z of X's shape, each an array or links plus a block."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows, inner, cols = (draw(st.integers(0, 9)) for _ in range(3))
    arrays = [draw(st.booleans()) for _ in range(3)]
    return (_random_held(rng, rows, inner, arrays[0]),
            _random_held(rng, inner, cols, arrays[1]),
            _random_held(rng, rows, inner, arrays[2]))


def _dense_shift(V, k):
    out = np.zeros_like(V)
    if k >= 0:
        out[k:] = V[:V.shape[0] - k]
    else:
        out[:k] = V[-k:]
    return out


@settings(max_examples=400, deadline=None)
@given(operands(), st.integers(1, 3))
def test_held_algebra_equals_numpy(ops, m):
    X, Y, Z = ops
    x, y, z = (subspaces._dense(W) for W in (X, Y, Z))
    # the product: bitwise for two arrays, within a sum's forward error otherwise
    out = subspaces._product(X, Y)
    _check_form(out, (x.shape[0], y.shape[1]))
    if isinstance(X, np.ndarray) and isinstance(Y, np.ndarray):
        assert isinstance(out, np.ndarray) and np.array_equal(out, X @ Y)
    bound = 4 * (x.shape[1] + 2) * EPS * (np.abs(x) @ np.abs(y))
    assert np.all(np.abs(subspaces._dense(out) - x @ y) <= bound)
    # sums and differences take each entry as the dense op does
    for op in (np.add, np.subtract):
        out = subspaces._combine(op, X, Z)
        _check_form(out, x.shape)
        assert np.array_equal(subspaces._dense(out), op(x, z))
    out = subspaces._adjoint(X)
    _check_form(out, x.shape[::-1])
    assert np.array_equal(subspaces._dense(out), x.conj().T)
    # z and S* by m rows, the top m rows
    for k in (m, -m):
        out = subspaces._shift(X, k)
        _check_form(out, x.shape)
        assert np.array_equal(subspaces._dense(out), _dense_shift(x, k))
    assert np.array_equal(subspaces._top(X, m), x[:m])
    rows, cols = subspaces._nonzero_lines(X)
    assert np.array_equal(rows, (x != 0).any(axis=1))
    assert np.array_equal(cols, (x != 0).any(axis=0))
    # the Gram deviation max |X^H X - I|
    gram = x.conj().T @ x - np.eye(x.shape[1])
    error = 4 * (x.shape[0] + 2) * EPS * np.max(np.abs(x.conj().T) @ np.abs(x), initial=0.0)
    assert abs(subspaces.column_gram_deviation(X)
               - np.max(np.abs(gram), initial=0.0)) <= error


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 9), st.integers(0, 9))
def test_submatrix_and_trim_equal_numpy(seed, rows, cols):
    rng = np.random.default_rng(seed)
    X = _random_held(rng, rows, cols, False)
    x = subspaces._dense(X)
    pick_rows = rng.permutation(rows)[:int(rng.integers(0, rows + 1))]
    pick_cols = rng.permutation(cols)[:int(rng.integers(0, cols + 1))]
    assert np.array_equal(subspaces._dense(X, pick_rows, pick_cols),
                          x[np.ix_(pick_rows, pick_cols)])
    trimmed = subspaces._trimmed(x)
    _check_form(trimmed, x.shape)
    assert np.array_equal(subspaces._dense(trimmed), x)
    nonzero = trimmed.block != 0
    assert np.all(nonzero.any(axis=1)) and np.all(nonzero.any(axis=0))
