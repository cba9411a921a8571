"""Property tests for the planner's lowering: one walk plans, evaluates and profiles.

Random trees are built only through the builder methods (``mxm``, ``+``
chains, ``*``, ``.T``, ``mxv``, ``reduce_rows``) over small int64 leaves,
then evaluated with no mask, a plain mask or a complemented mask.  Every
tree must match a dense NumPy model, give bit-identical results on the
serial and the row-blocked thread route, and profile exactly the steps its
plan lists.
"""

import functools
import operator

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import runtime
from repro.assoc.expr import MatExpr, as_expr, union_all
from repro.assoc.sparse import CSRMatrix

DIMS = st.integers(min_value=1, max_value=4)
SERIAL = {"workers": 1}
BLOCKED = {"workers": 2, "backend": "thread", "block_rows": 2, "min_parallel_work": 1}


@st.composite
def leaf(draw, rows, cols):
    """A sparse int64 leaf, sometimes stored transposed so the planner folds
    the descriptor.  Stored values are 1..3, so no sum or product cancels."""
    transposed = draw(st.booleans())
    r, c = (cols, rows) if transposed else (rows, cols)
    cells = draw(st.lists(st.integers(0, 3), min_size=r * c, max_size=r * c))
    dense = np.asarray(cells, dtype=np.int64).reshape(r, c)
    node = as_expr(CSRMatrix.from_dense(dense))
    return (node.T, dense.T) if transposed else (node, dense)


@st.composite
def mat_tree(draw, rows, cols, depth):
    """``(expression, dense model)`` of shape ``(rows, cols)``."""
    kinds = ["leaf"] if depth == 0 else ["leaf", "mxm", "union", "intersect", "transpose"]
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        return draw(leaf(rows, cols))
    if kind == "mxm":
        inner = draw(DIMS)
        left, l_ref = draw(mat_tree(rows, inner, depth - 1))
        right, r_ref = draw(mat_tree(inner, cols, depth - 1))
        return left.mxm(right), l_ref @ r_ref
    if kind == "union":
        parts = draw(st.lists(mat_tree(rows, cols, depth - 1), min_size=1, max_size=4))
        exprs = [e for e, _ in parts]
        expr = union_all(exprs) if len(exprs) == 1 else functools.reduce(operator.add, exprs)
        return expr, sum(ref for _, ref in parts)
    if kind == "intersect":
        left, l_ref = draw(mat_tree(rows, cols, depth - 1))
        right, r_ref = draw(mat_tree(rows, cols, depth - 1))
        return left * right, l_ref * r_ref
    child, ref = draw(mat_tree(cols, rows, depth - 1))
    return child.T, ref.T


@st.composite
def mat_case(draw):
    rows, cols = draw(DIMS), draw(DIMS)
    expr, ref = draw(mat_tree(rows, cols, depth=3))
    return expr, ref, draw(mask_of((rows, cols)))


@st.composite
def vec_case(draw):
    rows, cols = draw(DIMS), draw(DIMS)
    expr, ref = draw(mat_tree(rows, cols, depth=2))
    if draw(st.booleans()):
        x = np.asarray(draw(st.lists(st.integers(0, 3), min_size=cols, max_size=cols)))
        vexpr, vref = expr.mxv(x), ref @ x
    else:
        vexpr, vref = expr.reduce_rows(), ref.sum(axis=1)
    return vexpr, vref, draw(mask_of((rows,)))


@st.composite
def mask_of(draw, shape):
    """``(mask kwargs, allowed cells)``: no mask, a plain or a complemented one."""
    kind = draw(st.sampled_from(["none", "plain", "complement"]))
    if kind == "none":
        return {}, np.ones(shape, dtype=bool)
    size = int(np.prod(shape))
    allow = np.asarray(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    allow = allow.reshape(shape)
    pattern = allow if len(shape) == 1 else CSRMatrix.from_dense(allow)
    complement = kind == "complement"
    return {"mask": pattern, "complement": complement}, ~allow if complement else allow


def _identical(x, y) -> bool:
    if isinstance(x, CSRMatrix):
        return (
            x.shape == y.shape
            and x.dtype == y.dtype
            and np.array_equal(x.indptr, y.indptr)
            and np.array_equal(x.indices, y.indices)
            and np.array_equal(x.data, y.data)
        )
    return x.dtype == y.dtype and np.array_equal(x, y)


def _check(expr, ref, mask) -> None:
    kwargs, allowed = mask
    with runtime.configured(**SERIAL):
        serial = expr.new(**kwargs)
    with runtime.configured(**BLOCKED):
        blocked = expr.new(**kwargs)
    dense = serial.to_dense(0) if isinstance(expr, MatExpr) else serial
    assert np.array_equal(dense, np.where(allowed, ref, 0))
    assert _identical(serial, blocked)

    plan = expr.plan(**kwargs)
    with runtime.configured(**SERIAL):
        executed = plan.execute()
    assert [p.kernel for p in plan.profile] == list(plan.kernels)
    assert _identical(executed, serial)


class TestLoweringProperties:
    @settings(max_examples=40, deadline=None)
    @given(mat_case())
    def test_matrix_trees(self, case):
        _check(*case)

    @settings(max_examples=25, deadline=None)
    @given(vec_case())
    def test_vector_trees(self, case):
        _check(*case)
