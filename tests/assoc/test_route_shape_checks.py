"""Malformed raw expression trees fail the same way on every route.

The builder methods reject mismatched operands, but raw node construction
bypasses them.  Shape checks run before the serial-or-blocked choice, so
the serial route raises exactly where the blocked one does, instead of
silently embedding the smaller operand in the larger result.
"""

import numpy as np
import pytest

from repro import runtime
from repro.assoc.expr import EWiseMult, MatLeaf, UnionAll
from repro.assoc.semiring import PLUS_MONOID
from repro.assoc.sparse import CSRMatrix
from repro.errors import SparseFormatError

ROUTES = {
    "serial": {"workers": 1},
    "blocked": {"workers": 2, "backend": "thread", "min_parallel_work": 1},
}


def _malformed():
    a = CSRMatrix.from_dense(np.arange(16, dtype=np.int64).reshape(4, 4) % 3)
    b = CSRMatrix.from_dense(np.ones((3, 3), dtype=np.int64))
    return {
        "union3": lambda: UnionAll([MatLeaf(a), MatLeaf(b), MatLeaf(a)], PLUS_MONOID).new(),
        "masked_union": lambda: UnionAll([MatLeaf(a), MatLeaf(b)], PLUS_MONOID).new(mask=a),
        "masked_intersect": lambda: EWiseMult(MatLeaf(a), MatLeaf(b), np.multiply).new(mask=a),
    }


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("tree", sorted(_malformed()))
def test_mismatched_operand_raises(tree, route):
    with runtime.configured(**ROUTES[route]):
        with pytest.raises(SparseFormatError, match="shape mismatch"):
            _malformed()[tree]()
