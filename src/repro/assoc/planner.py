"""The fusing planner: expression trees → staged, runtime-dispatched kernels.

One lowering, :func:`_lower`, turns a :class:`~repro.assoc.expr.MatExpr` /
:class:`~repro.assoc.expr.VecExpr` tree and its mask into ordered steps,
each paired with the kernel that computes it.  :func:`plan` keeps the steps
as an inspectable :class:`Plan`, so tests (and the masked-mxm benchmark)
can assert *which* kernels an evaluation will run; :func:`evaluate` runs
them, and :meth:`Plan.execute` runs them with a per-step profile.

Fusion rules:

* **transpose folding** — a transposed leaf resolves against the operand's
  cached transpose (the descriptor path: one rebuild ever); a transpose above
  a compound expression pushes the *mask* through the transposition instead
  (``(Aᵀ)⟨M⟩ = (A⟨Mᵀ⟩)ᵀ``), so the child still evaluates fused;
* **mask pushdown** — masks distribute over element-wise unions and the left
  operand of intersections, so each sub-expression evaluates already-masked;
* **fused masked kernels** — a non-complemented mask on ``mxm`` runs the
  masked ESC kernel (masked-out rows are never expanded; the full product is
  never materialised); masks on unions/intersections filter triples before
  the coalesce sort; a *complemented* mask on ``mxm`` is the one case that
  computes the full product and filters (the complement of a sparse mask
  keeps almost every entry, so there is nothing to skip);
* **union chain collapse** — ``A + B + C`` (same monoid) runs one
  concatenate + coalesce instead of two pairwise unions.

Every step with a row-blocked form enters :mod:`repro.assoc.blocked`, whose
one gate picks serial or row-blocked execution, so fused masked kernels run
on the same executors as the eager paths — with the same bit-identical
serial ≡ parallel guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.assoc import expr as E
from repro.assoc.blocked import (
    parallel_ewise_intersect,
    parallel_ewise_union,
    parallel_masked_intersect,
    parallel_masked_mxm,
    parallel_masked_mxv,
    parallel_mxv,
    parallel_union_all,
)
from repro.assoc.sparse import CSRMatrix, _masked_reduce_rows_serial, masked_select
from repro.errors import ExpressionError
from repro.obs import metrics as _obs
from repro.obs import trace as _trace

__all__ = [
    "Step",
    "StepProfile",
    "Plan",
    "plan",
    "plan_vec",
    "evaluate",
    "evaluate_vec",
]


@dataclass(frozen=True)
class Step:
    """One kernel invocation in a plan."""

    kernel: str
    fused_mask: bool = False
    note: str = ""

    def __str__(self) -> str:
        suffix = "[fused mask]" if self.fused_mask else ""
        return f"{self.kernel}{suffix}"


@dataclass(frozen=True)
class StepProfile:
    """Measured cost of one executed plan step.

    ``wall_ns`` is the step's monotonic wall time; ``nnz`` is the stored-entry
    count of the step's result (``None`` when the result has no sparsity
    notion).  Produced by :meth:`Plan.execute`, rendered by
    :meth:`Plan.explain` with ``profile=True`` — the ground-truth input for
    the ROADMAP's cost-based planner.
    """

    kernel: str
    wall_ns: int
    nnz: int | None = None

    @property
    def wall_ms(self) -> float:
        return self.wall_ns / 1e6


@dataclass(frozen=True)
class Plan:
    """The ordered kernel schedule an evaluation will follow.

    ``expr``/``mask`` carry the tree the plan was built from (excluded from
    equality: two plans with the same kernel schedule compare equal), which
    is what :meth:`typecheck` and :meth:`explain` operate on.
    """

    steps: tuple[Step, ...]
    expr: object | None = field(default=None, compare=False, repr=False)
    mask: object | None = field(default=None, compare=False, repr=False)
    profile: tuple[StepProfile, ...] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def kernels(self) -> tuple[str, ...]:
        return tuple(step.kernel for step in self.steps)

    @property
    def uses_fused_mask(self) -> bool:
        return any(step.fused_mask for step in self.steps)

    @property
    def materializes_unmasked(self) -> bool:
        """True when the plan computes a full result and filters afterwards
        (only the complement-masked ``mxm`` path does)."""
        return "mask_filter" in self.kernels

    def describe(self) -> str:
        return " -> ".join(str(step) for step in self.steps) or "(empty)"

    def typecheck(self):  # noqa: ANN201 - ExprType, imported lazily
        """Statically prove the plan's expression well-shaped before running.

        Returns the inferred :class:`~repro.staticcheck.shapes.ExprType`
        (result shape + dtype); raises
        :class:`~repro.errors.ShapeInferenceError` naming the offending
        subtree for trees the builder methods never validated (raw node
        construction, stale operands, mismatched masks).
        """
        from repro.staticcheck import shapes

        if self.expr is None:
            raise ExpressionError(
                "plan carries no expression tree to typecheck (it was built "
                "directly from steps, not by plan()/plan_vec())"
            )
        if isinstance(self.expr, E.VecExpr):
            return shapes.infer_vec(self.expr, self.mask)
        return shapes.infer(self.expr, self.mask)

    def execute(self):  # noqa: ANN201 - CSRMatrix | np.ndarray
        """Run the plan's expression, recording a per-step profile.

        Returns the evaluation result and stores one :class:`StepProfile`
        per plan step (measured wall time plus result nnz) on
        :attr:`profile`, aligned 1:1 with :attr:`steps` — the same lowered
        steps :func:`evaluate` runs, with a stopwatch around each kernel.
        When tracing is live each step additionally opens a ``plan.<kernel>``
        span, so traced runs show the plan tree inside the trace timeline.
        """
        if self.expr is None:
            raise ExpressionError(
                "plan carries no expression tree to execute (it was built "
                "directly from steps, not by plan()/plan_vec())"
            )
        _obs.counter("planner.executions").inc()
        rec: list[StepProfile] = []
        if isinstance(self.expr, E.VecExpr):
            result = _run(_lower_vec(self.expr, self.mask), rec)
        else:
            result = _run(_lower(self.expr, self.mask, []), rec)
        object.__setattr__(self, "profile", tuple(rec))
        return result

    def explain(self, profile: bool = False) -> str:
        """The kernel schedule plus the typed expression tree — and, for an
        ill-shaped tree, the ``!!``-marked subtree that fails inference.

        With ``profile=True`` (after :meth:`execute`), each step is annotated
        with its measured wall time and result nnz, plus a total line.
        """
        from repro.staticcheck import shapes

        lines = [f"plan: {self.describe()}"]
        if profile:
            if self.profile is None:
                raise ExpressionError(
                    "no recorded profile — call Plan.execute() before "
                    "explain(profile=True)"
                )
            width = max((len(str(step)) for step in self.steps), default=4)
            lines.append("profile:")
            for k, (step, prof) in enumerate(zip(self.steps, self.profile), start=1):
                nnz = f"  nnz={prof.nnz}" if prof.nnz is not None else ""
                lines.append(
                    f"  {k:>2}. {str(step).ljust(width)}  {prof.wall_ms:>9.3f} ms{nnz}"
                )
            total = sum(p.wall_ns for p in self.profile) / 1e6
            lines.append(f"      {'total'.ljust(width)}  {total:>9.3f} ms")
        if self.mask is not None:
            lines.append(f"mask: {self.mask!r}")
        if self.expr is not None:
            lines.append(shapes.annotate(self.expr))
        return "\n".join(lines)


def _check_mask(mask: E.Mask | None, shape: tuple[int, int]) -> None:
    if mask is not None and mask.shape != shape:
        raise ExpressionError(
            f"mask shape {mask.shape} does not match expression shape {shape}"
        )


# --------------------------------------------------------------------------- #
# the one lowering: tree → steps paired with kernels
# --------------------------------------------------------------------------- #


class _Op(NamedTuple):
    """One lowered step: the :class:`Step` a plan shows, how many operand
    values it takes off the evaluation stack, and the kernel over them."""

    step: Step
    arity: int
    run: Callable[..., object]


def _emit(ops: list[_Op], kernel: str, arity: int, run: Callable[..., object], **step: Any) -> None:
    ops.append(_Op(Step(kernel, **step), arity, run))


def _lower(e: E.MatExpr, mask: E.Mask | None, ops: list[_Op]) -> list[_Op]:
    """Append the steps evaluating *e* under *mask* to *ops*, children first.

    This is the only statement of the fusion rules: :func:`plan` keeps the
    steps, :func:`evaluate` and :meth:`Plan.execute` run the kernels.  Each
    kernel with a row-blocked form enters :mod:`repro.assoc.blocked`, whose
    gate picks the route after the kernel's shape checks.
    """
    _check_mask(mask, e.shape)
    if isinstance(e, E.MatLeaf):
        note = "transposed (cached descriptor)" if e.transposed else ""
        _emit(ops, "leaf", 0, e.resolve, note=note)
        if mask is not None:
            _emit(ops, "masked_select", 1,
                  lambda a: masked_select(a, mask.pattern, mask.complement), fused_mask=True)
    elif isinstance(e, E.MxM):
        _lower(e.left, None, ops)
        _lower(e.right, None, ops)
        mxm = lambda a, b: a._mxm_dispatch(b, e.semiring)
        if mask is None:
            _emit(ops, "mxm", 2, mxm)
        elif mask.complement:
            _emit(ops, "mxm", 2, mxm)
            _emit(ops, "mask_filter", 1, lambda c: masked_select(c, mask.pattern, True),
                  note="complement mask: full product then filter")
        else:
            _emit(ops, "masked_mxm", 2,
                  lambda a, b: parallel_masked_mxm(a, b, e.semiring, mask.pattern),
                  fused_mask=True, note="masked rows never expanded")
    elif isinstance(e, E.UnionAll):
        # mask pushdown only into compound children (their evaluation fuses
        # it); leaf operands stay unfiltered and the fused union kernel
        # filters their triples inline, pre-sort — no double filtering of
        # leaves, and no intermediate per-leaf selects
        for p in e.parts:
            _lower(p, None if isinstance(p, E.MatLeaf) else mask, ops)
        n = len(e.parts)
        if mask is not None:
            run = (lambda a: masked_select(a, mask.pattern, mask.complement)) if n == 1 else (
                lambda *ps: parallel_union_all(list(ps), e.add, mask.pattern, mask.complement))
            _emit(ops, "masked_union", n, run,
                  fused_mask=True, note=f"{n}-way fused, triples filtered pre-sort")
        elif n == 2:
            _emit(ops, "ewise_union", 2, lambda a, b: parallel_ewise_union(a, b, e.add))
        else:  # the 1-way union is a pass-through, still its own step
            run = (lambda a: a) if n == 1 else (
                lambda *ps: parallel_union_all(list(ps), e.add, None, False))
            _emit(ops, "union_all", n, run, note=f"{n}-way fused")
    elif isinstance(e, E.EWiseMult):
        # mask pushdown: (A⟨M⟩ ⊗ B) == (A ⊗ B)⟨M⟩.  A leaf left operand is
        # filtered once, inline in the fused kernel; a compound left operand
        # evaluates fused under the mask (the kernel's re-check of its
        # already-restricted triples is the cheaper side of that trade)
        _lower(e.left, None if isinstance(e.left, E.MatLeaf) else mask, ops)
        _lower(e.right, None, ops)
        if mask is None:
            _emit(ops, "ewise_intersect", 2, lambda a, b: parallel_ewise_intersect(a, b, e.mult))
        else:
            _emit(ops, "masked_intersect", 2,
                  lambda a, b: parallel_masked_intersect(a, b, e.mult, mask.pattern, mask.complement),
                  fused_mask=True, note="mask pushed to left operand")
    elif isinstance(e, E.TransposeExpr):
        _lower(e.child, None if mask is None else mask.transpose(), ops)
        note = "mask pushed through transpose" if mask else ""
        _emit(ops, "transpose", 1, CSRMatrix.transpose, note=note)
    else:
        raise ExpressionError(f"unknown expression node {type(e).__name__}")
    return ops


def _lower_vec(v: E.VecExpr, allow: np.ndarray | None) -> list[_Op]:
    """The steps evaluating *v*; *allow* is a dense boolean row mask with any
    complement already applied."""
    if isinstance(v, E.MxV):
        ops = _lower(v.mat, None, [])
        if allow is None:
            _emit(ops, "mxv", 1, lambda a: parallel_mxv(a, v.x, v.semiring))
        else:
            _emit(ops, "masked_mxv", 1, lambda a: parallel_masked_mxv(a, v.x, v.semiring, allow),
                  fused_mask=True, note="masked rows skipped")
    elif isinstance(v, E.ReduceRows):
        ops = _lower(v.mat, None, [])
        if allow is None:
            _emit(ops, "reduce_rows", 1, lambda a: a.reduce_rows(v.add))
        else:
            _emit(ops, "masked_reduce_rows", 1,
                  lambda a: _masked_reduce_rows_serial(a, v.add, allow), fused_mask=True)
    else:
        raise ExpressionError(f"unknown vector expression node {type(v).__name__}")
    return ops


# --------------------------------------------------------------------------- #
# running lowered steps
# --------------------------------------------------------------------------- #


def _result_nnz(result: object) -> int | None:
    """The stored-entry count of a step result (``None`` when meaningless)."""
    nnz = getattr(result, "nnz", None)
    if nnz is not None:
        return int(nnz)
    if isinstance(result, np.ndarray):
        return int(np.count_nonzero(result))
    return None


def _run(ops: list[_Op], profile: list[StepProfile] | None = None):  # noqa: ANN201
    """Run lowered *ops* on a value stack; the last step's value is the result.

    Each step replaces its operands on the stack with its value, so an
    intermediate lives only until its consumer has run.  With *profile*,
    each step runs under a ``plan.<kernel>`` span and appends its
    :class:`StepProfile`; without it a step is a bare kernel call.
    """
    stack: list = []
    for step, arity, run in ops:
        at = len(stack) - arity
        if profile is None:
            stack[at:] = [run(*stack[at:])]
            continue
        t0 = _obs.monotonic_ns()
        with _trace.get_tracer().span(f"plan.{step.kernel}"):
            out = run(*stack[at:])
        profile.append(StepProfile(step.kernel, _obs.monotonic_ns() - t0, _result_nnz(out)))
        stack[at:] = [out]
    return stack.pop()


def evaluate(e: E.MatExpr, mask: E.Mask | None = None) -> CSRMatrix:
    """Execute a matrix expression, fusing *mask* into the kernels."""
    return _run(_lower(e, mask, []))


def evaluate_vec(v: E.VecExpr, allow: np.ndarray | None = None) -> np.ndarray:
    """Execute a vector expression; *allow* is a dense boolean row mask with
    any complement already applied."""
    return _run(_lower_vec(v, allow))


def plan(e: E.MatExpr, mask: E.Mask | None = None) -> Plan:
    """The kernel schedule :func:`evaluate` follows for this tree."""
    return Plan(tuple(op.step for op in _lower(e, mask, [])), expr=e, mask=mask)


def plan_vec(v: E.VecExpr, allow: np.ndarray | None = None) -> Plan:
    """The kernel schedule :func:`evaluate_vec` follows for this tree."""
    return Plan(tuple(op.step for op in _lower_vec(v, allow)), expr=v, mask=allow)
