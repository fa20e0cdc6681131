"""Spans and counts around calls into randghep, recorded from outside the library.

``Tracer.install()`` replaces every reference the randghep modules hold to a
traced public function (module globals and module-level registries such as
``kle._METHODS``) by a wrapper that opens a span, and wraps the operator
methods ``LinearMap.apply``/``apply_transpose`` and
``SpdOperator.apply_inverse``/``inverse_view`` on the classes.  ``uninstall()``
puts every original back.  Nothing in the library is edited.

Span names are ``<module>.<function>``; the four weighted QRs share
``borth.qr`` and the three GHEP solvers share ``ghep.solve``.  A span's self
time is its duration minus the durations of its direct children, so the self
times of one op sum to the duration of its root span.

Operator applies are labelled by the counter they increment, not by the
object called: ``a_apply`` for A's matvec counter, ``b_apply`` for B's matvec
counter and ``b_solve`` for B's solve counter.  The view returned by
``SpdOperator.inverse_view`` aliases B's counters crosswise, so its ``apply``
is a ``b_solve``, as the counters themselves say.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: (module, function, span name) of every traced public function.
FUNCTION_SPANS = [
    ("kle", "kle_pencil", "kle.kle_pencil"),
    ("kle", "assemble_covariance", "kle.assemble_covariance"),
    ("kle", "assemble_mass_1d", "kle.assemble_mass_1d"),
    ("operators", "load_matrix_market", "operators.load_matrix_market"),
    ("operators", "save_matrix_market", "operators.save_matrix_market"),
    ("operators", "dense_spd", "operators.dense_spd"),
    ("sketch", "gaussian_matrix", "sketch.gaussian_matrix"),
    ("sketch", "range_finder_b", "sketch.range_finder_b"),
    ("borth", "mgs_w", "borth.qr"),
    ("borth", "mgs_w_reorth", "borth.qr"),
    ("borth", "chol_qr_w", "borth.qr"),
    ("borth", "pre_chol_qr_w", "borth.qr"),
    ("ghep", "ghep_two_pass", "ghep.solve"),
    ("ghep", "ghep_single_pass", "ghep.solve"),
    ("ghep", "ghep_nystrom", "ghep.solve"),
    ("errors", "posterior_estimate", "errors.posterior_estimate"),
    ("errors", "grow_sketch_until", "errors.grow_sketch_until"),
    ("errors", "dense_ghep_oracle", "errors.dense_ghep_oracle"),
    ("errors", "range_error_exact", "errors.range_error_exact"),
    ("errors", "b_norm", "errors.b_norm"),
    ("errors", "b_sine", "errors.b_sine"),
]

ROOT_SPAN = "cli.main"
OPERATOR_LABELS = ("a_apply", "b_apply", "b_solve")
#: Side work of the tracer itself (the orthogonality check); its time is
#: taken out of the traced op time and is not a layer.
MEASURE_SPAN = "trace.measure"


class CountMismatch(RuntimeError):
    """Traced operator columns disagree with the operators' own counters."""


class Tracer:
    """Records spans and counts of one op at a time; sums them over ops."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.orth_loss = 0.0
        self.kept = 0
        self.factored = 0
        self.spans: list[tuple] = []
        self._patches: list[tuple] = []
        self._stack: list[list] = []
        self._counters: dict[int, list] = {}
        self._op_cols = dict.fromkeys(OPERATOR_LABELS, 0)
        self._op_id = -1
        self._op_measure_s = 0.0
        self._spd_class = None

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        frame = [name, 0.0]  # name, time covered by direct children
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield frame
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            duration = t1 - t0
            if parent is not None:
                parent[1] += duration
            self_s = duration - frame[1]
            if name == MEASURE_SPAN:
                self._op_measure_s += duration
            else:
                self.totals[name + ".s"] += self_s
            self.spans.append((self._op_id, name, parent[0] if parent else None, t0, t1, self_s))

    def _inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def run_op(self, op_id: int, main, argv):
        """Call ``main(argv)`` inside the root span.

        Returns (result, traced op seconds).  The traced time excludes the
        tracer's own orthogonality checks.  Raises CountMismatch when the
        traced operator columns differ from the counter deltas.
        """
        self._op_id = op_id
        self._op_measure_s = 0.0
        self._counters = {}
        self._op_cols = dict.fromkeys(OPERATOR_LABELS, 0)
        t0 = time.perf_counter()
        with self.span(ROOT_SPAN):
            result = main(argv)
        elapsed = time.perf_counter() - t0 - self._op_measure_s
        self._check_counters()
        return result, elapsed

    def self_time_sum(self, op_id: int) -> tuple[float, float]:
        """(sum of the self times of op ``op_id``, duration of its root span)."""
        spans = [s for s in self.spans if s[0] == op_id]
        root = [s for s in spans if s[1] == ROOT_SPAN and s[2] is None]
        return sum(s[5] for s in spans), root[0][4] - root[0][3]

    # -- operator counters ----------------------------------------------------

    def _register(self, op) -> None:
        if isinstance(op, self._spd_class):
            pairs = [(op._matvecs, "b_apply"), (op._solves, "b_solve")]
        else:
            pairs = [(op._matvecs, "a_apply")]
        for counter, label in pairs:
            self._counters.setdefault(id(counter), [counter, counter.value, label])

    def _label(self, op, counter) -> str:
        entry = self._counters.get(id(counter))
        if entry is None:
            self._register(op)
            entry = self._counters[id(counter)]
        return entry[2]

    def _check_counters(self) -> None:
        deltas = dict.fromkeys(OPERATOR_LABELS, 0)
        for counter, first, label in self._counters.values():
            deltas[label] += counter.value - first
        traced = self._op_cols
        if deltas != traced:
            raise CountMismatch(f"traced columns {traced} != counter deltas {deltas}")

    def _operator_call(self, op, counter, X, call):
        label = self._label(op, counter)
        cols = 1 if np.ndim(X) == 1 else int(np.shape(X)[1])
        name = "operators." + label
        parent = self._stack[-1][0] if self._stack else None
        with self.span(name):
            out = call()
        self.totals[name + ".calls"] += 1
        self.totals[name + ".cols"] += cols
        self._op_cols[label] += cols
        if parent == "borth.qr":
            self.totals["borth.qr.b_apply_calls"] += 1
        if label == "a_apply" and self._inside("errors.posterior_estimate") and self._inside(
            "errors.grow_sketch_until"
        ):
            self.totals["errors.grow_sketch_until.probe_applies"] += cols
        return out

    # -- per-function measures --------------------------------------------------

    def _qr_call(self, fn, args, kwargs):
        if self._inside("borth.qr"):  # pre_chol_qr_w calls chol_qr_w: one QR
            return fn(*args, **kwargs)
        W = args[1]
        old = kwargs.get("basis") if len(args) < 3 else args[2]
        with self.span("borth.qr"):
            basis = fn(*args, **kwargs)
        r0 = 0 if old is None else old.Q.shape[1]
        self.totals["borth.qr.calls"] += 1
        self.totals["borth.qr.reorth_b_applies"] += basis.n_reorth_applies - (
            0 if old is None else old.n_reorth_applies
        )
        self.factored += basis.Q.shape[1] - r0
        self.kept += int(basis.rank_flags[r0:].sum())
        with self.span(MEASURE_SPAN):
            Q = basis.Q[:, basis.rank_flags]
            gram = Q.T @ np.asarray(W._apply(Q))  # raw weight apply: no counter, no span
            loss = float(np.linalg.norm(gram - np.eye(Q.shape[1]), 2)) if Q.shape[1] else 0.0
        self.orth_loss = max(self.orth_loss, loss)
        return basis

    def _wrap(self, fn, name: str):
        if name == "borth.qr":

            @functools.wraps(fn)
            def qr_wrapper(*args, **kwargs):
                return self._qr_call(fn, args, kwargs)

            return qr_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self.totals[name + ".calls"] += 1
            if name == "sketch.gaussian_matrix":
                self.totals[name + ".cols"] += int(args[1] if len(args) > 1 else kwargs["r"])
            elif name == "errors.grow_sketch_until":
                self.totals[name + ".rounds"] += len(out.history)
                self.totals[name + ".columns"] += out.n_columns
            return out

        return wrapper

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions and operator methods of randghep."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import randghep
        from randghep import operators

        modules = [m for key, m in sys.modules.items() if key == "randghep" or key.startswith("randghep.")]
        for mod_name, fn_name, span_name in FUNCTION_SPANS:
            original = getattr(getattr(randghep, mod_name), fn_name)
            wrapped = self._wrap(original, span_name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped, setattr)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patch(value, dkey, wrapped, dict.__setitem__)

        tracer = self
        lm, spd = operators.LinearMap, operators.SpdOperator
        self._spd_class = spd
        apply, apply_t, apply_inv, inverse_view = lm.apply, lm.apply_transpose, spd.apply_inverse, spd.inverse_view

        def traced_apply(op, X):
            return tracer._operator_call(op, op._matvecs, X, lambda: apply(op, X))

        def traced_apply_t(op, X):
            return tracer._operator_call(op, op._matvecs, X, lambda: apply_t(op, X))

        def traced_apply_inv(op, X):
            return tracer._operator_call(op, op._solves, X, lambda: apply_inv(op, X))

        def traced_inverse_view(op):
            tracer._register(op)  # label the shared counters by their owner, B
            return inverse_view(op)

        self._patch(lm, "apply", traced_apply, setattr)
        self._patch(lm, "apply_transpose", traced_apply_t, setattr)
        self._patch(spd, "apply_inverse", traced_apply_inv, setattr)
        self._patch(spd, "inverse_view", traced_inverse_view, setattr)

    def _patch(self, container, key, value, setter) -> None:
        original = container[key] if isinstance(container, dict) else vars(container)[key]
        self._patches.append((container, key, original, setter))
        setter(container, key, value)

    def uninstall(self) -> None:
        while self._patches:
            container, key, original, setter = self._patches.pop()
            setter(container, key, original)

    # -- results ----------------------------------------------------------------

    def metrics(self, names, n_ops: int) -> dict[str, float]:
        """Per-op means of the recorded totals for ``names``.

        ``borth.qr.kept_ratio`` is kept over factored columns of all QR calls,
        ``borth.qr.orth_loss`` the largest loss of any returned basis; layers
        that never ran read 0.
        """
        out = {}
        for name in names:
            if name == "borth.qr.kept_ratio":
                out[name] = self.kept / self.factored if self.factored else 0.0
            elif name == "borth.qr.orth_loss":
                out[name] = self.orth_loss
            else:
                out[name] = self.totals.get(name, 0.0) / n_ops
        return out
