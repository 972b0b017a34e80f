"""In-memory span tracing of qlma's layers, installed from outside the package.

A Tracer replaces, for the duration of a ``with`` block, the module
attributes through which one qlma module calls into another (``HOOKS``) by
timing wrappers, and puts the originals back on exit, so code run outside
the block is untraced.  A span is (name, start, end, parent, seed,
iteration).  LM iterations are spans too: ``optimize`` evaluates the
Jacobian first in every iteration, so each Jacobian call closes the previous
iteration span and opens the next.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

# (calling module, attribute it calls through, span name).  The calling
# module looks the attribute up at call time, so replacing it there
# intercepts exactly the calls that cross the layer boundary.
HOOKS = (
    ("qlma.cli", "optimize", "optimizer.optimize"),
    ("qlma.cli", "write_trace_csv", "cli.write"),
    ("qlma.cli", "write_summary", "cli.write"),
    ("qlma.cli", "write_line_plot", "cli.write"),
    ("qlma.optimizer", "residuals_and_jacobian", "ba.jacobian"),
    ("qlma.optimizer", "total_cost", "ba.cost"),
    ("qlma.optimizer", "lma_step", "optimizer.lma_step"),
    ("qlma.optimizer", "build_normal_equations", "ba.normal_eq"),
    ("qlma.optimizer", "schur_reduce", "ba.schur"),
    ("qlma.optimizer", "back_substitute", "ba.backsub"),
    ("qlma.optimizer", "embed_problem", "hhl.embed"),
    ("qlma.optimizer", "hhl_solve", "hhl.solve"),
    ("qlma.hhl", "decompose_hermitian", "trotter.decompose"),
    ("qlma.hhl", "evolution_matrix", "trotter.evolution"),
    ("qlma.hhl", "apply_gate", "sim.apply"),
    ("qlma.hhl", "apply_circuit", "sim.apply"),
    ("qlma.hhl", "measure_distribution", "sim.measure"),
)

ITERATION = "optimizer.iteration"
DIAGNOSTIC = "trace.diagnostic"  # the tracer's own work; excluded from layer self times
AMPLITUDE_BYTES = 16  # complex128


def installed_hooks() -> list[str]:
    """Names of hooked attributes that currently hold a tracing wrapper."""
    found = []
    for module_name, attr, _ in HOOKS:
        if hasattr(getattr(importlib.import_module(module_name), attr), "__traced__"):
            found.append(f"{module_name}.{attr}")
    return found


class Tracer:
    """Collects spans, counts and per-call samples while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, seed, iteration]
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._seed = None
        self._iteration = 0
        self._saved: list[tuple] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        for module_name, attr, name in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._seed, self._iteration])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def _close_iteration(self) -> None:
        if self._stack and self.spans[self._stack[-1]][0] == ITERATION:
            self._close(self._stack[-1])

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the caller, such as the root span of a batch."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "ba.jacobian":
                self._close_iteration()
                self._iteration += 1
                self._open(ITERATION)
            elif name == "optimizer.optimize":
                self._seed, self._iteration = args[0].seed, 0
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                if name == "optimizer.optimize":
                    self._close_iteration()
                    self._seed = None
                self._close(index)
                self.counts[name + ".calls"] += 1
            if observe is not None:
                observe(fn, args, result)
            return result

        traced.__traced__ = True
        return traced

    # -- per-layer counters -------------------------------------------------

    def _observe_trotter_decompose(self, fn, args, result) -> None:
        self.counts["trotter.pauli_terms"] += len(result.terms)

    def _observe_sim_apply(self, fn, args, result) -> None:
        gates = 1 if fn.__name__ == "apply_gate" else len(args[1].ops)
        self.counts["sim.gates_applied"] += gates
        self.counts["sim.bytes_computed"] += gates * 2 ** args[0].n_qubits * AMPLITUDE_BYTES

    def _observe_hhl_solve(self, fn, args, result) -> None:
        self.samples["hhl.success_prob"].append(result.success_probability)
        self.samples["hhl.fidelity"].append(result.fidelity_proxy)
        index = self._open(DIAGNOSTIC)
        try:
            self.samples["hhl.step_rel_err"].append(step_relative_error(args[0], result.solution))
        except np.linalg.LinAlgError:
            pass  # a singular embedded system has no reference step
        finally:
            self._close(index)

    # -- results ------------------------------------------------------------

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Seconds per span name: inclusive, and self (each span minus the
        time its children cover)."""
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for name, start, end, parent, *_ in self.spans:
            inclusive[name] += end - start
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return dict(inclusive), dict(own)

    def median(self, key: str) -> float:
        values = self.samples.get(key)
        return statistics.median(values) if values else 0.0

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "seed", "iteration"])
            for index, (name, start, end, parent, seed, iteration) in enumerate(self.spans):
                writer.writerow([index, name, f"{start:.9f}", f"{end:.9f}", parent, seed, iteration])


def step_relative_error(problem, solution: np.ndarray) -> float:
    """Relative distance of an HHL solution from np.linalg.solve on the same
    embedded system, projected back the same way."""
    from qlma.hhl import project_solution

    exact = project_solution(problem, np.linalg.solve(problem.matrix, problem.rhs * problem.rhs_norm)) / problem.scale
    return float(np.linalg.norm(solution - exact) / np.linalg.norm(exact))
