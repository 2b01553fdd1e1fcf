"""Span tracer that wraps flowrom's public functions from outside the package.

``Tracer.install`` replaces each target in ``TARGETS`` on every ``flowrom``
module that binds it (so ``flowrom.fom.factorize`` is wrapped as well as
``flowrom.numerics.factorize``) and on the owning class for methods.  Each
wrapped call records a span ``[name, parent, start, end, child_time]`` in
memory; nothing is written until the run ends.  ``layer_metrics`` turns the
spans and the counters gathered by the return hooks into the per-layer
metrics named in ``PER_LAYER``.

A target that no longer exists is listed in ``Tracer.missing`` and every
metric fed by its span is left out of the result, so a renamed or deleted
function shows up as a missing metric, never as a zero.
"""

import collections
import functools
import importlib
import os
import sys
import time

# (module, attribute path, span name, return hook)
TARGETS = [
    ("flowrom.numerics", "factorize", "numerics.factorize", "lu"),
    ("flowrom.numerics", "solve_sparse", "numerics.solve_sparse", None),
    ("flowrom.numerics", "sym_eig", "numerics.sym_eig", None),
    ("flowrom.mesh", "uniform_rect_mesh", "mesh.build", None),
    ("flowrom.mesh", "read_triangle_mesh", "mesh.build", None),
    ("flowrom.mesh", "load_bundled_mesh", "mesh.load_bundled", None),
    ("flowrom.mesh", "identify_periodic", "mesh.periodic", None),
    ("flowrom.fem", "TaylorHoodSpace.__init__", "fem.space_init", None),
    ("flowrom.fem", "TaylorHoodSpace.mass", "fem.operators", None),
    ("flowrom.fem", "TaylorHoodSpace.stiffness", "fem.operators", None),
    ("flowrom.fem", "TaylorHoodSpace.divergence", "fem.operators", None),
    ("flowrom.fem", "TaylorHoodSpace.div_form", "fem.operators", None),
    ("flowrom.fem", "TaylorHoodSpace.curl_form", "fem.operators", None),
    ("flowrom.fem", "TaylorHoodSpace.pressure_volume", "fem.operators", None),
    ("flowrom.fem", "TaylorHoodSpace.dirichlet_data", "fem.dirichlet", None),
    ("flowrom.fem", "nonlinear_residual", "fem.residual", None),
    ("flowrom.fem", "nonlinear_jacobian", "fem.jacobian", None),
    ("flowrom.fem", "apply_constraints", "fem.apply_constraints", None),
    ("flowrom.fom", "run_fom", "fom.run", None),
    ("flowrom.fom", "advance_step", "fom.step", None),
    ("flowrom.fom", "stokes_project", "fom.stokes_project", None),
    ("flowrom.fom", "build_initial_condition", "fom.initial_condition", None),
    ("flowrom.pod", "build_pod_basis", "pod.build", "rank"),
    ("flowrom.pod", "pod_projection_error", "pod.projection_error", None),
    ("flowrom.pod", "project_field", "pod.project", None),
    ("flowrom.rom", "assemble_rom_operators", "rom.assemble", "tensor"),
    ("flowrom.rom", "run_rom", "rom.run", "rom_steps"),
    ("flowrom.rom", "RomOperators.quadratic_jacobian", "rom.jacobian", None),
    ("flowrom.rom", "reconstruct_field", "rom.reconstruct", None),
    ("flowrom.diagnostics", "energy_enstrophy", "diagnostics.energy", None),
    ("flowrom.diagnostics", "trajectory_error", "diagnostics.trajectory_error", None),
    ("flowrom.io", "write_snapshots", "io.write", "bytes_written"),
    ("flowrom.io", "write_basis", "io.write", "bytes_written"),
    ("flowrom.io", "write_csv", "io.write", "bytes_written"),
    ("flowrom.io", "read_snapshots", "io.read", "bytes_read"),
    ("flowrom.io", "read_basis", "io.read", "bytes_read"),
    ("flowrom.io", "read_csv", "io.read", "bytes_read"),
    ("flowrom.cli", "main", "cli.main", "exit_code"),
    ("flowrom.cli", "cmd_fom", "cli.fom", None),
    ("flowrom.cli", "cmd_pod", "cli.pod", None),
    ("flowrom.cli", "cmd_rom", "cli.rom", None),
    ("flowrom.cli", "cmd_compare", "cli.compare", None),
]

# (metric, unit, kind, source).  Kinds: "self" sums span self time, "total"
# sums span duration, "calls" counts spans, "counter" reads a hook counter,
# "per_step" counts spans nested in fom.step per fom.step span.  Layer times
# listed here are the ones every workload exercises; the self time of every
# span name is also written to the trace file and the detail line.
PER_LAYER = [
    ("numerics.factorize_calls", "count", "calls", "numerics.factorize"),
    ("numerics.factorize_s", "s", "self", "numerics.factorize"),
    ("numerics.lu_fill_nnz", "count", "counter", "numerics.lu_fill_nnz"),
    ("numerics.lu_solve_calls", "count", "calls", "numerics.lu_solve"),
    ("numerics.lu_solve_s", "s", "self", "numerics.lu_solve"),
    ("numerics.solve_sparse_calls", "count", "calls", "numerics.solve_sparse"),
    ("numerics.sym_eig_calls", "count", "calls", "numerics.sym_eig"),
    ("fem.residual_calls", "count", "calls", "fem.residual"),
    ("fem.residual_s", "s", "self", "fem.residual"),
    ("fem.jacobian_calls", "count", "calls", "fem.jacobian"),
    ("fem.jacobian_s", "s", "self", "fem.jacobian"),
    ("fem.dirichlet_calls", "count", "calls", "fem.dirichlet"),
    ("fem.dirichlet_s", "s", "self", "fem.dirichlet"),
    ("fem.apply_constraints_calls", "count", "calls", "fem.apply_constraints"),
    ("fem.operators_s", "s", "self", "fem.operators"),
    ("fem.space_init_calls", "count", "calls", "fem.space_init"),
    ("fem.space_init_s", "s", "self", "fem.space_init"),
    ("mesh.build_calls", "count", "calls", "mesh.build"),
    ("mesh.build_s", "s", "self", ("mesh.build", "mesh.load_bundled", "mesh.periodic")),
    ("fom.steps", "count", "calls", "fom.step"),
    ("fom.step_s", "s", "total", "fom.step"),
    ("fom.newton_iters_per_step", "count/step", "per_step", "fem.jacobian"),
    ("fom.factorizations_per_step", "count/step", "per_step", "numerics.factorize"),
    ("fom.newton_failures", "count", "counter", "fom.step.errors"),
    ("fom.stokes_project_calls", "count", "calls", "fom.stokes_project"),
    ("pod.build_calls", "count", "calls", "pod.build"),
    ("pod.rank", "count", "counter", "pod.rank"),
    ("pod.projection_error_calls", "count", "calls", "pod.projection_error"),
    ("rom.assemble_calls", "count", "calls", "rom.assemble"),
    ("rom.tensor_entries", "count", "counter", "rom.tensor_entries"),
    ("rom.run_calls", "count", "calls", "rom.run"),
    ("rom.steps", "count", "counter", "rom.steps"),
    ("rom.newton_iters", "count", "calls", "rom.jacobian"),
    ("rom.newton_failures", "count", "counter", "rom.run.errors"),
    ("diagnostics.energy_calls", "count", "calls", "diagnostics.energy"),
    ("diagnostics.energy_s", "s", "self", "diagnostics.energy"),
    ("diagnostics.trajectory_error_calls", "count", "calls", "diagnostics.trajectory_error"),
    ("io.write_calls", "count", "calls", "io.write"),
    ("io.read_calls", "count", "calls", "io.read"),
    ("io.bytes_written", "B", "counter", "io.bytes_written"),
    ("io.bytes_read", "B", "counter", "io.bytes_read"),
    ("cli.calls", "count", "calls", "cli.main"),
    ("cli.nonzero_exits", "count", "counter", "cli.nonzero_exits"),
]

# counters filled by hooks or error paths, and the span whose target feeds them
_COUNTER_SPAN = {
    "numerics.lu_fill_nnz": "numerics.factorize",
    "fom.step.errors": "fom.step",
    "pod.rank": "pod.build",
    "rom.tensor_entries": "rom.assemble",
    "rom.steps": "rom.run",
    "rom.run.errors": "rom.run",
    "io.bytes_written": "io.write",
    "io.bytes_read": "io.read",
    "cli.nonzero_exits": "cli.main",
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "flowrom" or name.startswith("flowrom."))]


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class _TracedLU:
    """Proxy around a factorization object that traces its ``solve``."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        span = self._tracer.open("numerics.lu_solve")
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.close(span)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Tracer:
    """In-memory span recorder; use as a context manager around a run."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.counters = collections.Counter()
        self.missing = []
        self._stack = []
        self._undo = []

    # -- installation -------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        for module_name, path, span, hook in self.targets:
            try:
                owner, attr, original = _resolve(module_name, path)
            except (ImportError, AttributeError):
                self.missing.append((f"{module_name}.{path}", span))
                continue
            wrapper = self._wrap(span, original, hook)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for module in _package_modules():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span_name, fn, hook):
        after = getattr(self, f"_after_{hook}") if hook else None
        errors = f"{span_name}.errors"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(span_name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counters[errors] += 1
                raise
            finally:
                self.close(span)
            return after(args, result) if after else result

        return traced

    # -- spans ----------------------------------------------------------

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, parent, time.perf_counter(), 0.0, 0.0])
        return index

    def close(self, index):
        end = time.perf_counter()
        span = self.spans[index]
        span[3] = end
        self._stack.pop()
        if span[1] >= 0:
            self.spans[span[1]][4] += end - span[2]

    # -- return hooks ---------------------------------------------------

    def _after_lu(self, args, lu):
        # fill (L+U nonzeros as SuperLU stores them) of the Newton systems
        if any(self.spans[i][0] == "fom.step" for i in self._stack):
            self.counters["numerics.lu_fill_nnz"] = max(self.counters["numerics.lu_fill_nnz"], int(lu.nnz))
        return _TracedLU(lu, self)

    def _after_rank(self, args, basis):
        self.counters["pod.rank"] = max(self.counters["pod.rank"], int(basis.rank))
        return basis

    def _after_tensor(self, args, ops):
        self.counters["rom.tensor_entries"] += int(ops.tensor.size)
        return ops

    def _after_rom_steps(self, args, traj):
        self.counters["rom.steps"] += int(traj.times.size - 1)
        return traj

    def _after_bytes_written(self, args, result):
        self.counters["io.bytes_written"] += os.path.getsize(args[0])
        return result

    def _after_bytes_read(self, args, result):
        self.counters["io.bytes_read"] += os.path.getsize(args[0])
        return result

    def _after_exit_code(self, args, code):
        if code != 0:
            self.counters["cli.nonzero_exits"] += 1
        return code

    # -- results --------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        out = {}
        for name, _, start, end, child in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child
        return out

    def _count_under(self, name, ancestor):
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[1]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][1]
            count += parent >= 0
        return count

    def layer_metrics(self, per_layer=PER_LAYER):
        """Per-layer metric values, leaving out every metric fed by a missing target."""
        missing_spans = {span for _, span in self.missing}
        if "numerics.factorize" in missing_spans:
            missing_spans.add("numerics.lu_solve")
        summary = self.summary()
        steps = summary.get("fom.step", {}).get("calls", 0)
        metrics = {}
        for name, unit, kind, source in per_layer:
            spans = source if isinstance(source, tuple) else (source,)
            if kind == "counter":
                spans = (_COUNTER_SPAN[source],)
            if kind == "per_step":
                spans = spans + ("fom.step",)
            if missing_spans.intersection(spans):
                continue
            if kind == "counter":
                value = self.counters[source]
            elif kind == "per_step":
                value = self._count_under(source, "fom.step") / steps if steps else 0.0
            else:
                key = {"self": "self_s", "total": "total_s", "calls": "calls"}[kind]
                value = sum(summary.get(s, {}).get(key, 0) for s in spans)
            metrics[name] = {"value": value, "unit": unit}
        return metrics

    def dump(self):
        """Spans as plain records for the trace file."""
        return [{"name": n, "parent": p, "start": s, "end": e, "self_s": e - s - c}
                for n, p, s, e, c in self.spans]
