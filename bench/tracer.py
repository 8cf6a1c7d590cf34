"""Per-layer timing of combtester from outside the package.

`Tracer.install` replaces each timed function with a wrapper in every
``combtester`` module namespace that holds it (modules bind names with
``from .matcore import ...``, so patching only the defining module would
miss those calls), and replaces timed methods on their class.
`Tracer.uninstall` puts every original back.  No file under ``src/`` is
changed.

Every timed function gets a call count, an inclusive time and a self time
(inclusive minus the time spent in timed callees).  None of the timed
functions calls itself, so inclusive times are not double counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
import weakref
from collections import defaultdict

# (module, qualified name) of every timed function, grouped by layer
TIMED = (
    ("matcore", "LabeledOperator"),
    ("matcore", "partial_trace"),
    ("matcore", "tensor"),
    ("matcore", "link"),
    ("matcore", "eigh"),
    ("matcore", "hermitian_part"),
    ("matcore", "trace_norm"),
    ("optim", "XiChainSet.project"),
    ("optim", "XiChainSet.project_affine"),
    ("optim", "project_psd"),
    ("optim", "project_to_density"),
    ("optim", "projected_gradient_min"),
    ("discrimination", "parallel_discriminable"),
    ("discrimination", "causal_discriminable"),
    ("discrimination", "synthesize_tester"),
    ("discrimination", "_ProductObjective.value_and_grad"),
    ("distances", "cb_distance"),
    ("distances", "memory_distance"),
    ("channels", "validate_comb"),
    ("testers", "validate_tester"),
    ("testers", "born_probabilities"),
    ("testers", "tester_from_circuit"),
    ("separation", "build_example"),
    ("separation", "verify_parallel_impossible"),
    ("separation", "causal_protocol"),
    ("unitary", "discriminability"),
    ("cli", "main"),
)

# metrics derived from arguments and results rather than from the clock
EXTRA = (
    "optim.XiChainSet.project_affine.first_s",
    "optim.dykstra.inner",
    "optim.dykstra.inner_p50",
    "optim.dykstra.inner_max",
    "optim.dykstra.capped",
    "optim.projected_gradient_min.accept_ratio",
    "matcore.LabeledOperator.bytes",
    "discrimination.solver_iterations",
    "distances.cb_distance.iterations",
    "distances.memory_distance.iterations",
)

# default inner-iteration cap of XiChainSet.project
DYKSTRA_CAP = 5000


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, qual in TIMED:
        base = f"{module}.{qual}"
        names += [f"{base}.calls", f"{base}.s", f"{base}.self_s"]
    return names + list(EXTRA)


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _argument(fn, name: str, default):
    """Reads argument ``name`` of a call to ``fn`` from its args and kwargs."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments.get(name, default)

    return read


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.sums = defaultdict(int)  # additive EXTRA metrics
        self.sums["optim.XiChainSet.project_affine.first_s"] = 0.0
        self.dykstra_counts: list[int] = []  # inner iterations of each project
        self.dykstra_capped = 0
        self.objective_evals = 0
        self.accepted_steps = 0
        self._children: list[float] = []  # child time of each open timed call
        self._open_projects: list[int] = []  # inner count of each open project
        self._affine_seen = weakref.WeakSet()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _timed(self, name: str, fn, after=None):
        children = self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = children.pop()
                self.calls[name] += 1
                self.incl[name] += dt
                self.self_s[name] += dt - child
                if children:
                    children[-1] += dt
            if after is not None:
                after(args, out, dt)
            return out

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for module_name, _ in TIMED:
            importlib.import_module(f"combtester.{module_name}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "combtester" or n.startswith("combtester.")]
        hooks = self._after_hooks()
        for module_name, qual in TIMED:
            name = f"{module_name}.{qual}"
            owner = sys.modules[f"combtester.{module_name}"]
            attr = qual
            if "." in qual:  # a method: replace it on its class
                cls_name, attr = qual.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            if inspect.isclass(original):  # construction: replace __init__
                owner, attr, original = original, "__init__", original.__init__
            wrapped = self._wrap(name, original, hooks.get(name))
            if owner in modules:
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, wrapped)
            else:
                self._set(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name: str, fn, after):
        if name == "optim.XiChainSet.project":
            max_iter = _argument(fn, "max_iter", DYKSTRA_CAP)
            return self._counting_dykstra(self._timed(name, fn), max_iter)
        if name == "optim.projected_gradient_min":
            return self._timed(name, self._counting_descent(fn))
        return self._timed(name, fn, after)

    def _after_hooks(self) -> dict:
        def iterations(metric):
            def hook(args, out, dt):
                self.sums[metric] += out.iterations
            return hook

        def copied(args, out, dt):
            self.sums["matcore.LabeledOperator.bytes"] += args[0].matrix.nbytes

        def affine(args, out, dt):
            if self._open_projects:
                self._open_projects[-1] += 1
            if args[0] not in self._affine_seen:  # first call on this chain set
                self._affine_seen.add(args[0])
                self.sums["optim.XiChainSet.project_affine.first_s"] += dt

        return {
            "matcore.LabeledOperator": copied,
            "optim.XiChainSet.project_affine": affine,
            "discrimination.parallel_discriminable": iterations("discrimination.solver_iterations"),
            "discrimination.causal_discriminable": iterations("discrimination.solver_iterations"),
            "distances.cb_distance": iterations("distances.cb_distance.iterations"),
            "distances.memory_distance": iterations("distances.memory_distance.iterations"),
        }

    def _counting_dykstra(self, timed_project, max_iter):
        """Count the affine steps made inside each projection."""
        @functools.wraps(timed_project)
        def project(*args, **kwargs):
            self._open_projects.append(0)
            try:
                return timed_project(*args, **kwargs)
            finally:
                count = self._open_projects.pop()
                self.dykstra_counts.append(count)
                if count >= max_iter(args, kwargs):
                    self.dykstra_capped += 1

        return project

    def _counting_descent(self, fn):
        """Count objective evaluations and accepted steps of one descent."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def descent(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            objective = bound.arguments["value_and_grad"]

            def counted(x):
                self.objective_evals += 1
                return objective(x)

            bound.arguments["value_and_grad"] = counted
            out = fn(*bound.args, **bound.kwargs)
            h = out.history
            # each accepted step lowers the objective; a rejected sweep repeats it
            self.accepted_steps += sum(1 for a, b in zip(h, h[1:]) if b < a)
            return out

        return descent

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for module, qual in TIMED:
            name = f"{module}.{qual}"
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.incl[name]
            out[f"{name}.self_s"] = self.self_s[name]
        counts = self.dykstra_counts
        out.update({name: self.sums[name] for name in EXTRA})
        out.update({
            "optim.dykstra.inner": sum(counts),
            "optim.dykstra.inner_p50": statistics.median(counts) if counts else 0,
            "optim.dykstra.inner_max": max(counts, default=0),
            "optim.dykstra.capped": self.dykstra_capped,
            "optim.projected_gradient_min.accept_ratio": (
                self.accepted_steps / self.objective_evals if self.objective_evals else 0.0
            ),
        })
        return {name: out[name] for name in metric_names()}
