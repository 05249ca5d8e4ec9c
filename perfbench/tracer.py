"""Per-layer tracing installed from outside the package.

``Tracer.install`` replaces selected ``boundedsum`` functions with timing
wrappers in every package module that holds them by name (a function
imported with ``from .x import f`` lives in each importer's namespace);
``uninstall`` puts every original object back.  Nothing under ``src/``
knows about it, and the untraced benchmark run never installs it.

Two kinds of wrapper:

* spans, at the layer boundaries (``cli.main``, the analyses,
  ``run_sum``, the ``bs_*`` algorithms, file I/O, the mechanism layer).
  Spans are aggregated in memory by their path from the root span, so
  the causal tree survives without keeping one record per call;
* kernels (``add_float``, ``round_dyadic``, ``add_int``,
  ``Dataset.__init__``), called too often for spans: counts and busy
  time only.

Self time is a wrapper's duration minus the time of the wrapped calls
made directly inside it.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

SPANS = [
    ("boundedsum.cli", "main", "cli.main"),
    ("boundedsum.attacks", "verify_attack", "attacks.verify_attack"),
    ("boundedsum.sensitivity", "brute_force_sensitivity",
     "sensitivity.brute_force_sensitivity"),
    ("boundedsum.mechanism", "distinguishing_experiment",
     "mechanism.distinguishing_experiment"),
    ("boundedsum.mechanism", "exact_dp_check", "mechanism.exact_dp_check"),
    ("boundedsum.mechanism", "run_mechanism", "mechanism.run_mechanism"),
    ("boundedsum.mechanism", "dp_violation_log2_bound",
     "mechanism.dp_violation_log2_bound"),
    ("boundedsum.mechanism", "certified_leq_exp",
     "mechanism.certified_leq_exp"),
    ("boundedsum.summation", "run_sum", "summation.run_sum"),
    ("boundedsum.summation", "bs_iterative", "summation.bs_iterative"),
    ("boundedsum.summation", "bs_pairwise", "summation.bs_pairwise"),
    ("boundedsum.summation", "bs_kahan", "summation.bs_kahan"),
    ("boundedsum.summation", "bs_split", "summation.bs_split"),
    ("boundedsum.summation", "random_permutation",
     "summation.random_permutation"),
    ("boundedsum.data", "load_dataset", "data.load_dataset"),
    ("boundedsum.data", "save_dataset", "data.save_dataset"),
    ("boundedsum.metrics", "d_sym", "metrics.distance"),
    ("boundedsum.metrics", "d_co", "metrics.distance"),
    ("boundedsum.metrics", "d_ham", "metrics.distance"),
    ("boundedsum.metrics", "d_id", "metrics.distance"),
]

KERNELS = [
    ("boundedsum.floats", "add_float", "floats.add_float"),
    ("boundedsum.floats", "round_dyadic", "floats.round_dyadic"),
    ("boundedsum.ints", "add_int", "ints.add_int"),
]

# (module, class, method): patched on the class itself
METHOD_KERNELS = [
    ("boundedsum.data", "Dataset", "__init__", "data.dataset_init"),
]

PER_LAYER_UNITS = {
    "floats.add_float.calls": "count",
    "floats.add_float.self_s": "s",
    "floats.round_dyadic.self_s": "s",
    "ints.add_int.calls": "count",
    "summation.run_sum.self_s": "s",
    "summation.adds_per_element": "ratio",
    "summation.bs_iterative.self_s": "s",
    "summation.bs_pairwise.self_s": "s",
    "summation.bs_kahan.self_s": "s",
    "summation.bs_split.self_s": "s",
    "data.load_dataset.self_s": "s",
    "data.dataset_init.calls": "count",
    "data.dataset_init.self_s": "s",
    "sensitivity.brute_force_sensitivity.self_s": "s",
    "sensitivity.us_per_dataset": "us",
    "sensitivity.release_share": "ratio",
    "attacks.verify_attack.self_s": "s",
    "mechanism.run_mechanism.self_s": "s",
    "mechanism.run_sum_per_trial": "ratio",
    "mechanism.exact_dp_check.self_s": "s",
    "mechanism.us_per_support_point": "us",
    "cli.main.self_s": "s",
    "trace.overhead": "ratio",
}

_BRUTE = "sensitivity.brute_force_sensitivity"
_RUN_SUM = "summation.run_sum"
_MECH = "mechanism.run_mechanism"


class Tracer:
    """Wrappers, their installation, and the counters they feed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.active = defaultdict(int)        # name -> open calls
        self.stack = []                       # child-time cells
        self.path = []                        # names of open spans
        self.tree = {}                        # span path -> [calls, total, self]
        self.counts = defaultdict(int)        # derived work counters
        self.installed = []                   # (owner, attr, original)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name: str, span: bool):
        calls, total, self_time = self.calls, self.total, self.self_time
        active, stack, path, tree = self.active, self.stack, self.path, self.tree
        on_exit = _ON_EXIT.get(name)

        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            active[name] += 1
            if span:
                path.append(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - cell[0]
                if span:
                    row = tree.setdefault(tuple(path), [0, 0.0, 0.0])
                    row[0] += 1
                    row[1] += dt
                    row[2] += dt - cell[0]
                    path.pop()
            if on_exit is not None:
                on_exit(self, args, kwargs, result, dt)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "boundedsum" or n.startswith("boundedsum.")]
        for entries, span in ((SPANS, True), (KERNELS, False)):
            for module, attr, name in entries:
                original = getattr(sys.modules[module], attr)
                wrapper = self._wrap(original, name, span)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self.installed.append((mod, key, original))
                            setattr(mod, key, wrapper)
        for module, cls_name, attr, name in METHOD_KERNELS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            self.installed.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, False))

    def uninstall(self) -> None:
        while self.installed:
            owner, key, original = self.installed.pop()
            setattr(owner, key, original)

    # -- results ----------------------------------------------------------

    def metrics(self, overhead: float) -> dict:
        c, t, s, n = self.calls, self.total, self.self_time, self.counts
        adds = n["adds_in_sum"]
        values = {
            "floats.add_float.calls": c["floats.add_float"],
            "ints.add_int.calls": c["ints.add_int"],
            "summation.adds_per_element": _ratio(adds, n["elements"]),
            "data.dataset_init.calls": c["data.dataset_init"],
            "sensitivity.us_per_dataset":
                _ratio(t[_BRUTE] * 1e6, n["datasets"]),
            "sensitivity.release_share":
                _ratio(n["brute_release_s"], t[_BRUTE]),
            "mechanism.run_sum_per_trial":
                _ratio(n["run_sum_in_mechanism"], c[_MECH]),
            "mechanism.us_per_support_point":
                _ratio(t["mechanism.exact_dp_check"] * 1e6,
                       n["support_points"]),
            "trace.overhead": overhead,
        }
        for name in PER_LAYER_UNITS:
            if name.endswith(".self_s") and name not in values:
                values[name] = s[name[:-len(".self_s")]]
        return {name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER_UNITS.items()}

    def span_tree(self) -> list:
        return [{"path": list(p), "calls": row[0], "total_s": row[1],
                 "self_s": row[2]}
                for p, row in sorted(self.tree.items())]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# -- derived counters, fed from wrapper exits --------------------------------

def _on_run_sum(tr, args, kwargs, result, dt):
    dataset = args[0] if args else kwargs["dataset"]
    tr.counts["elements"] += len(dataset)
    if tr.active[_BRUTE]:
        tr.counts["brute_release_s"] += dt
    if tr.active[_MECH]:
        tr.counts["run_sum_in_mechanism"] += 1


def _on_add(tr, args, kwargs, result, dt):
    if tr.active[_RUN_SUM]:
        tr.counts["adds_in_sum"] += 1


def _on_brute(tr, args, kwargs, result, dt):
    tr.counts["datasets"] += result.datasets


def _on_dp_check(tr, args, kwargs, result, dt):
    tr.counts["support_points"] += result.support


_ON_EXIT = {
    _RUN_SUM: _on_run_sum,
    "floats.add_float": _on_add,
    "ints.add_int": _on_add,
    _BRUTE: _on_brute,
    "mechanism.exact_dp_check": _on_dp_check,
}
