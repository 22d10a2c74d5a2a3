"""Per-layer timers and counters wrapped around segrecone's public functions.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
each traced function in every ``segrecone`` module namespace that binds it
(``ktheory.global_sections`` is the same object as
``encech.global_sections``), and patches methods on the class itself.  All
statistics are aggregates (calls, inclusive time, self time), never one
record per call, because ``Echelon.reduce`` runs about a million times in
``verify all``.

Inclusive time (``.s``) counts only the outermost of nested calls to the same
function; self time (``.self_s``) is inclusive time minus the time of traced
calls made inside it.  Hooks turn return values into work counts: lru cache
misses, nonzero characters, characters enumerated, echelon inserts that
grew the rank.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter


class _Stat:
    __slots__ = ("calls", "incl", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counts: Counter = Counter()
        self.paused = [0.0]  # probe seconds, added by the probe's handler
        self._child_time = [0.0]  # one accumulator per open traced call

    def stat(self, name: str) -> _Stat:
        return self.stats.setdefault(name, _Stat())

    def wrap(self, name, fn, hook=None, label=None):
        """Timed, counted stand-in for ``fn``.

        ``hook(tracer, result, missed)`` sees each return value; ``missed``
        tells whether an lru-cached ``fn`` evaluated (cache miss).
        ``label(args)`` splits the statistics of one function by argument.
        Times leave out ``paused[0]``, the seconds spent in host-speed
        probes, wherever a probe interrupts a traced call.
        """
        child_time = self._child_time
        paused = self.paused
        cache_info = getattr(fn, "cache_info", None)
        track_misses = hook is not None and cache_info is not None
        fixed = None if label else self.stat(name)

        def traced(*args, **kwargs):
            st = fixed or self.stat(f"{name}.{label(args)}")
            if track_misses:
                before = cache_info().misses
            child_time.append(0.0)
            st.depth += 1
            t0 = perf_counter() - paused[0]
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - paused[0] - t0
                st.depth -= 1
                st.calls += 1
                st.self_s += dt - child_time.pop()
                if not st.depth:
                    st.incl += dt
                child_time[-1] += dt
            if hook is not None:
                hook(self, result,
                     track_misses and cache_info().misses > before)
            return result

        functools.update_wrapper(traced, fn)
        if cache_info is not None:
            # encech.set_box_pad calls global_sections.cache_clear()
            traced.cache_info = cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self) -> None:
        """Wrap every target.  Raises ``LookupError``, before wrapping
        anything, if the code no longer has a target: its metrics would
        otherwise read 0, which looks like a full gain."""
        modules = {t.split(".")[0]: None for t in TARGETS}
        for module in modules:  # every namespace exists before rebinding
            modules[module] = importlib.import_module(f"segrecone.{module}")
        found = {}
        for target in TARGETS:
            module, *path, leaf = target.split(".")
            owner = modules[module]
            for part in path:
                owner = getattr(owner, part, None)
            found[target] = (owner, leaf, getattr(owner, leaf, None), path)
        missing = [t for t, (_, _, fn, _) in found.items() if fn is None]
        if missing:
            raise LookupError(f"traced targets not found: {missing}")
        for target, (owner, leaf, original, path) in found.items():
            name = target.removesuffix(".__init__")
            traced = self.wrap(name, original, HOOKS.get(name),
                               LABELS.get(name))
            if path:  # a method: patch the class
                setattr(owner, leaf, traced)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("segrecone"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)

    def snapshot(self) -> dict:
        return {"stats": {name: [st.calls, st.incl, st.self_s]
                          for name, st in self.stats.items()},
                "counts": dict(self.counts)}


def per_layer_value(metric: str, snapshot: dict):
    """Value of a per-layer metric named in BENCHMARK.json: ``<fn>.s``
    (inclusive seconds), ``<fn>.self_s``, ``<fn>.calls``,
    ``<fn>.useful_ratio`` (see :data:`USEFUL`) or a hook's count.  A
    function that never ran reads 0."""
    base, _, field = metric.rpartition(".")
    counts = snapshot["counts"]
    calls, incl, self_s = snapshot["stats"].get(base, (0, 0.0, 0.0))
    if field == "s":
        return incl
    if field == "self_s":
        return self_s
    if field == "calls":
        return calls
    if field == "useful_ratio":
        num, den = USEFUL[base]
        total = counts.get(den, 0) if den else calls
        return counts.get(num, 0) / total if total else 0.0
    return counts.get(metric, 0)


def _lru_misses(metric):
    def hook(tracer, result, missed):
        tracer.counts[metric] += missed
    return hook


def _h0_char(tracer, result, missed):
    if missed:
        tracer.counts["encech.h0_char.evaluated"] += 1
        tracer.counts["encech.h0_char.nonzero"] += result.dim > 0


def _character_support(tracer, result, missed):
    tracer.counts["encech.character_support.chars"] += len(result)


def _echelon_add(tracer, result, missed):
    tracer.counts["linalg.Echelon.add.grew"] += bool(result)


# Traced functions as "module.attribute"; a method is "module.Class.name"
# and a constructor is reported under the class name.
TARGETS = (
    "cli.run_check",
    "encech.character_support", "encech.h0_char", "encech.char_model",
    "encech.global_sections", "encech.restriction_map",
    "encech.verify_H0_surjection", "encech.verify_alg_surjection",
    "sheaf.coh_cech_oracle", "sheaf._cech_all", "sheaf.h_filtered",
    "sheaf.audit_summary",
    "polyring.groebner", "polyring.reduce_full", "polyring.truncated_quotient",
    "kaehler.qn_module", "kaehler.q_tensor_module", "kaehler.hodge_quotient",
    "kaehler.omega_transition", "kaehler.hodge_transition",
    "linalg.Echelon.reduce", "linalg.Echelon.add",
    "linalg.column_dependencies", "linalg.express_in_span",
    "prosys.certify_pro_iso", "prosys.pro_kernel",
    "prosys.StrictProMap.__init__",
    "charts.beta_kernel_system", "charts.d1_base_report",
    "charts.d1_relative_report",
    "monoid.toric_ideal", "monoid.is_normal_up_to",
    "ktheory.verify_K1", "ktheory.compute_K3", "ktheory.compute_K4",
    "report.render_json",
)

HOOKS = {
    "encech.character_support": _character_support,
    "encech.h0_char": _h0_char,
    "encech.char_model": _lru_misses("encech.char_model.evaluated"),
    "sheaf._cech_all": _lru_misses("sheaf.cech_bundles"),
    "kaehler.qn_module": _lru_misses("kaehler.qn_module.built"),
    "linalg.Echelon.add": _echelon_add,
}

# cli.run_check is timed per check id
LABELS = {"cli.run_check": lambda args: args[0]}

# ratio metric base -> (numerator count, denominator count; None: calls)
USEFUL = {
    "encech.h0_char": ("encech.h0_char.nonzero", "encech.h0_char.evaluated"),
    "linalg.Echelon.add": ("linalg.Echelon.add.grew", None),
}
