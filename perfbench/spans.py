"""In-memory span tracer that gives the benchmark its per-layer split.

The tracer wraps, from outside the package, the public functions and
methods of each layer module of mildflow. A module-level function is
re-bound under every name any mildflow module holds it by, because
modules import each other's functions directly (``from .strip import
to_grid``). Each call records one span: name, start, end and the index
of the enclosing span. Spans live in flat arrays until the run ends.

Each time metric names a group of functions of one layer. Its value is
self time: the time inside the group's spans minus the time of child
spans in other groups or other layers. A call to an ungrouped function
of the same layer counts toward its caller's group, so that, say, the
norm evaluations inside Lipschitz sampling are part of ``lab.lipschitz_s``;
what is left of a layer is its ``<layer>.other_s``.
Functions cached with ``functools.lru_cache`` record a cache hit under
a separate ``:hit`` name, so that ``chebyshev.build_s`` counts fills only.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import functools
import sys
import time
import types
from array import array

import numpy as np

PACKAGE = "mildflow"
LAYERS = ("exponents", "chebyshev", "strip", "propagators", "cloud",
          "solver", "heat", "lab", "io")
# scipy's expm as bound in propagators: every defective-block fallback
# of a propagator ends in exactly one call of it.
FOREIGN = (("propagators", "expm"),)

ACTIONS = ("propagators.*.propagate", "propagators.*.phi1_action",
           "propagators.*.phi2_action")
PHI = ("propagators.phi1", "propagators.phi2")
BUILDS = ("propagators.*.__init__",)
TRANSFORMS = ("propagators.*.to_eigen", "propagators.*.from_eigen")
ASSEMBLY = ("cloud.mode_matrix", "cloud.assemble_mode",
            "cloud.spectral_bound_numeric", "cloud.mode_spectra",
            "cloud.CloudModel.__init__")
CLOUD_F = ("cloud.nonlinearity_cloud", "cloud.CloudModel.nonlinearity")
STRIP_NORMS = ("strip.sobolev_norm", "strip.sobolev_norm_set", "strip.l2_norm")
FFTS = ("strip.to_grid", "strip.from_grid")
LOOP = ("solver.run_simulation", "solver.step_exponential")
MODEL_F = ("cloud.CloudModel.nonlinearity", "heat.*Model.nonlinearity")
MODEL_NORMS = ("cloud.CloudModel.norm", "heat.*Model.norm")

# (metric, patterns): self time in seconds; a name belongs to its first group.
TIME_METRICS = (
    ("propagators.action_s", ACTIONS),
    ("propagators.phi_eval_s", PHI),
    ("propagators.build_s", BUILDS),
    ("propagators.transform_s", TRANSFORMS),
    ("cloud.assembly_s", ASSEMBLY),
    ("cloud.nonlinearity_s", CLOUD_F),
    ("strip.norm_s", STRIP_NORMS),
    ("strip.transform_s", FFTS),
    ("solver.self_s", LOOP),
    ("solver.picard_s", ("solver.picard_solve",)),
    ("heat.assemble_s", ("heat.*.operator_matrix", "heat.*.frozen_propagator")),
    ("heat.nonlinearity_s", ("heat.*.nonlinearity", "heat.nonlinearity_*")),
    ("lab.lipschitz_s", ("lab.*.lipschitz",)),
    ("lab.select_s", ("lab.estimate_semigroup_constants",
                      "lab.select_parameters", "lab.tail_profile")),
    ("io.write_s", ("io.*",)),
    ("chebyshev.build_s", ("chebyshev.*",)),
    ("exponents.self_s", ("exponents.*",)),
)

# Time of these layers outside every group above, so that the time
# metrics together cover every traced call.
OTHER = ("strip", "cloud", "propagators", "solver", "heat", "lab")

# (metric, patterns): calls entering the group from outside it, so a
# call nested in another call of the same group is not counted twice.
COUNT_METRICS = (
    ("propagators.actions", ACTIONS),
    ("propagators.phi_evals", PHI),
    ("propagators.builds", BUILDS),
    ("propagators.fallbacks", ("propagators.expm",)),
    ("cloud.blocks", ("cloud.mode_matrix",)),
    ("cloud.nonlinearity_calls", CLOUD_F),
    ("strip.norm_calls", STRIP_NORMS),
    ("strip.fft_calls", FFTS),
    ("lab.norm_calls", ("lab.*.norm",)),
)


class Tracer:
    """Wraps the layer modules while installed; spans accumulate across
    installs until the object is dropped."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple] = []

    @property
    def size(self) -> int:
        """Spans recorded so far."""
        return len(self.name_id)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        fill = self._intern(name)
        hit = self._intern(name + ":hit") if hasattr(fn, "cache_info") else None
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(fill)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            misses = fn.cache_info().misses if hit is not None else 0
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if hit is not None and fn.cache_info().misses == misses:
                    ids[idx] = hit

        return traced

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__post_init__"):
                continue
            if attr == "__init__" and dataclasses.is_dataclass(cls):
                continue  # generated field assignment; __post_init__ is traced
            name = f"{layer}.{cls.__qualname__}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                self._patch(cls, attr, type(member)(self._wrap(name, member.__func__)))
            elif isinstance(member, types.FunctionType):
                self._patch(cls, attr, self._wrap(name, member))

    def install(self) -> None:
        """Wrap every layer; all mildflow modules must be imported."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj)
                elif callable(obj):
                    replace[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = replace.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, attr, entry[1])
        for layer, attr in FOREIGN:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            self._patch(mod, attr, self._wrap(f"{layer}.{attr}", getattr(mod, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """(name_id, parent, start, end) as numpy arrays."""
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=start, end=end)

    def layer_totals(self, lo: int, hi: int) -> dict:
        """Per-layer totals over spans [lo, hi).

        Spans in the range must not have parents before lo; the runner
        only opens a range while no traced call is running.
        """
        name_id, parent, start, end = (a[lo:hi] for a in self.arrays())
        parent = np.where(parent >= 0, parent - lo, -1)
        nested = parent >= 0
        dur = end - start
        child = np.zeros_like(dur)
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child

        def matches(patterns):
            return [not n.endswith(":hit")
                    and any(fnmatch.fnmatchcase(n, p) for p in patterns)
                    for n in self.names]

        def mask(patterns):
            return np.array(matches(patterns), dtype=bool)[name_id]

        def entries(patterns):
            inside = mask(patterns)
            outer = inside.copy()
            outer[nested] &= ~inside[parent[nested]]
            return int(outer.sum())

        # spans with a run_simulation call among their ancestors
        sim = mask(("solver.run_simulation",)).tolist()
        in_sim = [False] * len(sim)
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                in_sim[i] = sim[p] or in_sim[p]
        in_sim = np.array(in_sim, dtype=bool)

        metrics = [m for m, _ in TIME_METRICS] + [f"{l}.other_s" for l in OTHER]
        layer_of = [n.split(".", 1)[0] for n in self.names]
        group_layer = [m.split(".", 1)[0] for m in metrics]
        group_of = [len(TIME_METRICS) + OTHER.index(l) if l in OTHER else None
                    for l in layer_of]
        for g, (_, patterns) in reversed(list(enumerate(TIME_METRICS))):
            for i, hit in enumerate(matches(patterns)):
                if hit:
                    group_of[i] = g
        explicit = len(TIME_METRICS)
        owner = []
        for nid, p in zip(name_id.tolist(), parent.tolist()):
            g = group_of[nid]
            inherit = (g is None or g >= explicit) and p >= 0 and owner[p] is not None
            if inherit and group_layer[owner[p]] == layer_of[nid]:
                g = owner[p]
            owner.append(g)
        totals = [0.0] * len(metrics)
        for g, t in zip(owner, own.tolist()):
            if g is not None:
                totals[g] += t
        out = dict(zip(metrics, totals))
        out.update({metric: entries(patterns)
                    for metric, patterns in COUNT_METRICS})
        lab_f = mask(("lab.*.f",))[nested]
        out["lab.lipschitz_pairs"] = int(
            (lab_f & mask(("lab.*.lipschitz",))[parent[nested]]).sum()) // 2
        out["solver.model_f_evals"] = int((mask(MODEL_F) & in_sim).sum())
        out["solver.model_norms"] = int((mask(MODEL_NORMS) & in_sim).sum())
        return out
