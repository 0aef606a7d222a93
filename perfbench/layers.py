"""Per-layer self time and call counts, measured from outside the package.

A layer is one sparsebump module.  Its time is taken by wrapping the public
functions of that module where another module has bound them by name: in
the `lab`, `prooftrace` and `sparse` namespaces.  Nothing inside the package
is edited; every wrapped name is put back when `LayerTrace.installed` exits,
also when the traced code raises.

A layer's self time is the duration of its spans minus the part covered by
nested spans of other layers.  The cheap accessors `mass`, `average`,
`contains` and `eps_eval` are not wrapped: they are called per cube, so a
wrapper would cost more than they do, and their time stays with the caller.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (namespace module, bound name, layer key)
BINDINGS = (
    ("lab", "generate_weight", "weights"),
    ("lab", "fix_ce", "weights"),
    ("lab", "llogl_integral", "weights"),
    ("lab", "stopping_family", "sparse.build"),
    ("lab", "random_sparse", "sparse.build"),
    ("lab", "carleson_check", "sparse.carleson"),
    ("lab", "entropy_bumps", "bumps"),
    ("lab", "direct_bumps", "bumps"),
    ("lab", "testing_constants", "operators.testing"),
    ("lab", "norm_lower_bound", "operators.norm_lb"),
    ("lab", "primal_indicator_ratios", "operators.indicator_ratios"),
    ("lab", "entropy_trace", "prooftrace.primal"),
    ("lab", "direct_trace", "prooftrace.primal"),
    ("lab", "dual_entropy_trace", "prooftrace.dual"),
    ("lab", "dual_direct_trace", "prooftrace.dual"),
    # dual traces run without a precomputed bump, so they recompute it here
    ("prooftrace", "entropy_bumps", "bumps"),
    ("prooftrace", "direct_bumps", "bumps"),
    ("prooftrace", "rho", "maximal.rho"),
    ("prooftrace", "carleson_check", "sparse.carleson"),
    ("sparse", "rho", "maximal.rho"),
)

ROOT_LAYER = "lab"
LAYERS = tuple(dict.fromkeys(key for _, _, key in BINDINGS)) + (ROOT_LAYER,)


class LayerTrace:
    """Span timer: self time and calls per layer, plus counts read from the
    values the layers return (family sizes, strata, trace outcomes)."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.family_cubes_max = 0
        self._child_time: list[float] = []

    def span(self, key: str, fn, *args, **kwargs):
        """Call fn as one span of layer `key`."""
        start = time.perf_counter()
        self._child_time.append(0.0)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            nested = self._child_time.pop()
            self.self_s[key] += duration - nested
            self.calls[key] += 1
            if self._child_time:
                self._child_time[-1] += duration
        self._observe(key, result)
        return result

    def _observe(self, key: str, result) -> None:
        if key == "sparse.build":
            self.counts["sparse.family_cubes"] += len(result)
            self.family_cubes_max = max(self.family_cubes_max, len(result))
        elif key.startswith("prooftrace."):
            self.counts["prooftrace.strata"] += len(result.strata)
            self.counts["prooftrace.traces"] += 1
            self.counts["prooftrace.passed"] += bool(result.passed)

    def wrap(self, key: str, fn):
        def wrapper(*args, **kwargs):
            return self.span(key, fn, *args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self, modules: dict):
        """Bind a timing wrapper in place of every name in BINDINGS for the
        duration of the block; `modules` maps namespace names to modules."""
        saved = []
        try:
            for ns, name, key in BINDINGS:
                module = modules[ns]
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, self.wrap(key, original))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)


def unrestored(modules: dict, originals: dict) -> list[str]:
    """Names in BINDINGS whose current binding differs from `originals`."""
    return [f"{ns}.{name}" for ns, name, _ in BINDINGS
            if getattr(modules[ns], name) is not originals[(ns, name)]]


def snapshot(modules: dict) -> dict:
    return {(ns, name): getattr(modules[ns], name) for ns, name, _ in BINDINGS}
