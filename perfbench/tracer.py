"""Span recorder that wraps fklab's public functions from outside.

The benchmark patches each target function in every ``fklab`` module
namespace that binds the same object, so ``from .opalg import step_factors``
in ``fkmatrix`` is traced as well. Spans hold name, layer, start, end,
parent and thread; they stay in memory and are written when the run ends.
Counts are computed from argument and result shapes at the same wrapper
boundary, so they repeat exactly for a fixed config.

Reducers are wrapped as counters only: their result sizes give the kept
sample count, but they open no span, so the time spent inside the chunk
functions they call stays with the estimator that defined them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

MIB = 2.0**20
COMPLEX_BYTES = 16


def tree_counts(shape) -> tuple[int, int, int]:
    """(products, flops, bytes) of ``ordered_product_tree`` on shape (P, n, m, m).

    Pairwise reduction does n - 1 products per path. A complex m x m product
    costs m^3 multiply-adds of 8 real flops. Bytes are computed, not
    measured: each level reads its factors and writes the products, and an
    odd level copies the survivors once more through ``np.concatenate``.
    """
    paths, n, m = shape[0], shape[1], shape[-1]
    mat = paths * m * m * COMPLEX_BYTES
    products = paths * (n - 1)
    moved = 0
    k = n
    while k > 1:
        even = k - k % 2
        moved += (even + even // 2) * mat
        if k % 2:
            moved += 2 * (even // 2 + 1) * mat
        k = even // 2 + k % 2
    return products, products * 8 * m**3, moved


# --- counters: (args, kwargs, result) -> {counter: amount} ----------------

def _normals(a, k, r):
    return {"wiener.normals": r.size}


def _path_bytes(a, k, r):
    return {"wiener.path_mb": r.nbytes / MIB}


def _factors(a, k, r):
    return {"opalg.factors": math.prod(r.shape[:-2]),
            "opalg.factor_mb": r.nbytes / MIB}


def _tree(a, k, r):
    products, flops, moved = tree_counts(a[0].shape if a else k["F"].shape)
    return {"opalg.tree_products": products, "opalg.tree_flops": flops,
            "opalg.tree_bytes": moved}


def _calls(name):
    return lambda a, k, r: {name: 1}


def _kept(factor):
    def count(a, k, r):
        est = r[0] if isinstance(r, list) else r
        return {"mc.kept_paths": factor * est.n_samples}
    return count


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``qualname`` may be ``Class.method``."""

    layer: str
    module: str
    qualname: str
    counter: Callable | None = None
    requested: str | None = None  # argument holding the requested paths
    span: bool = True


def _t(layer, name, **kw) -> Target:
    return Target(layer, f"fklab.{layer}", name, **kw)


TARGETS = (
    _t("streams", "RngStream.generator", counter=_calls("streams.generators")),
    _t("mc", "mc_run", counter=_kept(1), requested="n_samples", span=False),
    _t("wiener", "sample_increments", counter=_normals),
    _t("wiener", "paths_from_increments", counter=_path_bytes),
    _t("wiener", "bridge_from_free", counter=_path_bytes),
    _t("wiener", "estimate_covariance", requested="n_paths"),
    _t("stochint", "alpha_integral_batch", counter=_calls("stochint.calls")),
    _t("stochint", "time_integral_batch", counter=_calls("stochint.calls")),
    _t("stochint", "convert_check_batch", counter=_calls("stochint.calls")),
    _t("opalg", "step_factors"),
    _t("opalg", "expm_batch", counter=_factors),
    _t("opalg", "ordered_product_tree", counter=_tree),
    _t("opalg", "expm", counter=_calls("opalg.expm_calls")),
    _t("fkmatrix", "estimate_generalized_fk", requested="n_paths"),
    _t("fkmatrix", "check_nov_identity", requested="n_paths"),
    _t("fkmatrix", "check_duhamel", requested="n_paths"),
    _t("fkmatrix", "rhs_generator"),
    # private reducer: a later refactor may remove it (reported missing)
    _t("fkmatrix", "_matrix_mc", counter=_kept(2), span=False),
    _t("fkschrodinger", "apply_semigroup", requested="n_paths"),
    _t("fkschrodinger", "kernel", requested="n_paths"),
    _t("fkschrodinger", "gauge_check", requested="n_paths"),
    _t("fkschrodinger", "diamagnetic_check", requested="n_paths"),
    _t("fkschrodinger", "khasminskii_check", requested="n_paths"),
    _t("fkschrodinger", "kato_kappa"),
    _t("fkschrodinger", "_columns_mc", counter=_kept(1), span=False),
    _t("phasespace", "alpha_symbol"),
    _t("phasespace", "alpha_quantize"),
    _t("phasespace", "standard_hamiltonian"),
    _t("phasespace", "trotter_reconstruct"),
    _t("cli", "main"),
    _t("cli", "parse_config"),
)


def resolve(target: Target):
    """The target's function object, or None when it no longer exists."""
    try:
        obj = importlib.import_module(target.module)
    except ImportError:
        return None
    for part in target.qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj if callable(obj) else None


class Tracer:
    """Installs wrappers, records spans and counts, and removes wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, layer, start, end, parent, thread)
        self.counts: dict[str, float] = {}
        self.requested_paths = 0
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.claimed = 0
        return self._local.stack

    def _add(self, counts: dict) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counts[key] = self.counts.get(key, 0) + value

    def _open(self, name: str, layer: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, layer, time.perf_counter(), None, parent,
                               threading.get_ident()])
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, target: Target):
        name = f"{target.layer}.{target.qualname}"
        signature = inspect.signature(fn) if target.requested else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack()
            # only the outermost estimator call counts its requested paths
            outermost = signature is not None and self._local.claimed == 0
            if outermost:
                bound = signature.bind(*args, **kwargs).arguments
                with self._lock:
                    self.requested_paths += int(bound[target.requested])
                self._local.claimed += 1
            idx = self._open(name, target.layer) if target.span else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    self._close(idx)
                if outermost:
                    self._local.claimed -= 1
            if target.counter is not None:
                self._add(target.counter(args, kwargs, result))
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            fn = resolve(target)
            if fn is None:
                self.missing.append(f"{target.module}.{target.qualname}")
                continue
            wrapper = self._wrap(fn, target)
            if "." in target.qualname:
                owner = resolve(Target(target.layer, target.module,
                                       target.qualname.rsplit(".", 1)[0]))
                attr = target.qualname.rsplit(".", 1)[1]
                self._patches.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "fklab" and not mod_name.startswith("fklab."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def span_records(self) -> list[dict]:
        keys = ("name", "layer", "start", "end", "parent", "thread")
        return [dict(zip(keys, s)) for s in self.spans]


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[3] - s[2] - c for s, c in zip(spans, child)]


# per-layer time metrics: metric -> (kind, span names)
# "total" sums whole spans not nested in a span of the same set;
# "self" sums self time
_TIME_METRICS = {
    "wiener.sample_s": ("total", {"wiener.sample_increments"}),
    "wiener.path_s": ("total", {"wiener.paths_from_increments",
                                "wiener.bridge_from_free"}),
    "stochint.s": ("total", {"stochint.alpha_integral_batch",
                             "stochint.time_integral_batch",
                             "stochint.convert_check_batch"}),
    "opalg.step_factors_s": ("self", {"opalg.step_factors"}),
    "opalg.expm_batch_s": ("total", {"opalg.expm_batch"}),
    "opalg.tree_s": ("total", {"opalg.ordered_product_tree"}),
    "opalg.expm_s": ("total", {"opalg.expm"}),
    "fkschrodinger.kato_s": ("total", {"fkschrodinger.kato_kappa"}),
    "phasespace.symbol_s": ("total", {"phasespace.alpha_symbol"}),
    "phasespace.quantize_s": ("total", {"phasespace.alpha_quantize"}),
    "cli.parse_s": ("total", {"cli.parse_config"}),
}
# layer self time, less the spans that have a time metric of their own
_SELF_METRICS = ("fkmatrix", "fkschrodinger", "phasespace", "cli")

def layer_times(spans) -> dict[str, float]:
    """The per-layer time metrics of one traced pass, in seconds."""
    own = self_times(spans)
    owned = set().union(*(names for _, names in _TIME_METRICS.values()))
    out = {}
    for metric, (kind, names) in _TIME_METRICS.items():
        total = 0.0
        for i, (name, _, start, end, parent, _) in enumerate(spans):
            if name not in names:
                continue
            if kind == "self":
                total += own[i]
                continue
            p = parent
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][4]
            if p < 0:
                total += end - start
        out[metric] = total
    for layer in _SELF_METRICS:
        out[f"{layer}.self_s"] = sum(
            own[i] for i, s in enumerate(spans)
            if s[1] == layer and s[0] not in owned)
    return out
