"""Spans around calls into the package's layers, recorded from outside the
package, and the per-layer metrics derived from them.

The tracer replaces every public function that a layer module holds in its
namespace with a wrapper that records a span. Callers look those names up at
call time, so `experiments.decode`, `decoding.least_squares_min_norm` and
`bounds.rank_of` are all traced without a change under src/. A span is
(name, start, end, parent, survivor sets in its arguments, straggler count,
exception raised). Spans stay in memory and are written out at exit.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
import types

PACKAGE = "gradcoding"
LAYERS = ("designs", "encoders", "decoding", "linalg", "bounds", "experiments", "cli", "serialize")
# Decode time is also reported for sets with exactly these straggler counts.
S_SPLITS = (5, 20, 45)

NAME, START, END, PARENT, NSETS, S, ERROR = range(7)


def hook_first_call(module, layer: str, callback) -> None:
    """Call `callback` once, at the first call from `module` into `layer`."""
    pending = [True]

    def wrap(fn):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if pending[0]:
                pending[0] = False
                callback()
            return fn(*args, **kwargs)

        return hooked

    target = f"{PACKAGE}.{layer}"
    for attr, value in list(vars(module).items()):
        if isinstance(value, types.FunctionType) and value.__module__ == target:
            setattr(module, attr, wrap(value))


class Tracer:
    """Records spans around calls into every layer function whose name
    ("layer.function") starts with `prefix`."""

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self.spans: list[list] = []
        self.wrapped: set[str] = set()
        self._stack = [-1]
        self._set_type = None

    def install(self) -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue  # its metrics are reported as missing
        decoding = modules.get("decoding")
        self._set_type = getattr(decoding, "NonStragglerSet", None)
        owner = {module.__name__: layer for layer, module in modules.items()}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                layer = owner.get(value.__module__)
                name = f"{layer}.{value.__name__}"
                if layer is not None and name.startswith(self.prefix):
                    setattr(module, attr, self._wrap(name, value))

    def _wrap(self, name: str, fn):
        self.wrapped.add(name)
        spans, stack, now, set_type = self.spans, self._stack, time.monotonic, self._set_type

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nsets, s = _survivor_sets(args, kwargs, set_type)
            rec = [name, 0.0, 0.0, stack[-1], nsets, s, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = now()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = now()
                stack.pop()

        return traced

    def dump(self, path) -> None:
        names = sorted({rec[NAME] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "wrapped": sorted(self.wrapped),
            "set_type_found": self._set_type is not None,
            "spans": [[index[r[NAME]], *r[1:]] for r in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _survivor_sets(args, kwargs, set_type) -> tuple[int, int]:
    """(number of survivor sets passed, straggler count of a single set)."""
    if set_type is None:
        return 0, -1
    for group in (args, kwargs.values()):
        for a in group:
            if isinstance(a, set_type):
                return 1, a.s
            if isinstance(a, (list, tuple)) and a and isinstance(a[0], set_type):
                return len(a), -1
    return 0, -1


def load(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    names = doc["names"]
    doc["spans"] = [[names[r[0]], *r[1:]] for r in doc["spans"]]
    return doc


def decodes(doc: dict) -> int | None:
    """Survivor sets passed into decoding.decode* from outside it."""
    return _Spans(doc).decodes


def layer_metrics(doc: dict, run_s: float, iterations: int) -> dict:
    """Per-layer metrics of one traced repetition; None marks a metric
    whose layer function was not found. Shares are of `run_s`, the time
    from the first call into experiments until the command returned."""
    c = _Spans(doc)
    decodes = c.decodes
    m = {"decoding.decodes": decodes}
    if decodes is None:
        for key in ("decoding.decode.ms_per_set", "decoding.decode.share", "linalg.calls_per_decode"):
            m[key] = None
        for x in S_SPLITS:
            m[f"decoding.decode.ms_per_set.s{x}"] = None
    else:
        m["decoding.decode.ms_per_set"] = _ratio(1e3 * c.total(c.decode), decodes)
        for x in S_SPLITS:
            picked = [i for i in c.decode if c.spans[i][NSETS] == 1 and c.spans[i][S] == x]
            m[f"decoding.decode.ms_per_set.s{x}"] = _ratio(1e3 * c.total(picked), len(picked))
        m["decoding.decode.share"] = c.total(c.decode) / run_s
        m["linalg.calls_per_decode"] = (
            _ratio(c.linalg_from_decoding, decodes) if c.has("linalg.") else None
        )
    m["decoding.reconstruct.ms_per_call"] = c.mean_ms(c.named("decoding.reconstruct"), "decoding.reconstruct")
    if c.has("bounds."):
        per_set = c.per_set_bounds
        m["bounds.per_set.ms_per_call"] = _ratio(1e3 * c.total(per_set), len(per_set))
        m["bounds.per_set.attempted"] = c.bound_attempted
        m["bounds.per_set.returned"] = c.bound_returned
        m["bounds.per_set.skipped_singular"] = c.bound_singular
        m["bounds.per_set.useful_frac"] = _ratio(c.bound_returned, c.bound_attempted)
        m["bounds.share"] = c.total(c.outer("bounds")) / run_s
    else:
        for key in ("ms_per_call", "attempted", "returned", "skipped_singular", "useful_frac"):
            m[f"bounds.per_set.{key}"] = None
        m["bounds.share"] = None
    m["linalg.rank_of.calls"] = c.count("linalg.rank_of")
    m["linalg.share"] = c.total(c.outer("linalg")) / run_s if c.has("linalg.") else None
    if c.has("encoders."):
        m["encoders.calls"] = len(c.encodings)
        m["encoders.ms_per_encoding"] = _ratio(1e3 * c.total(c.encodings), len(c.encodings))
        m["encoders.share"] = c.total(c.encodings) / run_s
    else:
        m["encoders.calls"] = m["encoders.ms_per_encoding"] = m["encoders.share"] = None
    sample = "experiments.sample_straggler_set"
    m["experiments.sample_sets.ms_per_set"] = c.mean_ms(c.named(sample), sample)
    m["experiments.sample_sets.share"] = c.total(c.named(sample)) / run_s if c.has(sample) else None
    train = "experiments.simulate_training"
    m["experiments.train.self_ms_per_iter"] = (
        _ratio(1e3 * sum(c.layer_self[i] for i in c.named(train)), iterations) if c.has(train) else None
    )
    m["designs.build_ms"] = 1e3 * c.total(c.outer("designs")) if c.has("designs.") else None
    m["cli.self_s"] = sum(c.layer_self[i] for i in c.named("cli.main")) if c.has("cli.main") else None
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Spans:
    """Indexes over one repetition's spans."""

    def __init__(self, doc: dict) -> None:
        self.spans = spans = doc["spans"]
        self.wrapped = set(doc["wrapped"])
        self.layer = [r[NAME].split(".", 1)[0] for r in spans]
        n = len(spans)
        covered = [0.0] * n
        for r in spans:
            if r[PARENT] >= 0:
                covered[r[PARENT]] += r[END] - r[START]
        # For a span entered from another layer, layer_self is its time and
        # that of the same-layer spans nested under it, minus the time in
        # spans of other layers beneath them.
        root = list(range(n))
        self.layer_self = [0.0] * n
        for i, r in enumerate(spans):
            p = r[PARENT]
            if p >= 0 and self.layer[p] == self.layer[i]:
                root[i] = root[p]
            self.layer_self[root[i]] += (r[END] - r[START]) - covered[i]

        def is_decode(i: int) -> bool:
            return i >= 0 and spans[i][NAME].startswith("decoding.decode")

        self.decode = [i for i, r in enumerate(spans) if is_decode(i) and not is_decode(r[PARENT])]
        self.decodes = (
            sum(spans[i][NSETS] for i in self.decode)
            if doc["set_type_found"] and self.has("decoding.decode")
            else None
        )
        self.linalg_from_decoding = sum(
            1
            for i, r in enumerate(spans)
            if self.layer[i] == "linalg" and r[PARENT] >= 0 and self.layer[r[PARENT]] == "decoding"
        )
        self.encodings = self.outer("encoders")
        self.per_set_bounds = [i for i in self.outer("bounds") if spans[i][NSETS] > 0]
        if self.has("bounds.") and doc["set_type_found"]:
            self.bound_attempted = sum(spans[i][NSETS] for i in self.per_set_bounds)
            self.bound_singular = sum(
                1 for i in self.per_set_bounds if spans[i][ERROR] == "SingularMatrixError"
            )
            self.bound_returned = sum(1 for i in self.per_set_bounds if spans[i][ERROR] is None)
        else:
            self.bound_attempted = self.bound_singular = self.bound_returned = None

    def has(self, prefix: str) -> bool:
        return any(name.startswith(prefix) for name in self.wrapped)

    def named(self, name: str) -> list[int]:
        return [i for i, r in enumerate(self.spans) if r[NAME] == name]

    def count(self, name: str) -> int | None:
        return len(self.named(name)) if name in self.wrapped else None

    def outer(self, layer: str) -> list[int]:
        """Spans of `layer` entered from another layer."""
        return [
            i
            for i, r in enumerate(self.spans)
            if self.layer[i] == layer and (r[PARENT] < 0 or self.layer[r[PARENT]] != layer)
        ]

    def total(self, idx: list[int]) -> float:
        return sum(self.spans[i][END] - self.spans[i][START] for i in idx)

    def mean_ms(self, idx: list[int], name: str) -> float | None:
        return _ratio(1e3 * self.total(idx), len(idx)) if name in self.wrapped else None
