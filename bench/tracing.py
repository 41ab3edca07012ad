"""Per-layer spans around svsim's public functions, installed from outside.

The package is not edited.  ``Tracer`` rebinds each traced function to a
wrapper that records a span (name, parent span, start, end) and a few
counts taken from the call's arguments and result.  A module-level function
is rebound in every ``svsim`` module that holds it, because the engine
imports kernels, ``measure_all``, ``plan_exchange`` and ``plan_passes`` by
name; a method is rebound on its class.  Leaving the ``with`` block puts
every original binding back, so runs after it are untraced.

A span's self time is its duration minus the part of it that its child
spans cover.  All spans come from one thread, so children never overlap;
the union is still taken, so the arithmetic holds without that assumption.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (module, function or Class.method) pairs that are traced: the public
# functions a run calls, apart from ledger counters and one-off constructors.
# The span name is the module's last part and the function name, e.g.
# "codec.propose".
TRACED = (
    ("svsim.engine", "run_circuit"),
    ("svsim.kernels", "pair_indices"),
    ("svsim.kernels", "apply_single"),
    ("svsim.kernels", "apply_two"),
    ("svsim.kernels", "apply_diagonal"),
    ("svsim.kernels", "apply_pair_arrays"),
    ("svsim.kernels", "apply_quad_arrays"),
    ("svsim.state", "LocalState.working"),
    ("svsim.state", "LocalState.store"),
    ("svsim.codec", "canonicalize"),
    ("svsim.codec", "Codebook.propose"),
    ("svsim.codec", "Codebook.merge"),
    ("svsim.codec", "Codebook.encode"),
    ("svsim.codec", "Codebook.decode"),
    ("svsim.transport", "Transport.send"),
    ("svsim.transport", "Transport.recv"),
    ("svsim.transport", "Transport.collective"),
    ("svsim.layout", "plan_exchange"),
    ("svsim.measure", "measure_all"),
    ("svsim.tier", "plan_passes"),
    ("svsim.tier", "TierAccount.account"),
)

KERNELS = ("apply_single", "apply_two", "apply_diagonal", "apply_pair_arrays",
           "apply_quad_arrays")

_MARK = "_bench_traced"


def _nbytes(payload) -> int:
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    return sum(part.nbytes for part in payload)


def _complex_out(arrays) -> int:
    """Bytes a kernel writes when it returns one complex128 buffer per input."""
    return sum(a.size for a in arrays) * 16


# Counts taken from a call: name -> f(args, result) -> {count: value}.
# Arguments are read by position, which is how svsim calls all of these.
COUNTS = {
    "kernels.apply_single": lambda a, r: {"bytes": 2 * a[0].nbytes},
    "kernels.apply_two": lambda a, r: {"bytes": 2 * a[0].nbytes},
    "kernels.apply_diagonal": lambda a, r: {"bytes": 2 * a[0].nbytes},
    "kernels.apply_pair_arrays":
        lambda a, r: {"bytes": a[0].nbytes + a[1].nbytes + _complex_out(a[:2])},
    "kernels.apply_quad_arrays":
        lambda a, r: {"bytes": sum(c.nbytes for c in a[0]) + _complex_out(a[0])},
    "state.working": lambda a, r: {"bytes": r.nbytes},
    "codec.canonicalize": lambda a, r: {"elems": np.size(a[0])},
    "codec.encode": lambda a, r: {"elems": np.size(a[1])},
    "codec.decode": lambda a, r: {"elems": np.size(a[1])},
    "transport.send": lambda a, r: {"charged": a[4], "payload": _nbytes(a[3])},
    "layout.plan_exchange":
        lambda a, r: {"predicted": r.bytes_per_rank * a[0].rank_count, r.kind: 1},
    "tier.plan_passes": lambda a, r: {"groups": len(r.groups)},
}


@dataclass
class Span:
    name: str
    parent: int  # index into the span list, -1 for a root
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


class Tracer:
    """Records spans while installed; use as ``with Tracer() as tracer:``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        counts = COUNTS.get(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, 0.0)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counts is not None:
                span.counts = counts(args, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        for module_name, qualname in TRACED:
            module = importlib.import_module(module_name)
            name = f"{module_name.rsplit('.', 1)[-1]}.{qualname.rsplit('.', 1)[-1]}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._rebind([(owner, attr)], original, self.wrap(name, original))
            else:
                original = getattr(module, qualname)
                holders = [(mod, attr) for mod in _svsim_modules()
                           for attr, value in vars(mod).items() if value is original]
                self._rebind(holders, original, self.wrap(name, original))

    def _rebind(self, holders, original, wrapper) -> None:
        for owner, attr in holders:
            self._bindings.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _svsim_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "svsim" or name.startswith("svsim."))]


def leftover_wrappers() -> list[str]:
    """Names of svsim bindings that still hold a tracing wrapper."""
    found = []
    for mod in _svsim_modules():
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, type) and value.__module__.startswith("svsim"):
                found += [f"{mod.__name__}.{attr}.{m}" for m, v in vars(value).items()
                          if getattr(v, _MARK, False)]
    return found


# -- per-layer metrics ---------------------------------------------------------

def layer_metrics(spans: list[Span], result) -> dict[str, float]:
    """Per-layer metrics of one traced run from its spans and its result."""
    own = self_times(spans)
    m: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0) + value

    for index, (span, self_s) in enumerate(zip(spans, own)):
        add(f"{span.name}.self_s", self_s)
        add(f"{span.name}.calls", 1)
        for key, value in span.counts.items():
            add(f"{span.name}.{key}", value)
        if span.name == "transport.send" and has_ancestor(spans, index, "measure.measure_all"):
            add("measure.measure_all.sends", 1)

    kernel_self = sum(m.get(f"kernels.{k}.self_s", 0.0) for k in KERNELS)
    kernel_bytes = sum(m.get(f"kernels.{k}.bytes", 0) for k in KERNELS)
    charged = m.get("transport.send.charged", 0)
    payload = m.get("transport.send.payload", 0)
    canon = m.get("codec.canonicalize.elems", 0)
    encoded = m.get("codec.encode.elems", 0)
    book = result.codebook
    accounts = result.tier_accounts or []
    out = {
        "engine.run_circuit.self_s": m.get("engine.run_circuit.self_s", 0.0),
        "kernels.bytes": kernel_bytes,
        "kernels.gbps": kernel_bytes / kernel_self / 1e9 if kernel_self else 0.0,
        "kernels.pair_indices.self_s": m.get("kernels.pair_indices.self_s", 0.0),
        "state.working.self_s": m.get("state.working.self_s", 0.0),
        "state.working.bytes": m.get("state.working.bytes", 0),
        "state.store.self_s": m.get("state.store.self_s", 0.0),
        "state.store.calls": m.get("state.store.calls", 0),
        "codec.canon_per_encoded": canon / encoded if encoded else 0.0,
        "codec.mag_entries": len(book.mags) if book is not None else 0,
        "codec.phase_entries": len(book.thetas) if book is not None else 0,
        "codec.overflow": (int(book.mag_overflow) + int(book.phase_overflow)
                           if book is not None else 0),
        "transport.send.self_s": m.get("transport.send.self_s", 0.0),
        "transport.send.calls": m.get("transport.send.calls", 0),
        "transport.charged_bytes": charged,
        "transport.payload_bytes": payload,
        "transport.charged_over_payload": charged / payload if payload else 0.0,
        "layout.plan_exchange.self_s": m.get("layout.plan_exchange.self_s", 0.0),
        "layout.predicted_bytes": m.get("layout.plan_exchange.predicted", 0),
        "layout.pairwise_gates": m.get("layout.plan_exchange.pairwise", 0),
        "layout.quad_gates": m.get("layout.plan_exchange.quad", 0),
        "measure.measure_all.self_s": m.get("measure.measure_all.self_s", 0.0),
        "measure.measure_all.sends": m.get("measure.measure_all.sends", 0),
        "tier.plan_passes.self_s": m.get("tier.plan_passes.self_s", 0.0),
        "tier.account.self_s": m.get("tier.account.self_s", 0.0),
        "tier.groups": m.get("tier.plan_passes.groups", 0),
        "tier.high_water_bytes": max((a.high_water_bytes for a in accounts), default=0),
    }
    for k in KERNELS:
        out[f"kernels.{k}.self_s"] = m.get(f"kernels.{k}.self_s", 0.0)
        out[f"kernels.{k}.calls"] = m.get(f"kernels.{k}.calls", 0)
    for f in ("canonicalize", "propose", "merge", "encode", "decode"):
        out[f"codec.{f}.self_s"] = m.get(f"codec.{f}.self_s", 0.0)
    for f in ("canonicalize", "encode", "decode"):
        out[f"codec.{f}.elems"] = m.get(f"codec.{f}.elems", 0)
    return out
