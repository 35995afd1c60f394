"""Per-layer tracing from outside the program.

:class:`Tracer` replaces the public functions and methods of each layer
with thin timing wrappers (and puts the originals back on
:meth:`Tracer.uninstall`).  Nothing inside the program changes: the spans
sit at the calls *into* each layer, so a layer's self time is its wrapped
calls' duration minus the time of wrapped calls they made in turn.

Where a caller imported a layer function by name (``from x import f``),
the caller's binding is wrapped too — otherwise those calls would escape
the trace.  :data:`LAYER_BINDINGS` lists every binding.

Accounting is a stack of child-time accumulators: each wrapped call pushes
one, and on return adds ``elapsed - children`` to its layer and
``elapsed`` to its parent's accumulator.  The request itself is the root
frame: whatever it does outside every layer is time no layer claimed.
Coarse spans (everything except the per-literal theory calls) are kept in
memory with their parent and request id and written out at the end of a
traced run.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: (module, owner attribute or None for a module function, attribute, layer).
#: Order does not matter; each binding is wrapped once.
LAYER_BINDINGS: List[Tuple[str, Optional[str], str, str]] = [
    # program: recording runs and the static fallback trace.
    ("repro.program.interpreter", None, "run_program", "program.record"),
    ("repro.program.statictrace", None, "static_trace", "program.record"),
    ("repro.verification.session", None, "run_program", "program.record"),
    ("repro.verification.session", None, "static_trace", "program.record"),
    ("repro.service.pool", None, "run_program", "program.record"),
    ("repro.service.pool", None, "static_trace", "program.record"),
    # trace: canonical fingerprints (pool keys and cache keys).
    ("repro.trace.fingerprint", None, "trace_fingerprint", "trace.fingerprint"),
    ("repro.service.pool", None, "trace_fingerprint", "trace.fingerprint"),
    ("repro.verification.cache", None, "trace_fingerprint", "trace.fingerprint"),
    # matching and encoding.
    ("repro.encoding.encoder", "TraceEncoder", "generate_match_pairs", "matching.pairs"),
    ("repro.encoding.encoder", "TraceEncoder", "encode", "encoding.encode"),
    ("repro.encoding.witness", None, "decode_witness", "witness.decode"),
    ("repro.verification.session", None, "decode_witness", "witness.decode"),
    # smt: backend load (term -> CNF, atom registration), search, theories.
    ("repro.smt.backend", "DpllTBackend", "add_all", "smt.load"),
    ("repro.smt.backend", "DpllTBackend", "add", "smt.load"),
    ("repro.verification.session", None, "create_backend", "smt.load"),
    ("repro.smt.backend", "DpllTBackend", "check", "smt.check"),
    ("repro.smt.backend", "DpllTBackend", "model", "smt.check"),
    ("repro.smt.backend", "DpllTBackend", "push", "smt.check"),
    ("repro.smt.backend", "DpllTBackend", "pop", "smt.check"),
    ("repro.smt.theory.idl", "IncrementalDifferenceLogic", "assert_lit", "smt.idl"),
    ("repro.smt.theory.idl", "IncrementalDifferenceLogic", "retract_to", "smt.idl"),
    ("repro.smt.theory.idl", "IncrementalDifferenceLogic", "register_atom", "smt.idl"),
    ("repro.smt.theory.idl", "IncrementalDifferenceLogic", "take_propagations", "smt.idl"),
    ("repro.smt.theory.idl", "IncrementalDifferenceLogic", "explain_entailed", "smt.idl"),
    ("repro.smt.theory.idl", "IncrementalDifferenceLogic", "explain", "smt.idl"),
    ("repro.smt.theory.idl", "IncrementalDifferenceLogic", "model", "smt.idl"),
    ("repro.smt.theory.euf", "IncrementalCongruenceClosure", "register_atom", "smt.euf"),
    ("repro.smt.theory.euf", "IncrementalCongruenceClosure", "assert_lit", "smt.euf"),
    ("repro.smt.theory.euf", "IncrementalCongruenceClosure", "retract_to", "smt.euf"),
    ("repro.smt.theory.euf", "IncrementalCongruenceClosure", "entailed", "smt.euf"),
    ("repro.smt.theory.euf", "IncrementalCongruenceClosure", "explain", "smt.euf"),
    ("repro.smt.theory.euf", "IncrementalCongruenceClosure", "model", "smt.euf"),
    ("repro.smt.theory.lia", "IncrementalLinearInt", "assert_lit", "smt.lia"),
    ("repro.smt.theory.lia", "IncrementalLinearInt", "retract_to", "smt.lia"),
    ("repro.smt.theory.lia", "IncrementalLinearInt", "final_check", "smt.lia"),
    ("repro.smt.theory.lia", "IncrementalLinearInt", "model", "smt.lia"),
    ("repro.smt.theory.lia", "IncrementalLinearInt", "explain", "smt.lia"),
    # verification.cache.
    ("repro.verification.cache", None, "make_cache_key", "cache.lookup"),
    ("repro.service.pool", None, "make_cache_key", "cache.lookup"),
    ("repro.verification.cache", "ResultCache", "lookup", "cache.lookup"),
    ("repro.verification.cache", "ResultCache", "store", "cache.store"),
    # service: protocol framing/payloads, and dispatch through the pool.
    ("repro.service.protocol", None, "encode_frame", "service.protocol"),
    ("repro.service.protocol", None, "decode_frame", "service.protocol"),
    ("repro.service.protocol", None, "validate_request", "service.protocol"),
    ("repro.service.protocol", None, "make_request", "service.protocol"),
    ("repro.service.protocol", None, "make_response", "service.protocol"),
    ("repro.service.protocol", None, "result_to_payload", "service.protocol"),
    ("repro.service.protocol", None, "payload_to_result", "service.protocol"),
    ("repro.service.pool", None, "result_to_payload", "service.protocol"),
    ("repro.service.server", "VerificationService", "handle_json", "service.dispatch"),
    ("repro.service.pool", "WorkerPool", "submit", "service.dispatch"),
    ("repro.service.pool", "SessionPool", "get", "service.dispatch"),
    ("repro.service.pool", "SessionPool", "put", "service.dispatch"),
    ("repro.service.pool", None, "build_program", "service.dispatch"),
    # session: the public query API; its self time is the glue between layers.
    ("repro.verification.session", None, "resolve_mode", "session.glue"),
    ("repro.service.pool", None, "resolve_mode", "session.glue"),
    ("repro.verification.session", "VerificationSession", "__init__", "session.glue"),
    ("repro.verification.session", "VerificationSession", "from_program", "session.glue"),
    ("repro.verification.session", "VerificationSession", "verdict", "session.glue"),
    ("repro.verification.session", "VerificationSession", "deadlocks", "session.glue"),
    ("repro.verification.session", "VerificationSession", "orphans", "session.glue"),
    ("repro.verification.session", "VerificationSession", "enumerate_pairings", "session.glue"),
]

#: Layers whose calls are per literal: timed, but not kept as spans.
HOT_LAYERS = frozenset({"smt.idl", "smt.euf", "smt.lia"})

#: Layers timed per request; ``request`` is the root (unclaimed time).
LAYERS = (
    "program.record",
    "trace.fingerprint",
    "matching.pairs",
    "encoding.encode",
    "witness.decode",
    "smt.load",
    "smt.check",
    "smt.idl",
    "smt.euf",
    "smt.lia",
    "cache.lookup",
    "cache.store",
    "service.protocol",
    "service.dispatch",
    "session.glue",
)


class Tracer:
    """Wraps layer bindings and accumulates per-layer self time and counts."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.inclusive_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.gauges: Dict[str, int] = defaultdict(int)
        #: Time spent in the wrappers themselves (not any layer's).
        self.overhead_ns = 0
        self.requests: List[Dict[str, object]] = []
        self.spans: List[Tuple[int, int, Optional[int], str, int, int]] = []
        self._stack: List[List[int]] = []  # [child_ns, span_index]
        self._depth: Dict[str, int] = defaultdict(int)
        self._request_id = 0
        self._request_layers: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self._hooks: Dict[str, Callable[[object, tuple], None]] = {
            "matching.pairs": self._count_candidates,
            "encoding.encode": self._count_assertions,
        }

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        for module_name, owner_name, attr, layer in LAYER_BINDINGS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            raw = owner.__dict__[attr] if owner_name is not None else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, layer, attr))
            else:
                wrapped = self._wrap(raw, layer, attr)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _wrap(self, function, layer: str, attr: str):
        stack = self._stack
        depth = self._depth
        self_ns = self.self_ns
        inclusive_ns = self.inclusive_ns
        calls = self.calls
        spans = self.spans
        keep_span = layer not in HOT_LAYERS
        hook = self._check_stats if attr == "check" else self._hooks.get(layer)
        tracer = self

        def traced(*args, **kwargs):
            entered = perf_counter_ns()
            span_index = -1
            if keep_span:
                span_index = len(spans)
                parent = stack[-1][1] if stack else None
                spans.append((tracer._request_id, span_index, parent, layer, 0, 0))
            frame = [0, span_index]
            stack.append(frame)
            depth[layer] += 1
            start = perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                depth[layer] -= 1
                elapsed = end - start
                self_ns[layer] += elapsed - frame[0]
                if not depth[layer]:
                    inclusive_ns[layer] += elapsed
                calls[layer] += 1
                if keep_span:
                    spans[span_index] = spans[span_index][:4] + (start, end)
            if hook is not None:
                hook(result, args)
            # The wrapper's own work (bookkeeping and hooks) belongs to no
            # layer: it is charged to the tracer, not to the caller.
            left = perf_counter_ns()
            tracer.overhead_ns += (left - entered) - elapsed
            if stack:
                stack[-1][0] += left - entered
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", attr)
        traced.__doc__ = getattr(function, "__doc__", None)
        return traced

    # -- result hooks ------------------------------------------------------------

    def _count_candidates(self, match_pairs, args) -> None:
        self.counts["matching.candidates"] += match_pairs.pair_count()

    def _count_assertions(self, problem, args) -> None:
        self.counts["encoding.assertions"] += len(problem.assertions())

    def _check_stats(self, outcome, args) -> None:
        stats = args[0].statistics()
        self.counts["smt.checks"] += 1
        for key in ("sat_conflicts", "sat_decisions", "theory_conflicts", "theory_propagations"):
            self.counts[f"smt.{key}"] += int(stats.get(key, 0))
        for key in ("max_live_learned", "arena_bytes"):
            self.gauges[f"smt.{key}"] = max(self.gauges[f"smt.{key}"], int(stats.get(key, 0)))

    # -- requests ----------------------------------------------------------------

    def request(self, name: str):
        return _Request(self, name)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for request_id, span_id, parent, layer, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "request": request_id,
                            "span": span_id,
                            "parent": parent,
                            "name": layer,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )


class _Request:
    """Root frame of one request: wall time, and per-layer self time of it."""

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        tracer._request_id += 1
        self.before = dict(tracer.self_ns)
        self.lia_calls = tracer.calls["smt.lia"]
        self.overhead_before = tracer.overhead_ns
        self.span_index = len(tracer.spans)
        tracer.spans.append((tracer._request_id, self.span_index, None, "request", 0, 0))
        self.frame = [0, self.span_index]
        tracer._stack.append(self.frame)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter_ns()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans[self.span_index] = tracer.spans[self.span_index][:4] + (self.start, end)
        wall = end - self.start
        overhead = tracer.overhead_ns - self.overhead_before
        layers = {
            layer: tracer.self_ns.get(layer, 0) - self.before.get(layer, 0)
            for layer in LAYERS
        }
        tracer.requests.append(
            {
                "name": self.name,
                # Wrapper overhead belongs to no layer and to no request.
                "wall_ns": wall - overhead,
                "layers": layers,
                "lia": tracer.calls["smt.lia"] > self.lia_calls,
            }
        )
