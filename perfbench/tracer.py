"""Outside-in span tracer for sbpart's layer functions.

`Tracer.install` replaces a function with a timing wrapper in every sbpart
module that holds it by name (for example `recompute_block_matrix` lives in
`sbpart.graph` but is also bound in `sbpart.engine`), and `Tracer.remove`
puts the originals back. Spans stay in memory: [label, start, end, parent].
A span's self time is its length minus the length of its direct children.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np


def _accept_ratio(tracer, args, kwargs, result, before):
    graph = args[0]
    tracer.counts["engine.mcmc_sweep.accepted"] += result[3]
    tracer.counts["engine.mcmc_sweep.nodes"] += int(
        np.count_nonzero(graph.degree))


def _start_blocks(args, kwargs):
    return len(np.unique(args[1].assignment))


def _blocks_merged(tracer, args, kwargs, result, start_B):
    target_B = args[3] if len(args) > 3 else kwargs["target_B"]
    tracer.counts["engine.merge_blocks.blocks_merged"] += start_B - target_B


# (module, function, hook run before the call, hook run after it). These are
# the layer boundaries; hot inner helpers (move_delta, merge_delta_S) are left
# unwrapped so that per-call overhead stays small, and their time shows as
# self time of their callers.
LAYERS = [
    ("graph", "build_graph", None, None),
    ("graph", "recompute_block_matrix", None, None),
    ("engine", "description_length", None, None),
    ("engine", "mcmc_sweep", None, _accept_ratio),
    ("engine", "run_mcmc", None, None),
    ("engine", "merge_blocks", _start_blocks, _blocks_merged),
    ("engine", "golden_section_search", None, None),
    ("engine", "warm_start", None, None),
    ("engine", "split_partition", None, None),
    ("streaming", "ingest_stage", None, None),
    ("streaming", "partition_stage", None, None),
    ("metrics", "correctness_report", None, None),
    ("generator", "generate", None, None),
    ("generator", "emit_streaming_stages", None, None),
]


class Tracer:
    def __init__(self, package="sbpart", layers=LAYERS):
        self.package = package
        self.layers = layers
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []

    def _wrapper(self, label, fn, before, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else None
            span = [label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result, pre)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package or
                                         name.startswith(self.package + "."))]
        for mod_name, fn_name, before, after in self.layers:
            owner = sys.modules[f"{self.package}.{mod_name}"]
            original = getattr(owner, fn_name)
            wrapper = self._wrapper(f"{mod_name}.{fn_name}", original,
                                    before, after)
            for m in modules:
                if m.__dict__.get(fn_name) is original:
                    self._patches.append((m, fn_name, original))
                    setattr(m, fn_name, wrapper)
        return self

    def remove(self):
        for m, fn_name, original in reversed(self._patches):
            setattr(m, fn_name, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False

    def self_times(self):
        """label -> (total self seconds, number of calls)."""
        child = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for k, (label, start, end, parent) in enumerate(self.spans):
            out[label][0] += (end - start) - child[k]
            out[label][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def root_seconds(self):
        """Total length of the spans that have no traced parent."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)
