"""Stage-by-stage ingestion of streamed edge batches with warm-started
partitioning and per-stage reporting."""
from __future__ import annotations

import time

import numpy as np

from .engine import (MCMCConfig, golden_section_search, split_partition,
                     warm_start)
from .graph import build_graph, edge_rows
from .metrics import computational_report, correctness_report


class StreamingSession:
    """Accumulates edge batches and repartitions after each stage.

    Node ids follow the same convention as the offline reader: the node set
    is 0..max-seen-id, with id gaps kept as isolated nodes. A one-stage
    stream therefore reproduces the non-streaming pipeline exactly. Truth
    and the generated-node mask, if given, are indexed by node id and must
    cover every node the stream reaches; each stage is scored on the
    generated nodes present, once there are at least two.
    """

    def __init__(self, config=None, truth=None, generated_mask=None,
                 cold_each_stage=False):
        self.config = config if config is not None else MCMCConfig()
        self.truth = None if truth is None else np.asarray(
            truth.assignment if hasattr(truth, "assignment") else truth,
            dtype=np.int64)
        self.generated_mask = None if generated_mask is None else \
            np.asarray(generated_mask, dtype=bool)
        self.cold_each_stage = cold_each_stage
        self.graph = None
        self.partition = None
        self.stage_index = 0
        self.reports = []
        self.last_H = None
        self.last_B = None

    @property
    def num_nodes(self):
        return 0 if self.graph is None else self.graph.num_nodes


def ingest_stage(session, batch, stage=None):
    """Merge one stage's edge batch into the accumulated graph."""
    if stage is not None and stage != session.stage_index + 1:
        raise ValueError(f"out-of-order stage {stage}; expected "
                         f"{session.stage_index + 1}")
    rows = edge_rows(batch)
    if session.graph is not None:
        rows = np.vstack((np.column_stack(session.graph.edge_arrays), rows))
    graph = build_graph(rows)
    for name, labels in (("truth", session.truth),
                         ("generated mask", session.generated_mask)):
        if labels is not None and len(labels) < graph.num_nodes:
            raise ValueError(f"{name} covers {len(labels)} nodes, but stage "
                             f"{session.stage_index + 1} of the stream has "
                             f"{graph.num_nodes}")
    session.graph = graph
    session.stage_index += 1
    return session


def partition_stage(session):
    """Partition the accumulated graph, warm-starting from the previous stage.

    Stage 1 (and every stage when cold_each_stage is set) runs the search
    cold from one block per node. Later stages carry the previous partition
    over (B blocks), split it to 2 * B blocks for headroom, since merges only
    lower B (`split_partition`, the search's climb rule), and restart the
    search from there. The stage report's "search" entry summarizes the
    search's probe trace.
    """
    if session.stage_index == 0:
        raise ValueError("no stage ingested yet")
    config = session.config
    graph = session.graph
    t0 = time.perf_counter()
    warm = session.partition is not None and not session.cold_each_stage
    trace = []
    if warm and graph.total_edge_weight == session.reports[-1]["num_edges"]:
        # stage added no edges (so no nodes): the previous partition applies
        partition, best_B, best_H = (session.partition, session.last_B,
                                     session.last_H)
    else:
        initial = None
        if warm:
            split_rng = np.random.default_rng(
                [config.rng_seed, 0x5EED, session.stage_index])
            carried = warm_start(session.partition, graph)
            initial = split_partition(graph, carried, 2 * carried.num_blocks,
                                      split_rng)
        partition, best_B, best_H = golden_section_search(
            graph, config, initial_partition=initial, trace=trace)
    elapsed = time.perf_counter() - t0
    session.partition = partition
    session.last_H = best_H
    session.last_B = best_B

    report = {
        "stage": session.stage_index,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.total_edge_weight,
        "num_blocks": best_B,
        "description_length": best_H,
        "computational": computational_report(
            graph.total_edge_weight, elapsed,
            num_workers=config.workers).to_dict(),
        "search": {"warm": warm, "probes": len(trace),
                   "sweeps": sum(e["sweeps"] for e in trace),
                   "max_probe_B": max((e["target"] for e in trace),
                                      default=None)},
    }
    if session.truth is not None:
        n = graph.num_nodes
        mask = None if session.generated_mask is None \
            else session.generated_mask[:n]
        # pairwise metrics need two nodes: a stage that selects fewer is
        # not scored
        if (n if mask is None else np.count_nonzero(mask)) >= 2:
            report["correctness"] = correctness_report(
                session.truth[:n], partition.assignment, mask).to_dict()
    session.reports.append(report)
    return session


def run_stream(batches, config=None, truth=None, generated_mask=None,
               cold_each_stage=False):
    """Ingest and partition every stage in order; returns the session."""
    session = StreamingSession(config=config, truth=truth,
                               generated_mask=generated_mask,
                               cold_each_stage=cold_each_stage)
    for k, batch in enumerate(batches, start=1):
        ingest_stage(session, batch, stage=k)
        partition_stage(session)
    return session
