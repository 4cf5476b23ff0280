"""Streaming stochastic block partition: DC-SBM generation with planted
truth, MCMC + greedy-merge inference over a description-length objective,
correctness/throughput metrics, and staged streaming sessions."""

__version__ = "0.1.0"

from .graph import Graph, Partition, BlockModelState, build_graph
from .engine import (MCMCConfig, description_length,
                     golden_section_search, run_mcmc, mcmc_sweep,
                     merge_blocks, warm_start, split_partition)
from .generator import GeneratorConfig, GeneratedGraph, generate, \
    emit_streaming_stages, embed_in_real_graph
from .metrics import (build_contingency, correctness_report,
                      computational_report)
from .streaming import StreamingSession, ingest_stage, partition_stage, \
    run_stream

__all__ = [
    "__version__",
    "Graph", "Partition", "BlockModelState", "build_graph",
    "MCMCConfig", "description_length",
    "golden_section_search", "run_mcmc", "mcmc_sweep", "merge_blocks",
    "warm_start", "split_partition",
    "GeneratorConfig", "GeneratedGraph", "generate",
    "emit_streaming_stages", "embed_in_real_graph",
    "build_contingency", "correctness_report", "computational_report",
    "StreamingSession", "ingest_stage", "partition_stage", "run_stream",
]
