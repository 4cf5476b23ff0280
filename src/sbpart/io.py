"""File formats: edge/partition TSVs, JSON reports, and run manifests.

On disk node and block ids are 1-based (the common benchmark-data convention);
in memory everything is 0-based. Edge lines are
`source<TAB>target<TAB>weight`; a missing weight column means weight 1.
Lines starting with `#` are ignored.
"""
from __future__ import annotations

import json
import sys
import time

FORMAT_VERSION = "1"


class DataError(ValueError):
    """Malformed input data (CLI exit code 2)."""


def _int_rows(path, widths):
    """(line number, integer fields) per data line of a TSV file.

    Blank lines and `#` comments are skipped; fields split on tabs, or on
    any whitespace when a line has no tab. A line whose column count is not
    in `widths`, or that has a non-integer field, raises a DataError that
    names path:line.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) == 1:
                parts = line.split()
            if len(parts) not in widths:
                raise DataError(f"{path}:{lineno}: expected "
                                f"{' or '.join(map(str, widths))} columns, "
                                f"got {len(parts)}")
            try:
                fields = [int(p) for p in parts]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-integer field ({exc})")
            yield lineno, fields


def read_edge_tsv(path):
    edges = []
    for lineno, (s, t, *w) in _int_rows(path, (2, 3)):
        w = w[0] if w else 1
        if s < 1 or t < 1:
            raise DataError(f"{path}:{lineno}: node ids are 1-based")
        if w < 1:
            raise DataError(f"{path}:{lineno}: weight must be >= 1")
        edges.append((s - 1, t - 1, w))
    return edges


def write_edge_tsv(path, edges):
    with open(path, "w") as fh:
        for s, t, w in edges:
            fh.write(f"{s + 1}\t{t + 1}\t{w}\n")


def read_assignment_tsv(path, num_nodes=None):
    """node<TAB>block file, a line per node, into a 0-based assignment list.

    The list covers nodes 1..num_nodes, or without num_nodes 1..the highest
    id listed, and each of them must be listed; a node above num_nodes is a
    DataError.
    """
    pairs = {}
    for lineno, (node, block) in _int_rows(path, (2,)):
        if node < 1 or block < 1:
            raise DataError(f"{path}:{lineno}: ids are 1-based")
        if num_nodes is not None and node > num_nodes:
            raise DataError(f"{path}:{lineno}: node id {node} out of range "
                            f"for {num_nodes} nodes")
        if node - 1 in pairs:
            raise DataError(f"{path}:{lineno}: node {node} listed twice")
        pairs[node - 1] = block - 1
    if not pairs:
        raise DataError(f"{path}: empty assignment file")
    n = num_nodes if num_nodes is not None else max(pairs) + 1
    out = []
    for i in range(n):
        if i not in pairs:
            raise DataError(f"{path}: missing assignment for node {i + 1}")
        out.append(pairs[i])
    return out


def write_assignment_tsv(path, assignment):
    with open(path, "w") as fh:
        for i, b in enumerate(assignment):
            fh.write(f"{i + 1}\t{int(b) + 1}\n")


def read_mask_tsv(path, num_nodes):
    """node<TAB>flag file (flag 0/1) into a boolean list."""
    mask = [False] * num_nodes
    seen = set()
    for lineno, (node, flag) in _int_rows(path, (2,)):
        if not 1 <= node <= num_nodes:
            raise DataError(f"{path}:{lineno}: node id out of range")
        if node in seen:
            raise DataError(f"{path}:{lineno}: node {node} listed twice")
        if flag not in (0, 1):
            raise DataError(f"{path}:{lineno}: flag must be 0 or 1, "
                            f"got {flag}")
        seen.add(node)
        mask[node - 1] = bool(flag)
    return mask


def json_text(payload):
    """The text of every JSON file and stdout report: sorted keys, indent 2."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path, payload):
    with open(path, "w") as fh:
        fh.write(json_text(payload))


def write_manifest(path, command, args_dict, inputs, outputs):
    from . import __version__
    manifest = {
        "format_version": FORMAT_VERSION,
        "tool": "sbpart",
        "tool_version": __version__,
        "command": command,
        "config": args_dict,
        "inputs": inputs,
        "outputs": outputs,
        "argv": sys.argv[1:],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    write_json(path, manifest)
    return manifest
