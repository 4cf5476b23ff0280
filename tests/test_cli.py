import filecmp
import itertools
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from sbpart import metrics, streaming
from sbpart.cli import _engine_config, build_parser, main
from sbpart.engine import MCMCConfig
from sbpart.generator import GeneratorConfig
from sbpart.graph import build_graph
from sbpart.io import read_assignment_tsv, read_edge_tsv

DATA = os.path.join(os.path.dirname(__file__), "data")
TABLE1_TRUTH = os.path.join(DATA, "table1_truth.tsv")
TABLE1_OUTPUT = os.path.join(DATA, "table1_output.tsv")


def write_two_cliques(path):
    edges = []
    for off in (0, 10):
        edges += [(i + off, j + off) for i in range(10) for j in range(10)
                  if i != j]
    with open(path, "w") as fh:
        for s, t in edges:
            fh.write(f"{s + 1}\t{t + 1}\t1\n")
    return edges


def test_generate_writes_files(tmp_path):
    out = str(tmp_path / "g1")
    rc = main(["generate", "-N", "60", "-B", "3", "--edges", "200",
               "--seed", "7", "-o", out])
    assert rc == 0
    edges = read_edge_tsv(f"{out}.tsv")
    assert edges
    truth = read_assignment_tsv(f"{out}_truth.tsv")
    assert len(truth) == 60
    manifest = json.load(open(f"{out}_manifest.json"))
    assert manifest["format_version"] == "1"
    assert manifest["command"] == "generate"


def test_generate_stage_union(tmp_path):
    out = str(tmp_path / "g1")
    rc = main(["generate", "-N", "60", "-B", "3", "--edges", "200",
               "--stages", "10", "--stream-mode", "snowball",
               "--seed", "7", "-o", out])
    assert rc == 0
    full = {}
    for s, t, w in read_edge_tsv(f"{out}.tsv"):
        full[(s, t)] = full.get((s, t), 0) + w
    union = {}
    for k in range(1, 11):
        for s, t, w in read_edge_tsv(f"{out}_stage_{k}.tsv"):
            union[(s, t)] = union.get((s, t), 0) + w
    assert union == full


def test_generate_bad_stage_count_writes_no_file(tmp_path, capsys):
    """A stage count above the edge count is a data error, and it is found
    before any file is written."""
    rc = main(["generate", "-N", "10", "-B", "2", "--edges", "20",
               "--stages", "500", "-o", str(tmp_path / "g")])
    assert rc == 2
    assert "num_stages=500 exceeds edge count" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_generate_rerun_byte_identical(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    args = ["generate", "-N", "50", "-B", "2", "--edges", "150",
            "--stages", "4", "--seed", "3"]
    assert main(args + ["-o", a]) == 0
    assert main(args + ["-o", b]) == 0
    assert filecmp.cmp(f"{a}.tsv", f"{b}.tsv", shallow=False)
    assert filecmp.cmp(f"{a}_truth.tsv", f"{b}_truth.tsv", shallow=False)
    for k in range(1, 5):
        assert filecmp.cmp(f"{a}_stage_{k}.tsv", f"{b}_stage_{k}.tsv",
                           shallow=False)


def test_partition_two_cliques(tmp_path):
    edge_file = str(tmp_path / "cliques.tsv")
    write_two_cliques(edge_file)
    out = str(tmp_path / "run")
    rc = main(["partition", edge_file, "-o", out, "--max-sweeps", "30"])
    assert rc == 0
    report = json.load(open(f"{out}_report.json"))
    assert report["num_blocks"] == 2
    assignment = read_assignment_tsv(f"{out}_partition.tsv")
    assert len(set(assignment[:10])) == 1
    assert len(set(assignment[10:])) == 1
    assert assignment[0] != assignment[10]
    assert report["computational"]["rate_edges_per_second"] > 0
    # the report is the one-stage stream's: a cold stage 1 of >= 1 probe
    assert report["stage"] == 1
    search = report["search"]
    assert search["warm"] is False
    assert search["probes"] >= 1
    assert search["sweeps"] >= search["probes"]
    assert search["max_probe_B"] >= report["num_blocks"]


def test_partition_round_trip_graph(tmp_path):
    out = str(tmp_path / "g1")
    main(["generate", "-N", "40", "-B", "2", "--edges", "120",
          "--seed", "1", "-o", out])
    edges = read_edge_tsv(f"{out}.tsv")
    g = build_graph(edges)
    # the written file reconstructs the generated graph exactly
    run = str(tmp_path / "run")
    rc = main(["partition", f"{out}.tsv", "-o", run,
               "--truth", f"{out}_truth.tsv", "--max-sweeps", "15"])
    assert rc == 0
    report = json.load(open(f"{run}_report.json"))
    assert report["num_edges"] == g.total_edge_weight
    assert report["num_nodes"] == g.num_nodes
    assert "correctness" in report


def test_partition_modes_agree(tmp_path):
    out = str(tmp_path / "g1")
    main(["generate", "-N", "60", "-B", "3", "--edges", "300",
          "--overlap", "0.05", "--seed", "2", "-o", out])
    reports = {}
    for mode in ("sequential", "batch"):
        run = str(tmp_path / mode)
        rc = main(["partition", f"{out}.tsv", "-o", run, "--mode", mode,
                   "--truth", f"{out}_truth.tsv", "--max-sweeps", "20"])
        assert rc == 0
        reports[mode] = json.load(open(f"{run}_report.json"))
    seq = reports["sequential"]["correctness"]
    bat = reports["batch"]["correctness"]
    assert abs(seq["pairwise_precision"] - bat["pairwise_precision"]) <= 0.05
    assert abs(seq["pairwise_recall"] - bat["pairwise_recall"]) <= 0.05


def test_evaluate_table1_fixture(tmp_path, capsys):
    rc = main(["evaluate", "--truth", TABLE1_TRUTH,
               "--partition", TABLE1_OUTPUT])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overall_accuracy"] == pytest.approx(50 / 56, abs=1e-4)
    assert report["pairwise_precision"] == pytest.approx(0.8999, abs=1e-3)
    assert report["pairwise_recall"] == pytest.approx(0.8148, abs=1e-3)
    assert report["info_precision"] == pytest.approx(0.57, abs=0.01)
    assert report["info_recall"] == pytest.approx(0.71, abs=0.01)


def test_evaluate_identical_files(tmp_path, capsys):
    rc = main(["evaluate", "--truth", TABLE1_TRUTH,
               "--partition", TABLE1_TRUTH])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overall_accuracy"] == 1.0
    assert report["pairwise_precision"] == 1.0
    assert report["pairwise_recall"] == 1.0
    assert report["info_precision"] == pytest.approx(1.0, abs=1e-12)


def test_evaluate_mask(tmp_path, capsys):
    mask_file = str(tmp_path / "mask.tsv")
    with open(mask_file, "w") as fh:
        for i in range(1, 57):
            fh.write(f"{i}\t{1 if i <= 32 else 0}\n")
    rc = main(["evaluate", "--truth", TABLE1_TRUTH,
               "--partition", TABLE1_OUTPUT, "--mask", mask_file])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["num_nodes_evaluated"] == 32


def test_evaluate_writes_report_file(tmp_path):
    out = str(tmp_path / "report.json")
    rc = main(["evaluate", "--truth", TABLE1_TRUTH,
               "--partition", TABLE1_OUTPUT, "-o", out])
    assert rc == 0
    report = json.load(open(out))
    assert report["pair_categories"]["same_same"] == 629
    assert os.path.exists(f"{out}.manifest.json")


def test_stream_single_stage_matches_partition(tmp_path):
    """`partition` is a one-stage `stream`: its report equals the stream's
    stage-1 report on every key, apart from the measured fields of
    `computational` (time, rate and the process's peak memory)."""
    out = str(tmp_path / "g1")
    main(["generate", "-N", "50", "-B", "2", "--edges", "200",
          "--stages", "1", "--seed", "5", "-o", out])
    # a 1-stage schedule emits <out>_stage_1.tsv only when stages > 1;
    # emulate it by copying the full edge file
    import shutil
    shutil.copy(f"{out}.tsv", f"{out}_stage_1.tsv")
    run = str(tmp_path / "cold")
    assert main(["partition", f"{out}.tsv", "-o", run, "--max-sweeps", "20",
                 "--truth", f"{out}_truth.tsv"]) == 0
    stream_out = str(tmp_path / "stream.json")
    rc = main(["stream", out, "--stages", "1", "-o", stream_out,
               "--truth", f"{out}_truth.tsv", "--max-sweeps", "20"])
    assert rc == 0
    cold = json.load(open(f"{run}_report.json"))
    streamed = json.load(open(stream_out))
    assert len(streamed["stages"]) == 1
    stage = streamed["stages"][0]
    measured = ("elapsed_seconds", "rate_edges_per_second",
                "peak_memory_bytes")
    for report in (cold, stage):
        for key in measured:
            del report["computational"][key]
    assert "correctness" in cold
    assert cold.keys() == stage.keys()
    for key in cold:
        assert cold[key] == stage[key], key
    assert streamed["total"]["final_description_length"] == \
        cold["description_length"]
    assert streamed["total"]["final_num_blocks"] == cold["num_blocks"]


def test_partition_mask_of_one_node_is_not_scored(tmp_path):
    """A mask that selects fewer than two nodes leaves the partition
    unscored, as a stream stage is: exit 0 and no `correctness` entry."""
    edge_file = str(tmp_path / "cliques.tsv")
    write_two_cliques(edge_file)
    truth = tmp_path / "truth.tsv"
    truth.write_text("".join(f"{i}\t{1 + (i > 10)}\n" for i in range(1, 21)))
    mask = tmp_path / "mask.tsv"
    mask.write_text("".join(f"{i}\t{int(i == 3)}\n" for i in range(1, 21)))
    out = str(tmp_path / "run")
    rc = main(["partition", edge_file, "-o", out, "--truth", str(truth),
               "--mask", str(mask), "--max-sweeps", "10"])
    assert rc == 0
    report = json.load(open(f"{out}_report.json"))
    assert "correctness" not in report
    assert report["num_blocks"] == 2


def test_partition_truth_follows_stream_rules(tmp_path, capsys):
    """`partition` reads --truth as `stream` does: a truth shorter than the
    graph, or one with a gap in its ids, even above the graph's last node,
    exits 2 before any file is written."""
    edge_file = str(tmp_path / "cliques.tsv")
    write_two_cliques(edge_file)
    short = tmp_path / "short.tsv"
    short.write_text("".join(f"{i}\t1\n" for i in range(1, 11)))
    gap = tmp_path / "gap.tsv"
    gap.write_text("".join(f"{i}\t1\n" for i in range(1, 21)) + "23\t1\n")
    for truth in (short, gap):
        rc = main(["partition", edge_file, "-o", str(tmp_path / "run"),
                   "--truth", str(truth)])
        assert rc == 2
    err = capsys.readouterr().err
    assert "truth covers 10 nodes, but stage 1 of the stream has 20" in err
    assert f"{gap}: missing assignment for node 21" in err
    assert not list(tmp_path.glob("run*"))


def test_stdout_is_the_output_file(tmp_path, capsys, monkeypatch):
    """`evaluate` and `stream` print exactly the bytes they write with -o.
    The stream's clock ticks once per reading and its peak memory reads 0,
    so that its two runs measure the same."""
    monkeypatch.setattr(streaming, "time",
                        SimpleNamespace(perf_counter=itertools.count().__next__))
    monkeypatch.setattr(metrics, "peak_memory_bytes", lambda: 0)
    out = str(tmp_path / "g1")
    main(["generate", "-N", "40", "-B", "2", "--edges", "120",
          "--stages", "2", "--seed", "4", "-o", out])
    capsys.readouterr()
    for argv in (["evaluate", "--truth", TABLE1_TRUTH,
                  "--partition", TABLE1_OUTPUT],
                 ["stream", out, "--stages", "2", "--truth",
                  f"{out}_truth.tsv", "--max-sweeps", "5"]):
        assert main(argv) == 0
        printed = capsys.readouterr().out
        path = str(tmp_path / f"{argv[0]}.json")
        assert main(argv + ["-o", path]) == 0
        assert capsys.readouterr().out == ""
        assert open(path).read() == printed
        assert os.path.exists(f"{path}.manifest.json")


def test_stream_multi_stage_reports(tmp_path):
    out = str(tmp_path / "g1")
    main(["generate", "-N", "60", "-B", "3", "--edges", "240",
          "--stages", "5", "--seed", "6", "-o", out])
    stream_out = str(tmp_path / "stream.json")
    rc = main(["stream", out, "--stages", "5", "-o", stream_out,
               "--truth", f"{out}_truth.tsv", "--max-sweeps", "15"])
    assert rc == 0
    payload = json.load(open(stream_out))
    assert len(payload["stages"]) == 5
    for rep in payload["stages"]:
        assert "pairwise_recall" in rep["correctness"]
    assert payload["total"]["num_stages"] == 5


def test_bench_single_size(tmp_path):
    out = str(tmp_path / "bench.tsv")
    rc = main(["bench", "--sizes", "300", "-o", out, "--max-sweeps", "10"])
    assert rc == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0].startswith("num_edges")
    assert len(lines) == 2
    e, sec, rate = lines[1].split("\t")
    # seconds are rounded to 4 decimals in the file, so allow slack
    assert float(rate) == pytest.approx(int(e) / float(sec), rel=0.05)


def test_bench_multiple_sizes_and_repeats(tmp_path):
    out = str(tmp_path / "bench.tsv")
    rc = main(["bench", "--sizes", "200,400", "--repeats", "3",
               "-o", out, "--max-sweeps", "10"])
    assert rc == 0
    lines = open(out).read().strip().split("\n")
    assert len(lines) == 3


def test_bench_ratio_vs_log2_column(tmp_path):
    """Each size after the first gets criterion 9's ratio: its rate
    decline from the size before over the (log E2 / log E1)^2 prediction."""
    out = str(tmp_path / "bench.tsv")
    rc = main(["bench", "--sizes", "200,400,800", "-o", out,
               "--max-sweeps", "5"])
    assert rc == 0
    header, *rows = [line.split("\t")
                     for line in open(out).read().strip().split("\n")]
    assert header[-1] == "ratio_vs_log2"
    assert rows[0][-1] == "NA"
    for (e1, _, r1, _), (e2, _, r2, ratio) in zip(rows, rows[1:]):
        predicted = (math.log(int(e2)) / math.log(int(e1))) ** 2
        assert float(ratio) == pytest.approx(
            float(r1) / float(r2) / predicted, rel=0.01)


def test_exit_code_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["partition"])  # missing required arguments
    assert exc.value.code == 1


def test_exit_code_data_error(tmp_path):
    rc = main(["partition", str(tmp_path / "missing.tsv"), "-o",
               str(tmp_path / "x")])
    assert rc == 2
    bad = str(tmp_path / "bad.tsv")
    with open(bad, "w") as fh:
        fh.write("1\ttwo\t1\n")
    rc = main(["partition", bad, "-o", str(tmp_path / "y")])
    assert rc == 2
    empty = str(tmp_path / "empty.tsv")
    open(empty, "w").close()
    rc = main(["partition", empty, "-o", str(tmp_path / "z")])
    assert rc == 2


def test_exit_code_config_error(tmp_path, capsys):
    """A flag value that the engine or generator config rejects, or a stage,
    repeat or size count below 1, is a usage error, and it is reported
    before any input file is read."""
    edge_file = str(tmp_path / "cliques.tsv")
    write_two_cliques(edge_file)
    runs = [["partition", edge_file, "-o", str(tmp_path / "x"),
             "--beta", "-1"],
            ["partition", edge_file, "-o", str(tmp_path / "x"),
             "--beta", "nan"],
            ["partition", edge_file, "-o", str(tmp_path / "x"),
             "--threshold", "nan"],
            ["generate", "-N", "10", "-B", "2", "--edges", "50",
             "--alpha", "nan", "-o", str(tmp_path / "g")],
            ["partition", edge_file, "-o", str(tmp_path / "x"),
             "--workers", "0"],
            ["partition", edge_file, "-o", str(tmp_path / "x"),
             "--mode", "parallel"],
            ["partition", edge_file, "-o", str(tmp_path / "x"),
             "--proposals", "0"],
            ["partition", edge_file, "-o", str(tmp_path / "x"),
             "--proposals", "-1"],
            ["partition", edge_file, "-o", str(tmp_path / "x"),
             "--seed", "-1"],
            ["generate", "-N", "10", "-B", "2", "--edges", "50",
             "--seed", "-1", "-o", str(tmp_path / "g")],
            ["partition", str(tmp_path / "missing.tsv"), "-o",
             str(tmp_path / "y"), "--beta", "-1"],
            ["generate", "-N", "10", "-B", "20", "--edges", "50",
             "-o", str(tmp_path / "g")],
            ["stream", str(tmp_path / "missing"), "--stages", "0"],
            ["bench", "--sizes", "100", "--repeats", "0"],
            ["bench", "--sizes", "abc"],
            ["bench", "--sizes", "0"],
            ["bench", "--sizes", "-5"],
            ["generate", "-N", "10", "-B", "2", "--edges", "50",
             "--stages", "0", "-o", str(tmp_path / "g")],
            ["generate", "-N", "50", "-B", "2", "--edges", "-5",
             "-o", str(tmp_path / "g")],
            ["generate", "-N", "50", "-B", "2", "--edges", "0",
             "--stages", "2", "-o", str(tmp_path / "g")]]
    for argv in runs:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "beta must be positive" in err
    assert "convergence_threshold must be positive" in err
    assert "block_size_concentration must be positive" in err
    assert "merge_proposals_per_block must be positive" in err
    assert "rng_seed must be non-negative" in err
    assert "target_total_edges must be positive" in err
    assert "argument --stages: not a positive integer: '0'" in err
    assert "argument --sizes: not a positive integer: 'abc'" in err
    assert os.listdir(tmp_path) == ["cliques.tsv"]


def test_mask_without_truth_is_usage_error(tmp_path, capsys):
    """A mask only filters the truth comparison: without --truth it is a
    usage error, reported before any input file is read."""
    missing = str(tmp_path / "missing.tsv")
    for argv in (["partition", missing, "-o", str(tmp_path / "x"),
                  "--mask", "/nonexistent"],
                 ["stream", str(tmp_path / "nostream"), "--stages", "2",
                  "--mask", "/nonexistent"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "--mask needs --truth" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_exit_code_data_value_error(tmp_path):
    """A ValueError raised by the input data stays a data error."""
    mask_file = tmp_path / "mask.tsv"
    mask_file.write_text("".join(f"{i}\t0\n" for i in range(1, 57)))
    rc = main(["evaluate", "--truth", TABLE1_TRUTH,
               "--partition", TABLE1_OUTPUT, "--mask", str(mask_file)])
    assert rc == 2


def test_partition_disjoint_self_loops(tmp_path):
    """Two nodes joined only to themselves never propose each other as a
    merge target; the search still probes one block (the merge scores the
    pair directly) and keeps the two apart."""
    edge_file = tmp_path / "loops.tsv"
    edge_file.write_text("1\t1\t1000000\n2\t2\t1000000\n")
    out = str(tmp_path / "x")
    rc = main(["partition", str(edge_file), "-o", out])
    assert rc == 0
    assert json.load(open(f"{out}_report.json"))["num_blocks"] == 2


def test_mask_bad_flag_names_file_and_line(tmp_path, capsys):
    mask_file = tmp_path / "mask.tsv"
    mask_file.write_text("1\tyes\n")
    rc = main(["evaluate", "--truth", TABLE1_TRUTH,
               "--partition", TABLE1_OUTPUT, "--mask", str(mask_file)])
    assert rc == 2
    assert f"{mask_file}:1: non-integer field" in capsys.readouterr().err


def test_evaluate_duplicate_partition_node_is_data_error(tmp_path, capsys):
    """A node listed twice in a partition file exits 2 and names the
    file and the second line."""
    part = tmp_path / "part.tsv"
    part.write_text(open(TABLE1_OUTPUT).read() + "3\t1\n")
    lines = len(part.read_text().splitlines())
    rc = main(["evaluate", "--truth", TABLE1_TRUTH, "--partition", str(part)])
    assert rc == 2
    assert f"{part}:{lines}: node 3 listed twice" in capsys.readouterr().err


def test_evaluate_partition_beyond_truth_is_data_error(tmp_path, capsys):
    """A partition node that the truth does not cover exits 2 and names the
    partition file and line, rather than being dropped from the score."""
    truth = tmp_path / "truth.tsv"
    truth.write_text("1\t1\n2\t1\n3\t2\n")
    part = tmp_path / "part.tsv"
    part.write_text("1\t1\n2\t1\n3\t2\n4\t2\n")
    rc = main(["evaluate", "--truth", str(truth), "--partition", str(part)])
    assert rc == 2
    assert (f"{part}:4: node id 4 out of range for 3 nodes"
            in capsys.readouterr().err)


def test_partition_truth_may_list_nodes_without_edges(tmp_path):
    """A truth file may list trailing nodes that no edge reaches; they are
    not part of the graph and are not scored."""
    edge_file = tmp_path / "g.tsv"
    edge_file.write_text("1\t2\n2\t1\n3\t4\n4\t3\n")
    truth = tmp_path / "truth.tsv"
    truth.write_text("1\t1\n2\t1\n3\t2\n4\t2\n5\t3\n6\t3\n")
    out = str(tmp_path / "x")
    rc = main(["partition", str(edge_file), "-o", out, "--truth", str(truth)])
    assert rc == 0
    report = json.load(open(f"{out}_report.json"))
    assert report["correctness"]["num_nodes_evaluated"] == 4


def test_evaluate_duplicate_mask_node_is_data_error(tmp_path, capsys):
    """A node listed twice in a mask file exits 2 and names the file and
    the second line."""
    mask_file = tmp_path / "mask.tsv"
    mask_file.write_text("1\t1\n2\t1\n1\t0\n")
    rc = main(["evaluate", "--truth", TABLE1_TRUTH,
               "--partition", TABLE1_OUTPUT, "--mask", str(mask_file)])
    assert rc == 2
    assert f"{mask_file}:3: node 1 listed twice" in capsys.readouterr().err


def test_evaluate_mask_flag_other_than_0_or_1_is_data_error(tmp_path,
                                                             capsys):
    """A mask flag other than 0 or 1 exits 2 and names the file and line."""
    for flag in ("2", "-1"):
        mask_file = tmp_path / "mask.tsv"
        mask_file.write_text(f"1\t1\n2\t{flag}\n")
        rc = main(["evaluate", "--truth", TABLE1_TRUTH,
                   "--partition", TABLE1_OUTPUT, "--mask", str(mask_file)])
        assert rc == 2
        assert (f"{mask_file}:2: flag must be 0 or 1, got {flag}"
                in capsys.readouterr().err)


def test_stream_short_truth_is_data_error(tmp_path, capsys):
    """A truth file that covers fewer nodes than the stream exits 2 and
    names both node counts."""
    out = str(tmp_path / "g1")
    main(["generate", "-N", "40", "-B", "2", "--edges", "120",
          "--stages", "3", "--seed", "3", "-o", out])
    truth = tmp_path / "short_truth.tsv"
    truth.write_text("".join(f"{i}\t1\n" for i in range(1, 11)))
    stage1 = read_edge_tsv(f"{out}_stage_1.tsv")
    n1 = max(max(s, t) for s, t, _ in stage1) + 1
    rc = main(["stream", out, "--stages", "3", "--truth", str(truth),
               "--max-sweeps", "5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "truth covers 10 nodes" in err
    assert f"stage 1 of the stream has {n1}" in err


def test_manifest_reproduces_run(tmp_path):
    out = str(tmp_path / "g1")
    args = ["generate", "-N", "40", "-B", "2", "--edges", "100",
            "--seed", "9", "-o", out]
    assert main(args) == 0
    manifest = json.load(open(f"{out}_manifest.json"))
    # re-running with the recorded config reproduces outputs bit-exactly
    cfg = manifest["config"]
    out2 = str(tmp_path / "g2")
    rerun = ["generate", "-N", str(cfg["num_nodes"]),
             "-B", str(cfg["num_blocks"]), "--edges", str(cfg["edges"]),
             "--overlap", str(cfg["overlap"]), "--seed", str(cfg["seed"]),
             "-o", out2]
    assert main(rerun) == 0
    assert filecmp.cmp(f"{out}.tsv", f"{out2}.tsv", shallow=False)
    assert filecmp.cmp(f"{out}_truth.tsv", f"{out2}_truth.tsv", shallow=False)


def test_parsed_defaults_are_config_defaults():
    """Every flag left unset takes its config class's default."""
    parser = build_parser()
    for argv in (["partition", "g.tsv", "-o", "out"],
                 ["stream", "g", "--stages", "2"],
                 ["bench", "--sizes", "1000"]):
        assert _engine_config(parser.parse_args(argv)) == MCMCConfig()
    args = parser.parse_args(["generate", "-N", "10", "-B", "2",
                              "--edges", "50", "-o", "out"])
    want = GeneratorConfig(num_nodes=10, num_blocks=2, target_total_edges=50)
    assert (args.overlap, args.exponent, args.alpha, args.uniform_degrees,
            args.seed) == (want.overlap_ratio, want.powerlaw_exponent,
                           want.block_size_concentration,
                           want.uniform_degrees, want.rng_seed)
