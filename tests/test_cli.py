"""Command-line behavior: exit codes, output files, and determinism."""

import argparse
import ast
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigiform import (
    BUILTIN_NAMES,
    FormationGraph,
    Framework,
    builtin_scenario,
    generate_scenario,
    load_scenario,
    random_trace,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    trace_distances,
    trace_graph,
)
from rigiform.analysis import certificate
from rigiform.cli import _execute_run, main
from rigiform.scenario import canonical_json
from rigiform.sim import RunVerdict


def _write_scenario(path, sc):
    save_scenario(sc, path)
    return str(path)


def _triangle_file(tmp_path, **overrides):
    from test_sim import _triangle_scenario

    sc = _triangle_scenario()
    if overrides:
        sc = dataclasses.replace(sc, **overrides)
    return _write_scenario(tmp_path / f"{sc.name}.json", sc)


def test_check_builtin_certifies(capsys):
    assert main(["check", "epuck2d"]) == 0
    out = capsys.readouterr().out
    assert "rank 5 of 5" in out
    assert "certified" in out


def test_check_json_output(capsys):
    assert main(["check", "tetra3d", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["certified"] is True
    assert record["rank"] == 9
    assert record["infinitesimally_rigid"] is True
    assert record["minimally_rigid"] is True
    assert record["margin"] < 0
    assert len(record["spectrum"]) == 9


def _square_file(tmp_path):
    """A unit square without a diagonal: floppy, but its matrix is Hurwitz."""
    from test_sim import _triangle_scenario, _zero_disturbance

    sc = dataclasses.replace(
        _triangle_scenario(),
        name="square",
        edges=((1, 2), (2, 3), (3, 4), (4, 1)),
        distances=(1.0, 1.0, 1.0, 1.0),
        initial_positions=((0.1, 0.0), (1.0, 0.1), (1.1, 1.0), (0.0, 0.9)),
        target_positions=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
        disturbance=_zero_disturbance(4),
        mode="gradient_only",
    )
    return _write_scenario(tmp_path / "square.json", sc)


def test_check_rejects_floppy_formation(tmp_path, capsys):
    assert main(["check", _square_file(tmp_path)]) == 1
    assert "not infinitesimally rigid" in capsys.readouterr().out


def _pair_file(tmp_path, dim, length):
    """Two agents on one edge of the given length, in dim dimensions."""
    data = {"name": "pair", "dim": dim, "agents": [[0.0, 0.1, 0.0][:dim], [length, 0.0, 0.2][:dim]],
            "edges": [{"tail": 1, "head": 2, "distance": length}],
            "target_positions": [[0.0] * dim, [length] + [0.0] * (dim - 1)],
            "disturbance": {"frequencies": [1.0], "edges": [{"alpha": 0.5}]},
            "controller": {"mode": "estimator", "kappa": 1.0, "b1": 1.0, "b2": [1.0, 0.0]},
            "sim": {"dt": 0.01, "t_end": 1.0, "output_every": 10}}
    path = tmp_path / f"pair{dim}d.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("length, margin", [(1.0, "-1"), (2.5, "-6.25")])
def test_two_agents_on_one_edge_certify_alike_in_2d_and_3d(tmp_path, capsys, length, margin):
    # n <= dim needs every pair's edge: rank 1 for two agents in either dimension
    text, records = {}, {}
    for dim in (2, 3):
        path = _pair_file(tmp_path, dim, length)
        assert main(["check", path]) == 0
        text[dim] = capsys.readouterr().out.splitlines()
        assert main(["check", path, "--json"]) == 0
        records[dim] = capsys.readouterr().out
    assert text[2][1:] == text[3][1:] == [
        "rank 1 of 1 needed: infinitesimally rigid, minimally rigid",
        f"stability margin {margin}: hurwitz", "certified"]
    assert records[2] == records[3]


@pytest.mark.parametrize("scale", [1.0, 10.0, 1000.0, 1e6])
def test_distance_test_is_relative_to_each_edge(tmp_path, capsys, scale):
    sc = builtin_scenario("epuck2d")
    scaled = dataclasses.replace(
        sc,
        distances=tuple(scale * d for d in sc.distances),
        initial_positions=tuple(tuple(scale * c for c in row) for row in sc.initial_positions),
        target_positions=tuple(tuple(scale * c for c in row) for row in sc.target_positions),
    )
    assert main(["check", "epuck2d"]) == 0
    original = capsys.readouterr().out.splitlines()
    assert main(["check", _write_scenario(tmp_path / "scaled.json", scaled)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [out[1], out[3]] == [original[1], original[3]]  # rank, rigidity and verdict
    missed = (scaled.distances[0] * (1 + 1e-6),) + scaled.distances[1:]
    off = dataclasses.replace(scaled, distances=missed)
    assert main(["check", _write_scenario(tmp_path / "off.json", off)]) == 1
    assert capsys.readouterr() == ("", "error: framework does not satisfy its edge distances\n")


def _formation_file(tmp_path, fw):
    """A framework as a scenario file for `check`: its positions as agents and
    targets, its own edge lengths, no construction or assignment."""
    ends, lengths = fw.graph.endpoints.tolist(), fw.target_distances.tolist()
    data = {"name": "formation", "dim": fw.dim, "agents": fw.positions.tolist(),
            "edges": [{"tail": t, "head": h, "distance": d} for (t, h), d in zip(ends, lengths)],
            "target_positions": fw.positions.tolist(),
            "disturbance": {"frequencies": [1.0], "edges": [{"alpha": 0.5}] * len(ends)},
            "controller": {"mode": "estimator", "kappa": 1.0, "b1": 1.0, "b2": [1.0, 0.0]},
            "sim": {"dt": 0.01, "t_end": 1.0, "output_every": 10}}
    path = tmp_path / "formation.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_check_ranks_a_large_formation_one_edge_short_of_rigid_by_its_blocks(
        tmp_path, capsys, monkeypatch):
    # 3996 rows of a full-row-rank R: its blocks reach |E| = 3996, the upper
    # bound, while a dense SVD at RANK_TOL would count only 3994 of them
    from test_rigidity import _no_dense

    trace, pts = random_trace(2000, 2, np.random.default_rng(0))
    graph = FormationGraph(2000, trace_graph(trace).endpoints[:-1])
    path = _formation_file(tmp_path, Framework(graph, 2, pts, trace_distances(trace)[:-1]))
    _no_dense(monkeypatch)
    assert main(["check", path, "--json"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert (record["rank"], record["rank_needed"], record["infinitesimally_rigid"]) == (
        3996, 3997, False)


def test_check_refuses_a_dense_rank_over_the_cap_in_one_line(tmp_path, capsys, monkeypatch):
    # the last of 1001 agents sits on the line through its anchors, so the
    # blocks fall one short and only a 1999 x 2002 R, over the cap, could decide
    from test_rigidity import _no_dense, _strip

    path = _formation_file(tmp_path, _strip(1001, thin=0.0))
    _no_dense(monkeypatch)
    assert main(["check", path]) == 1
    assert capsys.readouterr() == ("", "error: rank not decided: a 1999 x 2002 SVD is over the "
                                       "cap of 4000000 entries\n")


def test_check_refuses_one_block_over_the_cap_before_building_it(tmp_path, capsys, monkeypatch):
    # the 1001-agent strip is one strongly connected component: its one
    # diagonal block is R itself, refused before any block is allocated
    from test_rigidity import _no_dense, _strip

    path = _formation_file(tmp_path, _strip(1001, back=True))
    _no_dense(monkeypatch)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["check", path])
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr() == ("", "error: spectrum not decided: a 1999 x 2002 SVD is over "
                                       "the cap of 4000000 entries\n")
    assert elapsed < 1.0
    assert peak < 8e6  # the block alone would take 1999 x 2004 x 8 bytes = 32 MB


# sha256 of `check` stdout (text and --json) and its exit code, recorded
# before certification moved into analysis.certificate; tetra3d's re-recorded
# when its spectrum came from diagonal blocks (margin -12.499999999999996
# became -12.499999999999998; exact -12.5)
CHECK_DIGESTS = {
    ("epuck2d", "--json"): ("ab52349c0d5b63e1fc303df7ef6f0bcc172d80860c02f77ff2f32986eba544dc", 0),
    ("epuck2d", "text"): ("33a06d79d81a388ae0ff8e9469e2353ce1724b5d088af5cd47363048f8c52de8", 0),
    ("tetra3d", "--json"): ("9ee84ac5def8e8624525a3980feb69b570bb45ec71ba34bdf87250f1c99ba6e5", 0),
    ("tetra3d", "text"): ("856e1b81cfc7c9542066429bbd2aa6cbb24e964bb5969c909399884134ac0380", 0),
    ("square", "--json"): ("d81e4b9d3159a48d99c21759a76adfcfc88898349398b4e2cf7509eba620d3ea", 1),
    ("square", "text"): ("0cbaf0d1008465a0e68d5837aa8170d097b5f7105dc5f101377d3d99d52a5274", 1),
}


@pytest.mark.parametrize("name, form", sorted(CHECK_DIGESTS))
def test_check_output_is_byte_stable(tmp_path, capsys, name, form):
    ref = _square_file(tmp_path) if name == "square" else name
    code = main(["check", ref] + (["--json"] if form == "--json" else []))
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == CHECK_DIGESTS[name, form]


# sha256 of a `run`'s verdict.json and trajectory.csv and its exit code,
# recorded while the run record still stored alpha, the estimator gap and
# the diverged flag
RUN_DIGESTS = {
    "diverged": ("f194e04776be4d062f6226b56540c77dcfefdc7bfa408ab653e6e15b28ecf565",
                 "ede999c1e661f692856876ed6f1f05aab11134c49678b0bff7bb2b02440c6b8a", 2),
    "full": ("d04b369f13e31db0f553f598ef27a03f326e3d856c495ef55a5818b576201fbc",
             "107599b5c4612d4de209d38d46bd30f23b9a6ce7249d0584f1ffdfa09dfda8d1", 0),
    "short": ("15ff3fd155ee600c4566676f5b76839aca82ff9d35b9282bcc076de96b90274c",
              "2133f63dc6dcb8ce18cc4b410597358430dfac11d01b3d933cb8ac1d16ee8852", 0),
    "tetra3d": ("94ffb25374ade45922ebb1718e9c337984348a60936e89fced415f68bb3333c3",
                "f720ea43027124c5236ccc31205b2dbc0349213810a0570730bdafec3b15257c", 0),
}


def _run_file(tmp_path, kind):
    """A full triangle run, one too short for a verdict (null_reason set),
    epuck2d at a step so large that the guard trips at step 8, or the first
    3 s of tetra3d's estimator run, the one 3-D kernel pinned here."""
    if kind == "diverged":
        sc = dataclasses.replace(builtin_scenario("epuck2d"), dt=5e-3)
        return _write_scenario(tmp_path / "fast.json", sc)
    if kind == "tetra3d":
        sc = dataclasses.replace(builtin_scenario("tetra3d"), t_end=3.0, output_every=5)
        return _write_scenario(tmp_path / "tetra3d.json", sc)
    return _triangle_file(tmp_path, t_end={"full": 6.0, "short": 0.1}[kind])


@pytest.mark.parametrize("kind", sorted(RUN_DIGESTS))
def test_run_outputs_are_byte_stable(tmp_path, kind):
    out = tmp_path / "out"
    code = main(["run", _run_file(tmp_path, kind), "--out", str(out)])
    verdict = (out / "verdict.json").read_bytes()
    assert set(json.loads(verdict)) == {"scenario", "mode", "samples", "null_reason"} | {
        f.name for f in dataclasses.fields(RunVerdict)
    }
    csv = (out / "trajectory.csv").read_bytes()
    digests = tuple(hashlib.sha256(b).hexdigest() for b in (verdict, csv))
    assert (*digests, code) == RUN_DIGESTS[kind]


def _check_record(sc):
    return {"scenario": sc.name, **certificate(sc.framework_target()).to_dict()}


def _verdict_record(tmp_path):
    from test_sim import _triangle_scenario

    record, _, _ = _execute_run(dataclasses.replace(_triangle_scenario(), t_end=0.1), tmp_path)
    assert record["converged"] is None and record["null_reason"] is not None
    assert (tmp_path / "verdict.json").read_text() == canonical_json(record) + "\n"
    return record


# every kind of record the CLI writes through canonical_json
RECORDS = {
    "epuck2d scenario": lambda tmp: scenario_to_dict(builtin_scenario("epuck2d")),
    "tetra3d scenario": lambda tmp: scenario_to_dict(builtin_scenario("tetra3d")),
    "generated 2-D scenario": lambda tmp: scenario_to_dict(generate_scenario(60, 2, 4)),
    "generated 3-D scenario": lambda tmp: scenario_to_dict(generate_scenario(60, 3, 4)),
    "certified check": lambda tmp: _check_record(builtin_scenario("tetra3d")),
    "uncertified check": lambda tmp: _check_record(load_scenario(_square_file(tmp))),
    "verdict with null fields": _verdict_record,
}


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_canonical_json_writes_each_record_as_json_dumps_does(tmp_path, kind):
    record = RECORDS[kind](tmp_path)
    assert canonical_json(record) == json.dumps(record, indent=2, sort_keys=True)


def test_check_requires_target_positions(tmp_path, capsys):
    path = _triangle_file(tmp_path, target_positions=None)
    assert main(["check", path]) == 1
    assert "target" in capsys.readouterr().err


def test_run_writes_trajectory_and_verdict(tmp_path, capsys):
    path = _triangle_file(tmp_path, t_end=6.0)
    out_dir = tmp_path / "out"
    assert main(["run", path, "--out", str(out_dir)]) == 0
    assert (out_dir / "trajectory.csv").exists()
    verdict = json.loads((out_dir / "verdict.json").read_text())
    assert verdict["scenario"] == "tri"
    assert verdict["mode"] == "estimator"
    assert verdict["samples"] == 601
    assert verdict["diverged"] is False
    assert "wall_seconds" not in verdict
    assert "final_error" in verdict and "converged" in verdict
    assert verdict["null_reason"] is None
    # exactly one of the fitted rate and the reason it is missing
    assert (verdict["rate"] is None) != (verdict["rate_null_reason"] is None)


def test_short_run_says_why_its_verdict_is_null(tmp_path):
    path = _triangle_file(tmp_path, t_end=0.1)
    out_dir = tmp_path / "out"
    assert main(["run", path, "--out", str(out_dir)]) == 0
    verdict = json.loads((out_dir / "verdict.json").read_text())
    assert verdict["samples"] == 11
    assert verdict["converged"] is None and verdict["rate"] is None
    assert verdict["rate_null_reason"] is None  # no fit ran: null_reason says why
    assert verdict["null_reason"] == (
        "analysis window holds 3 samples, need at least 50; run longer or sample more often"
    )


def test_run_mode_override(tmp_path):
    path = _triangle_file(tmp_path, t_end=6.0)
    out_dir = tmp_path / "grad"
    assert main(["run", path, "--out", str(out_dir), "--mode", "gradient_only"]) == 0
    verdict = json.loads((out_dir / "verdict.json").read_text())
    assert verdict["mode"] == "gradient_only"


def test_run_reports_divergence(tmp_path, capsys):
    path = _triangle_file(
        tmp_path,
        initial_positions=((0.0, 0.0), (2000.0, 0.0), (1000.0, 1700.0)),
        distances=(1.0, 1.0, 1.0),
        target_positions=None,
        mode="gradient_only",
    )
    out_dir = tmp_path / "boom"
    assert main(["run", path, "--out", str(out_dir)]) == 2
    assert "diverged" in capsys.readouterr().err
    verdict = json.loads((out_dir / "verdict.json").read_text())
    assert verdict["diverged"] is True


def test_run_reports_the_step_where_the_guard_tripped(tmp_path, capsys):
    sc = dataclasses.replace(builtin_scenario("epuck2d"), dt=5e-3)
    path = _write_scenario(tmp_path / "fast.json", sc)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert "diverged at step 8 (t = 0.04 s of simulated time)" in capsys.readouterr().err


@pytest.mark.parametrize("dt, step, reason", [
    # every block finite, but |x| overflows to inf
    (5e-3, 8, "position norm inf > guard 1e+09"),
    (2e-2, 2, "non-finite x, xi"),
])
def test_run_names_what_tripped_the_guard(tmp_path, capsys, dt, step, reason):
    sc = dataclasses.replace(builtin_scenario("epuck2d"), dt=dt)
    path = _write_scenario(tmp_path / "fast.json", sc)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"run diverged at step {step} (t = {step * dt:.6g} s of simulated time): {reason}\n"
    )
    verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert verdict["diverged"] is True
    assert reason not in (tmp_path / "out" / "verdict.json").read_text()


def test_diverged_run_reports_the_error_of_its_last_good_state(tmp_path):
    # the guard trips at step 8, so step 7 is the last state that passed it
    sc = dataclasses.replace(builtin_scenario("epuck2d"), dt=5e-3)
    path = _write_scenario(tmp_path / "fast.json", sc)
    assert main(["run", path, "--out", str(tmp_path / "boom")]) == 2
    short = _write_scenario(
        tmp_path / "short.json", dataclasses.replace(sc, t_end=7 * sc.dt, output_every=7)
    )
    assert main(["run", short, "--out", str(tmp_path / "short")]) == 0
    boom = json.loads((tmp_path / "boom" / "verdict.json").read_text())
    want = json.loads((tmp_path / "short" / "verdict.json").read_text())
    assert boom["samples"] == 1
    assert boom["final_error"] == want["final_error"]


def test_run_rejects_a_grid_that_drops_the_final_state(tmp_path, capsys):
    path = _triangle_file(tmp_path, t_end=0.5, output_every=1000)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "not a multiple of output_every" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("overrides, message", [
    ({"t_end": 0.0105}, "t_end 0.0105 is not a whole number of dt 0.001 steps"),
    ({"t_end": 0.5, "output_every": 1000},
     "500 steps is not a multiple of output_every 1000, so the final state would not be recorded"),
    ({"t_end": 10_000.0, "output_every": 1},
     "the run would record 190000019 values, over the cap of 50000000; "
     "raise output_every or shorten t_end"),
], ids=["off-grid", "stride", "value-cap"])
def test_refused_runs_write_neither_file(tmp_path, capsys, overrides, message):
    out = tmp_path / "out"
    assert main(["run", _triangle_file(tmp_path, **overrides), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (out / "trajectory.csv").exists() and not (out / "verdict.json").exists()


def test_an_out_below_a_regular_file_is_refused_before_integrating(tmp_path, capsys,
                                                                  monkeypatch):
    from rigiform import sim

    def no_loop(scenario):
        raise AssertionError("integration started")

    monkeypatch.setattr(sim, "_ClosedLoop", no_loop)
    (tmp_path / "file").write_text("")
    path = _triangle_file(tmp_path, t_end=0.1)
    assert main(["run", path, "--out", str(tmp_path / "file" / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_the_value_cap_refuses_exactly_the_runs_past_it(tmp_path, capsys, monkeypatch):
    from rigiform import sim

    path = _triangle_file(tmp_path, t_end=0.1, output_every=1)  # 101 samples of 19 values
    monkeypatch.setattr(sim, "MAX_RECORDED_VALUES", 101 * 19)
    assert main(["run", path, "--out", str(tmp_path / "at")]) == 0
    monkeypatch.setattr(sim, "MAX_RECORDED_VALUES", 101 * 19 - 1)
    capsys.readouterr()
    assert main(["run", path, "--out", str(tmp_path / "past")]) == 1
    assert capsys.readouterr().err == (
        "error: the run would record 1919 values, over the cap of 1918; "
        "raise output_every or shorten t_end\n")


def test_run_memory_grows_only_by_what_the_verdict_keeps(tmp_path, monkeypatch):
    # a run keeps per sample its time, error norm and n speeds, and writes
    # its CSV rows a chunk at a time (at most 2**17 values: 59 rows of 2189
    # here), so once the chunk is full the traced peak grows by n + 2 floats
    # a sample; a run that kept its whole Trajectory grew by 1792.  Both runs
    # here pass a chunk, so a writer process formats them, and the parent
    # formats a share of each half chunk that it measures while running;
    # that share is fixed here, so that a formatting's peak (about 0.45 MB,
    # once per run) counts in both runs or in neither
    from rigiform import _g17, _writer

    monkeypatch.setattr(_writer.Writer, "_share", lambda writer, rows, seconds: rows // 2)
    n = 200
    sc = generate_scenario(n, 2, 0)
    _g17.tables()  # built once per process
    paths = {samples: _write_scenario(
        tmp_path / f"run{samples}.json",
        dataclasses.replace(sc, t_end=(samples - 1) * sc.dt, output_every=1))
        for samples in (60, 300)}
    assert main(["run", paths[60], "--out", str(tmp_path / "warm")]) == 0
    peaks = []
    for samples, path in paths.items():
        tracemalloc.start()
        try:
            assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= (n + 2) * 8 * (300 - 60) + 0.25 * 2**20


def test_replicate_reports_the_last_sample_it_streamed(tmp_path, monkeypatch):
    import rigiform.cli

    def short(name):
        return dataclasses.replace(builtin_scenario(name), t_end=1.0)

    monkeypatch.setattr(rigiform.cli, "builtin_scenario", short)
    assert main(["replicate", "epuck2d", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    with open(tmp_path / "estimator" / "trajectory.csv") as fh:
        header = fh.readline().strip().split(",")
        last = [float(v) for v in fh.readlines()[-1].split(",")]
    columns = dict(zip(header, last))
    edges = len(builtin_scenario("epuck2d").edges)
    assert summary["mu_final"] == [columns[f"mu_{k}"] for k in range(1, edges + 1)]
    assert summary["mu_hat_final"] == [columns[f"muhat_{k}"] for k in range(1, edges + 1)]
    assert all(isinstance(leg["wall_seconds"], float) for leg in summary["legs"].values())
    assert set(summary["legs"]) == {"gradient_only", "estimator"}


def test_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json\n")
    assert main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err


def _tetra3d_file(tmp_path, name, edit):
    data = scenario_to_dict(builtin_scenario("tetra3d"))
    data["sim"].update(t_end=1.0, output_every=100)
    edit(data)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_check_certifies_an_estimator_with_octave_frequencies(tmp_path, capsys):
    # b sees every tone of (0.5, 1, ..., 16) rad/s, though its Krylov matrix
    # has condition number about 1e10
    def octaves(data):
        data["disturbance"]["frequencies"] = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
        data["controller"]["b2"] = [1.0] * 6 + [0.0] * 6

    assert main(["check", _tetra3d_file(tmp_path, "octaves", octaves)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "certified"


def test_estimator_refusal_names_the_first_channel_b_cannot_see(tmp_path, capsys):
    def blind(data):
        data["disturbance"]["frequencies"] = [1.0, 2.0, 3.0]
        data["controller"]["b2"] = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    assert main(["check", _tetra3d_file(tmp_path, "blind", blind)]) == 1
    assert capsys.readouterr() == ("", "error: estimator mode needs an observable internal-model "
                                       "basis: sinusoid at 2.0 rad/s unobservable: both b2 "
                                       "entries for it are zero\n")


def test_run_refuses_a_tone_whose_b2_pair_overflows_when_squared(tmp_path, capsys):
    def huge(data):
        data["controller"]["b2"] = [1e200, 0.0]

    out = tmp_path / "out"
    assert main(["run", _tetra3d_file(tmp_path, "huge", huge), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: sinusoid at 1.0 rad/s unrepresentable: its b2 "
                                       "pair overflows when squared\n")
    assert not (out / "verdict.json").exists()


@pytest.mark.parametrize("alpha, code", [(0.0, 0), (0.4, 1)])
def test_gradient_run_with_b1_zero_refuses_only_a_nonzero_offset(tmp_path, capsys, alpha, code):
    def gradient(data):
        data["controller"].update(mode="gradient_only", b1=0.0)
        for edge in data["disturbance"]["edges"]:
            edge["alpha"] = 0.0
        data["disturbance"]["edges"][2]["alpha"] = alpha

    out = tmp_path / "out"
    assert main(["run", _tetra3d_file(tmp_path, "gradient", gradient), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else "error: constant channel unrepresentable: b1 is zero\n")
    assert (out / "verdict.json").exists() == (code == 0)


def test_unknown_scenario_reference(capsys):
    assert main(["check", "no_such_scenario"]) == 1
    assert "no_such_scenario" in capsys.readouterr().err


def test_unknown_scenario_field(tmp_path, capsys):
    source = tmp_path / "e.json"
    save_scenario(builtin_scenario("epuck2d"), source)
    data = json.loads(source.read_text())
    data["mystery"] = 1
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 1
    assert "mystery" in capsys.readouterr().err


def test_generate_is_seed_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    assert main(["generate", "--n", "5", "--dim", "2", "--seed", "11", "--out", str(a)]) == 0
    assert main(["generate", "--n", "5", "--dim", "2", "--seed", "11", "--out", str(b)]) == 0
    assert main(["generate", "--n", "5", "--dim", "2", "--seed", "12", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_generated_scenario_certifies(tmp_path, capsys):
    path = tmp_path / "gen.json"
    assert main(["generate", "--n", "6", "--dim", "3", "--seed", "4", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["check", str(path)]) == 0
    sc = load_scenario(path)
    assert sc.dim == 3
    assert len(sc.edges) == 3 * 6 - 6
    assert sc.construction is not None
    assert sc.assignment is not None and sc.assignment.kind == "growth_3d"


def test_generate_triangle_assignment(tmp_path):
    path = tmp_path / "tri.json"
    rc = main([
        "generate", "--n", "3", "--dim", "2", "--seed", "2",
        "--assignment", "triangle_cyclic", "--out", str(path),
    ])
    assert rc == 0
    sc = load_scenario(path)
    assert sc.assignment.kind == "triangle_cyclic"
    assert sc.construction is None
    # cyclic rule: every agent estimates exactly one edge
    assert sorted(t for t, _ in sc.edges) == [1, 2, 3]


def test_generate_rejects_bad_combinations(tmp_path, capsys):
    path = tmp_path / "x.json"
    rc = main([
        "generate", "--n", "4", "--dim", "2", "--seed", "0",
        "--assignment", "triangle_cyclic", "--out", str(path),
    ])
    assert rc == 1
    assert "triangle" in capsys.readouterr().err
    assert main(["generate", "--n", "3", "--dim", "3", "--seed", "0", "--out", str(path)]) == 1


def test_generate_reports_a_stalled_draw_in_one_line(tmp_path, monkeypatch, capsys):
    def stall(n, dim, rng):
        raise RuntimeError("2-D trace sampling stalled")

    monkeypatch.setattr("rigiform.scenario.random_trace", stall)
    path = tmp_path / "big.json"
    assert main(["generate", "--n", "1000", "--dim", "2", "--seed", "0", "--out", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: cannot place 1000 agents: 2-D trace sampling stalled (seed 0)\n"
    assert not path.exists()


def _rejecting(monkeypatch, rejected):
    """Make generate's certification reject its first `rejected` draws;
    returns the list that counts the draws."""
    import rigiform.scenario as scenario

    draws, random_trace, certify = [], scenario.random_trace, scenario.certificate

    def draw(*args):
        draws.append(1)
        return random_trace(*args)

    def rejecting(framework):
        cert = certify(framework)
        return cert if len(draws) > rejected else dataclasses.replace(cert, certified=False)

    monkeypatch.setattr(scenario, "random_trace", draw)
    monkeypatch.setattr(scenario, "certificate", rejecting)
    return draws


def test_generate_gives_up_after_100_rejected_draws(tmp_path, monkeypatch, capsys):
    draws = _rejecting(monkeypatch, float("inf"))
    path = tmp_path / "none.json"
    assert main(["generate", "--n", "5", "--dim", "2", "--seed", "7", "--out", str(path)]) == 1
    assert capsys.readouterr().err == \
        "error: no certified formation found after 100 draws (seed 7)\n"
    assert len(draws) == 100
    assert not path.exists()


def test_generate_redraws_after_a_rejected_draw(tmp_path, monkeypatch):
    draws = _rejecting(monkeypatch, 1)
    paths = tmp_path / "a.json", tmp_path / "b.json"
    for path in paths:
        draws.clear()
        scenario = generate_scenario(5, 3, 3)
        assert len(draws) == 2
        save_scenario(scenario, path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    monkeypatch.undo()
    assert certificate(scenario.framework_target()).certified
    assert scenario != generate_scenario(5, 3, 3)  # the second draw's, not the first's


def test_generate_reports_running_out_of_memory_in_one_line(tmp_path, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 14.6 TiB for an array with shape (1000000000000, 2)")

    monkeypatch.setattr("rigiform.cli.generate_scenario", exhausted)
    path = tmp_path / "huge.json"
    argv = ["generate", "--n", "1000000000000", "--dim", "2", "--seed", "0", "--out", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: out of memory: Unable to allocate 14.6 TiB "
                                       "for an array with shape (1000000000000, 2)\n")
    assert not path.exists()


# sha256 of `generate --n N --dim D --seed S` output, recorded before the gap
# test in random_trace was vectorized and the certification's rank and
# spectrum were shared
GENERATE_DIGESTS = {
    (200, 2, 0): "e9144c0af28cbcff3bf7a319445d8bd4fd6696579a1302fd02d0fe5439db2c4b",
    (250, 3, 0): "630c3f6259caca0359aadb40839bc4db58b7d576d916a235f962d94eb488421a",
    (40, 3, 1): "94a477e8ed28ac7bb501932f8db6414f1b8e0d8f691f21681757d12fcd0c7751",
    (4, 2, 5): "09888e95bfa5222619d24c431bb5cb8767166047fe2763de3857d65d05baade5",
    (5, 3, 5): "a5e3dc6a09218ecd1b771e514c1cf16de93155fc17f25221bd1110e312eaeb1d",
}


@pytest.mark.parametrize("n, dim, seed", sorted(GENERATE_DIGESTS))
def test_generate_output_is_byte_stable(tmp_path, n, dim, seed):
    path = tmp_path / "gen.json"
    argv = ["generate", "--n", str(n), "--dim", str(dim), "--seed", str(seed), "--out", str(path)]
    assert main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GENERATE_DIGESTS[n, dim, seed]


# recorded before random_trace's gap test moved to a cell grid and its anchor
# pair left rng.choice: the 2-D draw calls the outward fallback 32 times, once
# per vertex that exhausted its 500 pair proposals
FALLBACK_DIGESTS = {
    (2000, 2, 0): "2857b0b2a04e641abba3d024e8d06a8eaef2950070541739c48014ff432e98ba",
    (2000, 3, 0): "ea94f58855e86e44ef0b2addae92095066a93109a3a63b4e46f54155023132c4",
}


@pytest.mark.parametrize("n, dim, seed", sorted(FALLBACK_DIGESTS))
def test_generate_past_900_agents_is_byte_stable(tmp_path, n, dim, seed):
    path = tmp_path / "gen.json"
    argv = ["generate", "--n", str(n), "--dim", str(dim), "--seed", str(seed), "--out", str(path)]
    assert main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FALLBACK_DIGESTS[n, dim, seed]


def test_2d_generation_steps_outward_once_the_pair_proposals_stall(tmp_path, capsys):
    # seed 0 rejected 500 pair proposals for one of its 900 vertices, which
    # used to end the draw with "2-D trace sampling stalled"
    path = tmp_path / "big.json"
    assert main(["generate", "--n", "900", "--dim", "2", "--seed", "0", "--out", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "10be7c1136281836a3946eedfd43907068d73586a55031f5f5c3ea99ac154a34"
    assert main(["check", str(path), "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["certified"] is True and record["rank"] == 2 * 900 - 3


def _record_decompositions(monkeypatch):
    """Shapes of the arrays handed to np.linalg.svd and np.linalg.eigvals
    from here on, and the count of trace draws."""
    import rigiform.scenario as scenario

    seen = {"svd": [], "eigvals": [], "draws": 0}

    def recorded(key, fn):
        def wrapper(a, *args, **kwargs):
            seen[key].append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapper

    random_trace = scenario.random_trace

    def draw(*args):
        seen["draws"] += 1
        return random_trace(*args)

    monkeypatch.setattr(np.linalg, "svd", recorded("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "eigvals", recorded("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(scenario, "random_trace", draw)
    return seen


def test_generated_certification_decomposes_only_dim_wide_blocks(tmp_path, monkeypatch, capsys):
    path = tmp_path / "gen.json"
    seen = _record_decompositions(monkeypatch)
    assert main(["generate", "--n", "30", "--dim", "3", "--seed", "2", "--out", str(path)]) == 0
    assert seen["draws"] >= 1
    # one SVD per block shape: an edge into vertex 2, 3 or 4, or an insertion's three
    assert sorted(shape[1:] for shape in seen["svd"] if len(shape) == 3) == \
        [(1, 3), (2, 3), (3, 3)] * seen["draws"]
    assert all(shape[-1] <= 3 for shape in seen["svd"] + seen["eigvals"])
    capsys.readouterr()
    seen["svd"].clear()
    assert main(["check", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["certified"] is True
    assert len(seen["svd"]) == 3  # one per block shape
    assert all(shape[-1] <= 3 for shape in seen["svd"] + seen["eigvals"])


def test_single_component_certification_makes_one_rank_and_one_spectrum(monkeypatch, capsys):
    sc = builtin_scenario("epuck2d")
    seen = _record_decompositions(monkeypatch)
    assert main(["check", "epuck2d"]) == 0
    rigidity_shape = (len(sc.edges), 2 * len(sc.target_positions))
    assert [shape[-2:] for shape in seen["svd"]].count(rigidity_shape) == 1
    assert [shape[-2:] for shape in seen["eigvals"]] == [(len(sc.edges),) * 2]
    capsys.readouterr()


def test_builtin_round_trip(tmp_path):
    for name in ("epuck2d", "tetra3d"):
        sc = builtin_scenario(name)
        path = tmp_path / f"{name}.json"
        save_scenario(sc, path)
        assert load_scenario(path) == sc


def test_generated_round_trip(tmp_path):
    sc = generate_scenario(5, 2, seed=3)
    path = tmp_path / "g.json"
    save_scenario(sc, path)
    assert load_scenario(path) == sc


@settings(max_examples=40, deadline=None)
@given(
    source=st.one_of(
        st.sampled_from(BUILTIN_NAMES).map(builtin_scenario),
        st.builds(
            lambda n, dim, seed: generate_scenario(max(n, dim + 1), dim, seed),
            st.integers(3, 12), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1),
        ),
    )
)
def test_scenarios_round_trip_through_dict_and_file(source):
    assert scenario_from_dict(scenario_to_dict(source)) == source
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
        save_scenario(source, first)
        save_scenario(load_scenario(first), second)
        assert first.read_bytes() == second.read_bytes()


def test_replicate_unknown_builtin(tmp_path, capsys):
    assert main(["replicate", "martian", "--out", str(tmp_path / "r")]) == 1
    assert "martian" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "epuck2d"])  # missing --out
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def _in_process(argv):
    """(exit code, stdout, stderr) of main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fresh_process(argv):
    """(exit code, stdout, stderr) of `python -m rigiform.cli argv`."""
    src = str(Path(importlib.import_module("rigiform").__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "rigiform.cli", *argv],
                          capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def test_importing_the_cli_leaves_the_csv_formatter_unloaded():
    # sim.write_csv imports rigiform._g17 when it first writes a trajectory,
    # and stream_run imports rigiform._writer when it first forks a writer,
    # so a fresh interpreter that only checks or generates compiles neither
    src = str(Path(importlib.import_module("rigiform").__file__).parents[1])
    code = "import sys, rigiform.cli; print([m in sys.modules for m in " \
           "('rigiform._g17', 'rigiform._writer')])"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout, done.stderr) == (0, "[False, False]\n", "")


def test_one_process_answers_each_command_like_a_fresh_one(tmp_path, monkeypatch):
    # main builds its parser once per process and reuses it; commands run
    # one after another must print and exit as each does on its own
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to it
    scenario = _triangle_file(tmp_path, t_end=0.1)
    generated = str(tmp_path / "gen.json")
    commands = [
        ["check", "epuck2d"],
        ["run", "epuck2d"],  # usage error: no --out
        ["generate", "--n", "6", "--dim", "3", "--seed", "1", "--out", generated],
        ["check", generated, "--json"],
        ["generate", "--n", "6", "--dim", "4", "--seed", "1", "--out", generated],
        ["run", scenario, "--out", str(tmp_path / "run"), "--mode", "gradient_only"],
        ["check", "no_such_scenario"],
        ["frobnicate"],
        ["check", "epuck2d"],
    ]
    in_process = [_in_process(argv) for argv in commands]
    fresh = [_fresh_process(argv) for argv in commands]
    wall = re.compile(r"in \d+\.\d\d s")  # run's wall time
    for argv, got, want in zip(commands, in_process, fresh):
        assert [wall.sub("in _ s", x) if isinstance(x, str) else x for x in got] == \
            [wall.sub("in _ s", x) if isinstance(x, str) else x for x in want], argv
    assert [code for code, _, _ in in_process] == [0, 1, 0, 0, 1, 0, 1, 1, 0]


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("command", ["check", "run"])
def test_a_closed_stdout_keeps_the_commands_exit_code(tmp_path, command, buffered):
    # once stdout's reader has gone (`rigiform check x | head -c 0`), a
    # certified check and a finished run still exit 0, whether a print or the
    # final flush meets the closed pipe
    argv = ["check", "epuck2d"] if command == "check" else \
        ["run", _triangle_file(tmp_path, t_end=0.1), "--out", str(tmp_path / "run")]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(importlib.import_module("rigiform").__file__).parents[1])
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "rigiform.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, "")
    if command == "run":
        assert json.loads((tmp_path / "run" / "verdict.json").read_text())["samples"] > 1


def test_readme_command_line_names_every_subcommand_and_option():
    from rigiform.cli import _parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    (commands,) = [a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)]
    missing = []
    for name, parser in commands.choices.items():
        words = [f"rigiform {name}"] + [option for action in parser._actions
                                        if not isinstance(action, argparse._HelpAction)
                                        for option in action.option_strings]
        missing += [(name, word) for word in words
                    if not re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", section)]
    assert not missing


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "check" in capsys.readouterr().out


def test_csv_positions_match_library_run(tmp_path):
    from rigiform import integrate

    path = _triangle_file(tmp_path, t_end=2.0)
    out_dir = tmp_path / "run"
    assert main(["run", path, "--out", str(out_dir)]) == 0
    data = np.loadtxt(out_dir / "trajectory.csv", delimiter=",", skiprows=1)
    traj = integrate(load_scenario(path))
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(
        data[:, 1:7], traj.positions.reshape(traj.sample_count, -1)
    )


def test_deeply_nested_json_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["check", str(path)]) == 1
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("nested too deeply") == 2
    assert len(err.splitlines()) == 2


def test_run_does_not_certify_the_target(tmp_path, capsys):
    # an all-zero target fails check, while run integrates from the initial
    # positions without reading it, and says nothing about it
    path = _triangle_file(tmp_path, target_positions=((0.0, 0.0),) * 3, t_end=0.1)
    assert main(["check", path]) == 1
    assert "does not satisfy its edge distances" in capsys.readouterr().err
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


def _json_paths(node, prefix=()):
    """Every position in a JSON document, as a tuple of keys and indices."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


def _mutated_scenario(data, command):
    """A built-in's scenario dict with a few keys dropped or values replaced
    by random JSON (NaN and +-Infinity included), or random bytes.  For run,
    the sim section stays at 50 steps."""
    if data.draw(st.integers(0, 9)) == 0:
        return data.draw(st.binary(max_size=64))
    doc = scenario_to_dict(builtin_scenario(data.draw(st.sampled_from(BUILTIN_NAMES))))
    doc["sim"] = {"dt": 1e-3, "t_end": 0.05, "output_every": 1}
    for _ in range(data.draw(st.integers(1, 3))):
        paths = [p for p in _json_paths(doc) if not (command == "run" and p[:1] == ("sim",))]
        path = data.draw(st.sampled_from(paths))
        if not path:
            doc = data.draw(_JSON_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_JSON_VALUES)
    return json.dumps(doc).encode()


@pytest.mark.parametrize("command", ["check", "run"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_scenario_files_exit_cleanly(command, data):
    raw = _mutated_scenario(data, command)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_bytes(raw)
        args = [command, str(path)] + (["--out", str(Path(tmp) / "out")] if command == "run" else [])
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore")  # overflow in a diverging run is expected
            assert main(args) in (0, 1, 2)
        assert len(err.getvalue().splitlines()) <= 1, err.getvalue()


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["controller"].update(kappa=10 ** 400), "'controller.kappa': number out of float range"),
    (lambda d: d["agents"][0].append(1.0), "every row of initial_positions needs 2 coordinates"),
    (lambda d: d["target_positions"].pop(), "target_positions needs one row per agent"),
], ids=["huge-int", "ragged-row", "short-target"])
def test_malformed_numbers_and_rows_are_one_line_errors(tmp_path, capsys, edit, message):
    data = scenario_to_dict(builtin_scenario("epuck2d"))
    edit(data)
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert len(err.splitlines()) == 1


def _scaled(rows, factor):
    return [[c * factor for c in row] for row in rows]


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("edit, field", [
    (lambda d: d["edges"][0].update(distance=1e300), "distances"),
    (lambda d: d["edges"][0].update(distance=1e100), "distances"),
    (lambda d: d.update(agents=_scaled(d["agents"], 1e200)), "initial_positions"),
    (lambda d: d.update(target_positions=_scaled(d["target_positions"], 1e200)), "target_positions"),
], ids=["distance-1e300", "distance-1e100", "agents-x1e200", "target-x1e200"])
def test_lengths_whose_squares_overflow_are_one_line_errors(tmp_path, capsys, command, edit, field):
    # a distance of 1e100 squares to a finite 1e200, but the error norm
    # sqrt(e . e) of the run would not be finite
    data = scenario_to_dict(builtin_scenario("epuck2d"))
    data["sim"].update(t_end=0.05, output_every=1)
    edit(data)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, str(path)] + (["--out", str(out)] if command == "run" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} too large: ")
    assert len(err.splitlines()) == 1
    assert not (out / "verdict.json").exists()


def test_non_utf8_file_names_itself(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b'{"name": "\xff"}')
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text: invalid start byte at byte 10\n"


def _tracer_entries():
    """(module, attribute) pairs perfbench/tracing.py patches, read without
    importing perfbench as a package."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    exec(compile(source.read_text(), str(source), "exec"), module.__dict__)
    return [entry[:2] for entry in module.WRAPPED + module.COUNTED]


def test_benchmark_tracer_names_resolve():
    # perfbench/tracing.py patches these attributes by name; a missing one
    # would only fail inside a traced benchmark run
    entries = _tracer_entries()
    assert ("rigiform.sim", "is_infinitesimally_rigid") in entries
    for module_name, attr in entries:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_unused_imports_are_only_the_tracers():
    # no linter runs here: an import a module never reads must be one the
    # benchmark tracer patches in that module, so dead imports fail, and so
    # do tracer-only imports once the tracer stops patching them
    wrapped = set(_tracer_entries())
    package = Path(__file__).resolve().parents[1] / "src" / "rigiform"
    for path in sorted(package.glob("*.py")):
        module = f"rigiform.{path.stem}" if path.stem != "__init__" else "rigiform"
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported = set(ast.literal_eval(node.value))
        unused = imported - used - exported
        assert all((module, name) in wrapped for name in unused), (module, sorted(unused))


def test_no_private_module_name_is_unread():
    # a private module-level function, class or constant that no module
    # under src/ reads is left over from a deletion; reads in tests do not count
    package = Path(__file__).resolve().parents[1] / "src" / "rigiform"
    defined, read = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                defined += [(path.name, n.id) for n in ast.walk(node)
                            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [(file, name) for file, name in defined
              if name.startswith("_") and not name.startswith("__") and name not in read]
    assert not unread, unread


def test_no_method_of_a_private_class_is_unread():
    # a method of a private class that no expression under src/ reads is left
    # over from a deletion; an attribute read off an imported name (np.random)
    # reads no method, and _Parser's override is called by its base class
    package = Path(__file__).resolve().parents[1] / "src" / "rigiform"
    methods, read = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {(alias.asname or alias.name).split(".")[0]
                   for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   for alias in node.names}
        methods += [(path.name, cls.name, node.name) for cls in tree.body
                    if isinstance(cls, ast.ClassDef) and cls.name.startswith("_")
                    and cls.name != "_Parser"
                    for node in cls.body if isinstance(node, ast.FunctionDef)
                    and not (node.name.startswith("__") and node.name.endswith("__"))]
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and not (isinstance(node.value, ast.Name) and node.value.id in modules)}
    unread = [entry for entry in methods if entry[2] not in read]
    assert not unread, unread


def test_no_attribute_a_private_class_stores_is_unread():
    # an attribute a private class stores on self (a work buffer, a view, a
    # table) that no expression under src/ loads is left over from a deletion;
    # an augmented assignment loads its target too
    package = Path(__file__).resolve().parents[1] / "src" / "rigiform"
    stored, loaded = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        stored |= {(path.name, cls.name, node.attr) for cls in tree.body
                   if isinstance(cls, ast.ClassDef) and cls.name.startswith("_")
                   for node in ast.walk(cls) if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Store)
                   and isinstance(node.value, ast.Name) and node.value.id == "self"}
        loaded |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load)}
        loaded |= {node.target.attr for node in ast.walk(tree) if isinstance(node, ast.AugAssign)
                   and isinstance(node.target, ast.Attribute)}
    unread = sorted(entry for entry in stored if entry[2] not in loaded)
    assert not unread, unread
