"""Command-line behavior: exit codes, output files, and determinism."""

import dataclasses
import json

import numpy as np
import pytest

from rigiform import builtin_scenario, generate_scenario, load_scenario, save_scenario
from rigiform.cli import main


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


def test_check_rejects_floppy_formation(tmp_path, capsys):
    import dataclasses

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
    path = _write_scenario(tmp_path / "square.json", sc)
    assert main(["check", path]) == 1
    assert "not infinitesimally rigid" in capsys.readouterr().out


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


def test_short_run_says_why_its_verdict_is_null(tmp_path):
    path = _triangle_file(tmp_path, t_end=0.1)
    out_dir = tmp_path / "out"
    assert main(["run", path, "--out", str(out_dir)]) == 0
    verdict = json.loads((out_dir / "verdict.json").read_text())
    assert verdict["samples"] == 11
    assert verdict["converged"] is None and verdict["rate"] is None
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


def test_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json\n")
    assert main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err


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
