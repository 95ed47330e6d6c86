"""Acceptance gate: one test per shipped criterion, stated tolerances only.

Run with -s to see one pass/fail line per criterion:

    pytest tests/test_acceptance.py -s
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from rigiform import (
    AssignmentRule,
    DisturbanceSpec,
    EdgeDisturbance,
    FormationGraph,
    Framework,
    builtin_scenario,
    certify,
    default_basis,
    edge_function,
    exosystem_initial_state,
    generate_scenario,
    integrate,
    is_infinitesimally_rigid,
    mu_closed_form,
    propagate_exosystem,
    random_trace,
    rigidity_matrix,
    s2_matrix,
    stability_matrix,
    trace_distances,
    trace_graph,
)
from rigiform.cli import main
from rigiform.scenario import canonical_json


def _report(num, label, ok, detail):
    print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def replicate_runs(tmp_path_factory):
    """One CLI replicate per built-in scenario, shared by criteria 6 and 7."""
    runs = {}
    for name in ("epuck2d", "tetra3d"):
        out = tmp_path_factory.mktemp(f"rep_{name}")
        rc = main(["replicate", name, "--out", str(out)])
        assert rc == 0, f"replicate {name} exited {rc}"
        runs[name] = out
    return runs


def test_replicate_records_are_canonical_json(replicate_runs):
    # summary.json and the legs' verdict.json hold what json.dumps would write
    for out in replicate_runs.values():
        for path in (out / "summary.json", out / "gradient" / "verdict.json",
                     out / "estimator" / "verdict.json"):
            text = path.read_text()
            record = json.loads(text)
            assert text == json.dumps(record, indent=2, sort_keys=True) + "\n"
            assert text == canonical_json(record) + "\n"


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1)


def _random_framework(rng, dim):
    n = int(rng.integers(3 if dim == 2 else 4, 9))
    trace, pts = random_trace(n, dim, rng)
    graph = trace_graph(trace)
    positions = pts + rng.uniform(-0.2, 0.2, size=pts.shape)
    return Framework(graph, dim, positions, np.ones(graph.edge_count))


def test_criterion_01_rigidity_matrix_vs_fd_jacobian():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        fw = _random_framework(rng, 2 if trial % 2 == 0 else 3)
        jac = 2.0 * rigidity_matrix(fw)
        base = fw.positions
        h = 1e-6
        cols = []
        for i in range(fw.graph.n):
            for j in range(fw.dim):
                shift = np.zeros_like(base)
                shift[i, j] = h
                plus = edge_function(fw.at_positions(base + shift))
                minus = edge_function(fw.at_positions(base - shift))
                cols.append((plus - minus) / (2.0 * h))
        fd = np.column_stack(cols)
        worst = max(worst, np.abs(fd - jac).max() / max(1.0, np.abs(jac).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 5.0
    _report(
        1,
        "edge-map Jacobian equals twice the rigidity matrix",
        ok,
        f"max relative deviation {worst:.3e} over 100 random frameworks in {elapsed:.2f} s",
    )


def test_criterion_02_rank_checks():
    tri_pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.9]])
    tri_graph = FormationGraph(3, ((1, 2), (2, 3), (1, 3)))
    tri = Framework(tri_graph, 2, tri_pts, np.ones(3))
    tri_rigid, tri_rank = is_infinitesimally_rigid(tri)

    sq_graph = FormationGraph(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
    sq_pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    square = Framework(sq_graph, 2, sq_pts, np.ones(4))
    sq_rigid, sq_rank = is_infinitesimally_rigid(square)

    bi = builtin_scenario("tetra3d").framework_target()
    bi_rigid, bi_rank = is_infinitesimally_rigid(bi)

    ok = (
        tri_rank == 3 and tri_rigid
        and sq_rank == 4 and not sq_rigid
        and bi_rank == 9 and bi_rigid
    )
    _report(
        2,
        "rigidity ranks on the reference formations",
        ok,
        f"triangle rank {tri_rank} (rigid {tri_rigid}), "
        f"square cycle rank {sq_rank} (rigid {sq_rigid}), "
        f"5-agent 3-D rank {bi_rank} (rigid {bi_rigid})",
    )


def _fat_triangle(rng, edges):
    while True:
        pts = rng.uniform(-2.0, 2.0, (3, 2))
        a, b, c = pts
        if 0.5 * abs((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0]) > 0.3:
            break
    graph = FormationGraph(3, edges)
    d = [np.linalg.norm(pts[t - 1] - pts[h - 1]) for t, h in graph.edges]
    return Framework(graph, 2, pts, d)


def test_criterion_03_every_assignment_rule_certifies():
    rng = np.random.default_rng(1003)
    tri_edges = ((1, 2), (2, 3), (1, 3))
    start = time.perf_counter()
    results = {}

    worst = -np.inf
    for _ in range(100):
        fw = _fat_triangle(rng, tri_edges)
        _, report = certify(fw, AssignmentRule("triangle_cyclic"))
        worst = max(worst, report.margin if report.hurwitz else np.inf)
    results["triangle_cyclic"] = worst

    worst = -np.inf
    for _ in range(100):
        fw = _fat_triangle(rng, tri_edges)
        root = int(rng.integers(1, 4))
        third = int(rng.choice([v for v in (1, 2, 3) if v != root]))
        _, report = certify(fw, AssignmentRule("triangle_acyclic", root=root, third=third))
        worst = max(worst, report.margin if report.hurwitz else np.inf)
    results["triangle_acyclic"] = worst

    worst = -np.inf
    for _ in range(100):
        trace, pts = random_trace(int(rng.integers(3, 8)), 2, rng)
        fw = Framework(trace_graph(trace), 2, pts, trace_distances(trace))
        _, report = certify(fw, AssignmentRule("henneberg_2d"), trace=trace)
        worst = max(worst, report.margin if report.hurwitz else np.inf)
    results["henneberg_2d"] = worst

    worst = -np.inf
    for _ in range(100):
        trace, pts = random_trace(4, 3, rng)
        fw = Framework(trace_graph(trace), 3, pts, trace_distances(trace))
        _, report = certify(fw, AssignmentRule("tetrahedron"))
        worst = max(worst, report.margin if report.hurwitz else np.inf)
    results["tetrahedron"] = worst

    worst = -np.inf
    for _ in range(100):
        trace, pts = random_trace(int(rng.integers(5, 8)), 3, rng)
        fw = Framework(trace_graph(trace), 3, pts, trace_distances(trace))
        _, report = certify(fw, AssignmentRule("growth_3d"), trace=trace)
        worst = max(worst, report.margin if report.hurwitz else np.inf)
    results["growth_3d"] = worst

    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0 and all(m < -1e-9 for m in results.values())
    detail = ", ".join(f"{k} worst margin {v:.3e}" for k, v in results.items())
    _report(3, "assignment rules give Hurwitz matrices 100/100", ok,
            f"{detail}; total {elapsed:.2f} s")


def test_criterion_04_structural_identities():
    rng = np.random.default_rng(1004)
    worst_identity = 0.0
    for _ in range(50):
        fw = _fat_triangle(rng, ((1, 2), (2, 3), (3, 1)))
        r = rigidity_matrix(fw)
        s2 = s2_matrix(fw)
        lhs = r @ s2.T + s2 @ r.T
        rhs = r @ r.T
        worst_identity = max(
            worst_identity, np.abs(lhs - rhs).max() / max(1.0, np.abs(rhs).max())
        )

    worst_eig = -np.inf
    for _ in range(50):
        trace, pts = random_trace(4, 3, rng)
        fw = Framework(trace_graph(trace), 3, pts, trace_distances(trace))
        z = stability_matrix(fw)
        block = (z[3:, 3:] + z[3:, 3:].T) / 2.0
        worst_eig = max(worst_eig, np.linalg.eigvalsh(block).max())

    ok = worst_identity < 1e-12 and worst_eig < 0.0
    _report(
        4,
        "cyclic symmetrization identity and apex Gram block",
        ok,
        f"identity deviation {worst_identity:.3e}, "
        f"largest trailing-block eigenvalue {worst_eig:.3e}",
    )


def test_criterion_05_exosystem_fidelity():
    specs = {
        0: DisturbanceSpec((), (EdgeDisturbance(1.7,), EdgeDisturbance(-0.4,))),
        1: DisturbanceSpec(
            (1.3,),
            (EdgeDisturbance(0.5, (1.1,), (0.7,)), EdgeDisturbance(-1.0, (0.3,), (-2.1,))),
        ),
        2: DisturbanceSpec(
            (0.7, 2.1),
            (
                EdgeDisturbance(0.9, (0.8, 0.2), (0.1, 1.9)),
                EdgeDisturbance(0.0, (0.4, 0.6), (-0.6, 0.4)),
            ),
        ),
    }
    worst = {}
    for p, spec in specs.items():
        basis = default_basis(spec.frequencies)
        times, states = propagate_exosystem(spec, basis, t_end=100.0, dt=1e-3,
                                            output_every=100)
        mu = states @ basis.vector
        worst[p] = float(np.abs(mu - mu_closed_form(spec, times)).max())
    ok = all(v < 1e-8 for v in worst.values())
    _report(
        5,
        "integrated exosystem output tracks the closed form over 100 s",
        ok,
        ", ".join(f"p={p}: max deviation {v:.3e}" for p, v in worst.items()),
    )


def test_criterion_06_gradient_legs_orbit_at_constant_speed(replicate_runs):
    details = []
    ok = True
    for name in ("epuck2d", "tetra3d"):
        out = replicate_runs[name]
        verdict = json.loads((out / "gradient" / "verdict.json").read_text())
        data = _read_csv(out / "gradient" / "trajectory.csv")
        sc = builtin_scenario(name)
        n = len(sc.initial_positions)
        E = len(sc.edges)
        m = sc.dim
        samples = data.shape[0]
        window = data[-math.ceil(0.2 * samples):]
        speeds = window[:, 1 + n * m + E: 1 + n * m + E + n]
        means = speeds.mean(axis=0)
        cv = speeds.std(axis=0) / means
        leg_ok = (
            verdict["orbit_detected"] is True
            and (means > 0.0).all()
            and cv.max() < 1e-3
        )
        details.append(f"{name}: mean speeds {np.round(means, 6).tolist()}, max CV {cv.max():.3e}")
        if name == "epuck2d":
            errors = window[:, 1 + n * m: 1 + n * m + E]
            e_means = errors.mean(axis=0)
            stride = window[1, 0] - window[0, 0]
            e_dot = np.abs(errors[2:] - errors[:-2]).max() / (2.0 * stride)
            leg_ok = leg_ok and (np.abs(e_means) > 1e-3).all() and e_dot < 1e-6
            details[-1] += (
                f", steady |e| range [{np.abs(e_means).min():.3f}, {np.abs(e_means).max():.3f}]"
                f", max |de/dt| {e_dot:.3e}"
            )
        ok = ok and leg_ok
    _report(6, "uncompensated runs settle into constant-speed orbits", ok, "; ".join(details))


def test_criterion_07_estimator_legs_converge_and_recover_mu(replicate_runs):
    details = []
    ok = True
    for name in ("epuck2d", "tetra3d"):
        out = replicate_runs[name]
        summary = json.loads((out / "summary.json").read_text())
        leg = summary["legs"]["estimator"]
        data = _read_csv(out / "estimator" / "trajectory.csv")
        sc = builtin_scenario(name)
        n = len(sc.initial_positions)
        E = len(sc.edges)
        m = sc.dim
        final_speeds = data[-1, 1 + n * m + E: 1 + n * m + E + n]
        recovery = summary["mu_recovery_relative_error"]
        leg_ok = (
            leg["converged"] is True
            and leg["final_error"] < 1e-6
            and final_speeds.max() < 1e-6
            and recovery is not None and recovery < 0.01
            and leg["rate"] is not None and leg["rate"] < 0.0
            and leg["rate_r_squared"] > 0.98
            and leg["wall_seconds"] < 60.0
        )
        details.append(
            f"{name}: final error {leg['final_error']:.3e}, max final speed "
            f"{final_speeds.max():.3e}, mu recovery {recovery:.3e}, rate {leg['rate']:.4f} "
            f"(r^2 {leg['rate_r_squared']:.4f}), wall {leg['wall_seconds']:.1f} s"
        )
        ok = ok and leg_ok
    _report(7, "estimator runs converge and recover the disturbance", ok, "; ".join(details))


def test_criterion_08_invariant_set_is_stationary():
    base = builtin_scenario("epuck2d")
    w0 = exosystem_initial_state(base.disturbance, base.basis()).w
    sc = dataclasses.replace(
        base,
        initial_positions=base.target_positions,
        xi0=tuple(tuple(row) for row in w0),
        t_end=50.0,
    )
    traj = integrate(sc)
    top = float(traj.speeds.max())
    ok = not traj.diverged and top < 1e-10
    _report(
        8,
        "zero-error, matched-estimator start stays put for 50 s",
        ok,
        f"max agent speed {top:.3e}",
    )


def test_criterion_09_gradient_descends_the_potential():
    worst = -np.inf
    checked = 0
    for seed in range(20):
        dim = 2 if seed % 2 == 0 else 3
        n = 3 + (seed % 4) if dim == 2 else 4 + (seed % 3)
        sc = generate_scenario(n, dim, seed=seed)
        quiet = DisturbanceSpec(
            sc.disturbance.frequencies,
            tuple(
                EdgeDisturbance(0.0, (0.0,) * sc.disturbance.p, (0.0,) * sc.disturbance.p)
                for _ in range(len(sc.edges))
            ),
        )
        run = dataclasses.replace(
            sc, mode="gradient_only", disturbance=quiet, t_end=3.0, output_every=10
        )
        traj = integrate(run)
        assert not traj.diverged
        phi = 0.25 * (traj.errors ** 2).sum(axis=1)
        worst = max(worst, float(np.diff(phi).max()))
        checked += 1
    ok = checked == 20 and worst <= 1e-12
    _report(
        9,
        "quiet gradient flow never increases the shape potential",
        ok,
        f"largest potential increment {worst:.3e} over {checked} random rigid scenarios",
    )


def test_criterion_10_bit_identical_reruns(tmp_path):
    gen_a = tmp_path / "a.json"
    gen_b = tmp_path / "b.json"
    assert main(["generate", "--n", "5", "--dim", "2", "--seed", "7", "--out", str(gen_a)]) == 0
    assert main(["generate", "--n", "5", "--dim", "2", "--seed", "7", "--out", str(gen_b)]) == 0
    gen_same = gen_a.read_bytes() == gen_b.read_bytes()

    run_a = tmp_path / "run_a"
    run_b = tmp_path / "run_b"
    sc = dataclasses.replace(builtin_scenario("epuck2d"), t_end=5.0)
    sc_path = tmp_path / "short.json"
    from rigiform import save_scenario

    save_scenario(sc, sc_path)
    assert main(["run", str(sc_path), "--out", str(run_a)]) == 0
    assert main(["run", str(sc_path), "--out", str(run_b)]) == 0
    traj_same = (run_a / "trajectory.csv").read_bytes() == (run_b / "trajectory.csv").read_bytes()
    verdict_same = (run_a / "verdict.json").read_bytes() == (run_b / "verdict.json").read_bytes()

    ok = gen_same and traj_same and verdict_same
    _report(
        10,
        "generation and simulation are bit-identical across reruns",
        ok,
        f"scenario files identical {gen_same}, trajectories identical {traj_same}, "
        f"verdicts identical {verdict_same}",
    )
