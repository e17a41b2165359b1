import argparse
import concurrent.futures
import errno
import gc
import hashlib
import json
import math
import os
import random
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

import kurapart as kp
from kurapart import bipartition_analysis as ban
from kurapart import cli
from kurapart.cli import _sync_report_json, main
from oracle_tools import sync_report_slow, trajectory_from_csv


def run(*argv):
    return main([str(a) for a in argv])


def _never(*args, **kwargs):
    raise AssertionError("this path must not be reached")


def _child(*args, **kwargs):
    """A new interpreter run with args, importing kurapart from this tree.
    Its stdout is block-buffered, as it is for a user: under
    PYTHONUNBUFFERED a failed write raises inside main, not at the flush
    before the exit."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(kp.__file__))
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, *map(str, args)], env=env, timeout=120, **streams)


def _fresh_python(code, *args):
    """Standard output of code run with args in a new interpreter."""
    done = _child("-c", code, *args, text=True, check=True)
    return done.stdout


class TestSimulate:
    def test_writes_csv_and_report(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run(
            "simulate",
            "--builtin", "linear:4",
            "--init-cert", "--alpha-from-cert",
            "--t-end", 10,
            "--out", out,
        )
        assert code == 0
        traj = trajectory_from_csv(out.read_text())
        assert traj.dimension == 9
        assert traj.times[-1] == 10.0
        report = json.loads((tmp_path / "traj.sync.json").read_text())
        assert report["exact"]["blocks"] == [[1], [2, 3, 4, 5, 6, 7, 8, 9]]

    def test_zero_horizon_one_row(self, tmp_path):
        out = tmp_path / "z.csv"
        code = run(
            "simulate", "--builtin", "cycle:4",
            "--alpha", 0.5, "--init-equal", 0.0,
            "--t-end", 0, "--out", out,
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 2

    @pytest.mark.parametrize("method", [(), ("--method", "rk4", "--dt", 0.1)], ids=["rk45", "rk4"])
    def test_horizon_below_min_step_two_rows(self, tmp_path, method):
        # rk45 takes the whole horizon as one clipped step; rk4 takes none
        out = tmp_path / "h.csv"
        code = run(
            "simulate", "--builtin", "cycle:4",
            "--alpha", 0.5, "--init-equal", 0.0,
            "--t-end", 1e-13, *method, "--out", out,
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 3

    def test_equal_init_single_block(self, tmp_path):
        out = tmp_path / "eq.csv"
        run(
            "simulate", "--builtin", "cycle:4",
            "--alpha", 0.7853981634, "--init-equal", 0.0,
            "--t-end", 10, "--out", out,
        )
        report = json.loads((tmp_path / "eq.sync.json").read_text())
        assert report["exact"]["blocks"] == [[1, 2, 3, 4]]

    def test_random_init_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(
                "simulate", "--builtin", "cycle:5",
                "--alpha", 0.6, "--init-random", "--seed", 42,
                "--t-end", 2, "--out", out,
            )
        assert a.read_text() == b.read_text()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out, seed in ((a, 1), (b, 2)):
            run(
                "simulate", "--builtin", "cycle:5",
                "--alpha", 0.6, "--init-random", "--seed", seed,
                "--t-end", 2, "--out", out,
            )
        assert a.read_text() != b.read_text()

    @pytest.mark.parametrize("n", [1, 2, 5, 48, 200, 1000])
    def test_random_phases_are_numpys_pcg64_stream(self, n):
        # SeedSequence splits a seed into 32-bit words and mixes in those past
        # the fourth one by one, so the seeds straddle each word boundary
        bits = random.Random(2026)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 1, 2**300 - 3]
        seeds += [bits.getrandbits(bits.randint(1, 300)) for _ in range(200)]
        for seed in seeds:
            got = np.array(cli._pcg64_uniform_phases(seed, n))
            want = np.random.Generator(np.random.PCG64(seed)).uniform(0.0, 2.0 * math.pi, n)
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), seed

    def test_random_init_csv_starts_on_numpys_draw(self, tmp_path):
        out = tmp_path / "r.csv"
        seed = 2**64 + 5
        code = run(
            "simulate", "--builtin", "cycle:7",
            "--alpha", 0.6, "--init-random", "--seed", seed,
            "--t-end", 1, "--out", out,
        )
        assert code == 0
        want = np.random.Generator(np.random.PCG64(seed)).uniform(0.0, 2.0 * math.pi, 7)
        first = trajectory_from_csv(out.read_text()).initial_state()
        assert first.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_init_blocks(self, tmp_path):
        out = tmp_path / "blk.csv"
        code = run(
            "simulate", "--builtin", "star:4",
            "--alpha", 0.7, "--init-blocks", "0.0,1.0",
            "--t-end", 1, "--out", out,
        )
        assert code == 0
        traj = trajectory_from_csv(out.read_text())
        assert traj.initial_state()[0] == 0.0
        assert np.all(traj.initial_state()[1:] == 1.0)

    def test_rk4_method(self, tmp_path):
        out = tmp_path / "rk4.csv"
        code = run(
            "simulate", "--builtin", "cycle:4",
            "--alpha", 0.5, "--init-equal", 0.0,
            "--method", "rk4", "--dt", 0.1,
            "--t-end", 1, "--out", out,
        )
        assert code == 0
        traj = trajectory_from_csv(out.read_text())
        assert traj.n_recorded == 11

    @pytest.mark.parametrize(
        "method, extra, per_step",
        [("rk45", [], 6), ("rk4", ["--dt", 0.1], 4)],
        ids=["rk45", "rk4"],
    )
    def test_solver_block_counts_steps(self, tmp_path, method, extra, per_step):
        out = tmp_path / "s.csv"
        code = run(
            "simulate", "--builtin", "complete:6",
            "--alpha", 1.0, "--init-random", "--seed", 0,
            "--method", method, *extra,
            "--t-end", 5, "--out", out,
        )
        assert code == 0
        solver = json.loads((tmp_path / "s.sync.json").read_text())["solver"]
        steps = solver["accepted"] + solver["rejected"]
        assert solver["rhs_calls"] == 1 + per_step * steps
        # record_every 1 records every accepted step after the initial row
        assert solver["accepted"] == trajectory_from_csv(out.read_text()).n_recorded - 1
        assert solver["method"] == method
        assert (solver["rel_tol"], solver["abs_tol"]) == (1e-9, 1e-11)
        assert solver["dt"] == (0.1 if method == "rk4" else None)
        assert 0.0 < solver["h_min"] <= solver["h_max"]

    def test_existing_file_replaced(self, tmp_path):
        out = tmp_path / "x.csv"
        out.write_text("old content")
        run(
            "simulate", "--builtin", "cycle:4",
            "--alpha", 0.5, "--init-equal", 0.0,
            "--t-end", 1, "--out", out,
        )
        assert out.read_text().startswith("t,theta_1")

    def test_requires_exactly_one_init(self, tmp_path):
        code = run(
            "simulate", "--builtin", "cycle:4", "--alpha", 0.5,
            "--t-end", 1, "--out", tmp_path / "x.csv",
        )
        assert code == 3

    def test_requires_alpha(self, tmp_path):
        code = run(
            "simulate", "--builtin", "cycle:4", "--init-equal", 0.0,
            "--t-end", 1, "--out", tmp_path / "x.csv",
        )
        assert code == 3

    @pytest.mark.parametrize(
        "flag", ["--rel-tol", "--abs-tol", "--lambda"], ids=["rel-tol", "abs-tol", "lambda"]
    )
    def test_infinite_tolerance_or_gain_rejected(self, tmp_path, flag):
        # an infinite tolerance leaves the step uncontrolled and an infinite
        # gain makes every step non-finite; both are bad parameters
        out = tmp_path / "x.csv"
        code = run(
            "simulate", "--builtin", "cycle:6", "--alpha", 0.5,
            "--init-random", flag, "inf", "--out", out,
        )
        assert code == 3
        assert not out.exists()


def _tail_trajectory():
    # an exact pair, a chained triple, a converging pair and a stray phase
    t = np.linspace(0.0, 50.0, 101)
    drift = 0.1 * t
    states = np.column_stack(
        [drift, drift, drift + np.exp(-t), drift + 6e-7, drift + 1.2e-6, np.cos(t)]
    )
    return kp.Trajectory(t, states)


def _short_trajectory():
    t = np.linspace(0.0, 1.0, 20)
    return kp.Trajectory(t, np.column_stack([t, t, 1 - t]))


class TestSyncReport:
    @pytest.mark.parametrize(
        "make, digest, digest_0_1_0",
        [
            (
                _tail_trajectory,
                "8f224947544a465e7da5764928f457ed680b8c458be68525c6922421df8b54b8",
                "98d2019e7fcc2737cd5c405913e34f973b1334ef052c0e901dbe854acd82f7d7",
            ),
            (
                _short_trajectory,
                "594802dab9bad19ec9f0296e826b060a54202bcaa33fa2d6ded63b9abd604d03",
                "594802dab9bad19ec9f0296e826b060a54202bcaa33fa2d6ded63b9abd604d03",
            ),
        ],
        ids=["with-tail", "too-short"],
    )
    def test_bytes_match_0_1_0(self, monkeypatch, make, digest, digest_0_1_0):
        # digest_0_1_0 is the report 0.1.0 wrote, which listed every pair;
        # this version drops the desynchronised pairs and changes nothing else
        traj = make()
        args = argparse.Namespace(sync_tol=1e-6, tail_fraction=0.2, tail_tol=1e-4)
        text = _sync_report_json(traj, args, kp.ModelParams(alpha=0.7))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        exact = kp.asymptotic_sync_clusters(traj, exact_tol=1e-6).exact_partition
        assert json.loads(text)["exact"]["blocks"] == [list(b) for b in exact.blocks]

        monkeypatch.setattr(kp.dynamics, "asymptotic_sync_clusters", sync_report_slow)
        old_text = _sync_report_json(traj, args, kp.ModelParams(alpha=0.7))
        assert hashlib.sha256(old_text.encode()).hexdigest() == digest_0_1_0
        old = json.loads(old_text)
        if old["tail"] is not None:
            old["tail"]["pairs"] = [p for p in old["tail"]["pairs"] if p[2] != "desynchronised"]
        assert json.loads(text) == old

    @pytest.mark.parametrize("points", [5, 101], ids=["too-short", "with-tail"])
    def test_chained_pairs_reported_with_or_without_tail(self, points):
        t = np.linspace(0.0, 1.0, points)
        traj = kp.Trajectory(t, np.column_stack([t, t + 6e-7, t + 1.2e-6]))
        args = argparse.Namespace(sync_tol=1e-6, tail_fraction=0.2, tail_tol=1e-4)
        payload = json.loads(_sync_report_json(traj, args, kp.ModelParams(alpha=0.7)))
        assert (payload["tail"] is None) == (points == 5)
        assert payload["exact"]["blocks"] == [[1, 2, 3]]
        [[i, j, gap]] = payload["exact"]["chained_pairs"]
        assert (i, j) == (1, 3) and gap == pytest.approx(1.2e-6)


class TestAnalyze:
    def test_stdout_report(self, capsys):
        code = run("analyze", "--builtin", "latoro")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classification"] == "Condition2Unique"
        assert payload["mu1"] == "-1/2"
        assert payload["residual"] <= 1e-9

    def test_report_file(self, tmp_path):
        dest = tmp_path / "r.json"
        code = run("analyze", "--builtin", "linear:6", "--report", dest)
        assert code == 0
        payload = json.loads(dest.read_text())
        assert payload["mu1"] == "-1/3"

    def test_partition_file(self, tmp_path, capsys):
        part = tmp_path / "p.json"
        part.write_text(json.dumps({"blocks": [[1, 2], [3, 4]]}))
        graph = tmp_path / "c4.edges"
        graph.write_text("n 4\n1 2\n2 3\n3 4\n4 1\n")
        code = run("analyze", "--graph", graph, "--partition", part)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classification"] == "Equitable"

    def test_multiblock_falls_back_to_equitable_check(self, tmp_path, capsys):
        part = tmp_path / "p.json"
        part.write_text(json.dumps({"blocks": [[1], [2, 4], [3]]}))
        code = run("analyze", "--builtin", "cycle:4", "--partition", part)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classification"] == "Equitable"
        assert payload["gamma"] == [[0, 2, 0], [1, 0, 1], [0, 2, 0]]

    def test_needs_partition(self):
        assert run("analyze", "--builtin", "cycle:4") == 3

    def test_boundary_with_zero_lag_has_no_residual(self, tmp_path, capsys):
        # mu1 + mu2 = -2 collapses the lag to 0, outside the model range
        graph = tmp_path / "g.edges"
        graph.write_text("1 2\n1 4\n2 3\n2 4\n")
        part = tmp_path / "p.json"
        part.write_text(json.dumps({"blocks": [[1, 2, 4], [3]]}))
        assert run("analyze", "--graph", graph, "--partition", part) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classification"] == "Boundary"
        assert (payload["mu1"], payload["mu2"]) == ("0", "-2")
        assert payload["alpha"] == 0.0
        assert payload["flags"]["offset_at_limit"]
        assert payload["residual"] is None


    @pytest.mark.parametrize(
        "graph, blocks, digest",
        [
            ("latoro", None, "f4920693b3cc42ca082022904043100d7a4b358516b7e956a5e050ff10a25947"),
            ("kura-eg", None, "1f6e306fae1cbba195805157a24e3182288145e070d8d7dc87347c5819fa8528"),
            ("linear:6", None, "13a4fda853186a0cc86c5af075bf7672f026d3188885d25990e513c155e67c23"),
            ("star:3", None, "8d7d6d10d4507a8336e1ceb6c1d60e288a629100a00e472b629954b40b5b1390"),
            ("cycle:4", [[1, 2], [3, 4]],
             "5a973c56fc4b5d99d2a78df8c3fe5b165d89cdc86bc7a4488ce53a4d1392b02d"),
            ("complete:6", [[1, 2], [3, 4, 5, 6]],
             "dca5f4374239bc73ae0fee004516600c76a25fde243c0c0da4f17d884f00ca77"),
            ("cycle:4", [[1], [2, 4], [3]],
             "4e1b621448c0f4c96f976e012df536e3af197277328fd5f6d5a1e353f5beee0d"),
            ("cycle:4", [[1], [2, 3], [4]],
             "8ffaf98b3375eb801447b04260f157ccb7ab4a0fcd30e79536e763f580b24cb2"),
            ("1 2\n1 4\n2 3\n2 4\n", [[1, 2, 4], [3]],
             "ac3a7e55c7fd0464ad1c925b6ffd497d8789fe65fdd1c94ac337cbf2fae38a24"),
        ],
        ids=["latoro", "kura-eg", "linear:6", "star:3", "cycle:4-halves", "complete:6-2+4",
             "cycle:4-equitable-3", "cycle:4-not-equitable", "zero-lag"],
    )
    def test_bytes_pinned(self, tmp_path, capsys, graph, blocks, digest):
        # the stdout of analyze before its count table and result record were
        # shared with the search; certificates, families and quotients alike
        if "\n" in graph:
            (tmp_path / "g.edges").write_text(graph)
            argv = ["--graph", tmp_path / "g.edges"]
        else:
            argv = ["--builtin", graph]
        if blocks is not None:
            (tmp_path / "p.json").write_text(json.dumps({"blocks": blocks}))
            argv += ["--partition", tmp_path / "p.json"]
        assert run("analyze", *argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestSearch:
    def test_stdout(self, capsys):
        code = run("search", "--builtin", "cycle:4")
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1].startswith("# total=7")

    def test_out_file_and_jobs(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run("search", "--builtin", "linear:4", "--jobs", 1, "--out", a) == 0
        assert run("search", "--builtin", "linear:4", "--jobs", 4, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().strip().splitlines()) == 256

    def test_cap_enforced(self):
        assert run("search", "--builtin", "cycle:23") == 3

    def test_one_process_unless_jobs_given(self, monkeypatch, capsys):
        # a pool costs more than it saves on two cpus, so it is opt-in
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _never)
        assert run("search", "--builtin", "linear:4") == 0
        assert capsys.readouterr().out.strip().splitlines()[-1].startswith("# total=255 ")

    @pytest.mark.parametrize(
        "name, flags",
        [
            ("cycle:200000", []),
            ("linear:20", []),
            ("complete:23", []),
            ("star:63", ["--force"]),
            ("path:64", ["--force"]),
        ],
    )
    def test_builtin_size_cap_checked_before_building(self, monkeypatch, name, flags):
        for kind in ("cycle", "linear_family", "complete", "star", "path"):
            monkeypatch.setattr(cli.gc, f"{kind}_graph", _never)
        assert run("search", "--builtin", name, *flags) == 3

    @pytest.mark.parametrize("header", [True, False], ids=["n-header", "largest-label"])
    def test_graph_file_size_cap_checked_before_building(self, monkeypatch, tmp_path, header):
        n = 200_000
        lines = [f"n {n}"] * header + [f"{v} {v % n + 1}" for v in range(1, n + 1)]
        path = tmp_path / "cycle.edges"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(cli.gc, "from_edge_list", _never)
        assert run("search", "--graph", path) == 3

    def test_graph_file_size_cap_keeps_the_child_small(self, tmp_path):
        n = 200_000
        path = tmp_path / "cycle.edges"
        path.write_text("".join(f"{v} {v % n + 1}\n" for v in range(1, n + 1)))
        # A child's peak RSS includes its parent's at the fork, so a small
        # interpreter, not this test process, starts the CLI and measures it.
        probe = (
            "import os, subprocess, sys\n"
            "child = subprocess.Popen([sys.executable, '-m', 'kurapart.cli', 'search', "
            "'--graph', sys.argv[1]], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)\n"
            "_, status, usage = os.wait4(child.pid, 0)\n"
            "child.returncode = os.waitstatus_to_exitcode(status)\n"
            "print(child.returncode, usage.ru_maxrss / 1024)\n"
        )
        code, peak_mb = _fresh_python(probe, path).split()
        assert code == "3"
        # building the graph first peaked near 139 MB
        assert float(peak_mb) < 70

    @pytest.mark.parametrize(
        "name", ["linear:4", "star:6", "cycle:10", "complete:5", "path:5", "latoro", "petersen"]
    )
    def test_builtin_vertex_count_read_from_name(self, name):
        seen = []
        g, _ = cli._builtin(name, seen.append)
        assert seen == ([g.n] if ":" in name else [])

    def test_zero_jobs_rejected(self):
        assert run("search", "--builtin", "linear:4", "--jobs", 0) == 3

    @pytest.mark.parametrize(
        "name, graph", [("complete:5", kp.complete_graph(5)), ("path:5", kp.path_graph(5))]
    )
    def test_builtin_names(self, capsys, name, graph):
        assert run("search", "--builtin", name) == 0
        assert capsys.readouterr().out == kp.format_search_report(kp.search_all_bipartitions(graph))

    @pytest.mark.parametrize("length", [0, 2**20 - 1, 2**20, 2**20 + 1])
    def test_atomic_write_in_slices(self, tmp_path, length):
        # consecutive numbers, so a lost, doubled or reordered slice shows
        text = "".join(f"{i}\n" for i in range(200_000))[:length]
        assert len(text) == length
        target = tmp_path / "out.txt"
        cli._atomic_write(str(target), text)
        assert target.read_text() == text
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_single_vertex_file_has_no_bipartitions(self, tmp_path, capsys):
        graph = tmp_path / "one.edges"
        graph.write_text("n 1\n")
        assert run("search", "--graph", graph) == 3
        assert "bipartitions need n >= 2" in capsys.readouterr().err

    def test_failed_write_keeps_target_and_leaves_no_temp_file(self, monkeypatch, tmp_path):
        target = tmp_path / "report.txt"
        target.write_text("old content")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        assert run("search", "--builtin", "cycle:4", "--out", target) == 2
        assert target.read_text() == "old content"
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "builtin, digest",
        [
            ("linear:6", "ae17bf4a9aaec7991bd01c61dfc49295020395c1d539d65cf40f0a15b177c56d"),
            ("petersen", "a8961e1f0e9751dfeb6fe0d0f79ec5f339b6a9d84a29e319a30a725cdb625503"),
            ("kura-eg", "b98551f5fabc84abd35f4e8fc0ba28fa85d0ed019b686b8cbb8aebfb450ac4d0"),
            ("latoro", "0142173aaf0c232c0ae7c243759adbd88207a9b5c7da896dc405e09b1590d9f5"),
            ("cycle:10", "6fd1d19b807603e0d2b8f3449218512f08a384bb4cff438f932aff8e3a204fa7"),
            ("star:6", "4f901f0e913d17531dbdb91de18bf3ab2a81006db4e6104b422cc9ae333ad207"),
        ],
    )
    def test_bytes_match_0_1_0(self, capsys, builtin, digest, jobs):
        # digests of the report 0.1.0 wrote for the same graph
        assert run("search", "--builtin", builtin, "--jobs", jobs) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


    def test_stats_on_stderr_leave_the_report_unchanged(self, capsys, tmp_path):
        digest = "ae17bf4a9aaec7991bd01c61dfc49295020395c1d539d65cf40f0a15b177c56d"  # linear:6, above
        fields = {
            "rows", "nonempty_rows", "distinct_tails", "nodes", "pruned",
            "search_s", "format_s", "write_s", "rows_per_s",
        }
        assert run("search", "--builtin", "linear:6", "--stats") == 0
        out, err = capsys.readouterr()
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        stats = json.loads(err)
        assert set(stats) == fields
        assert stats["rows"] == 2**12 - 1
        assert (stats["nonempty_rows"], stats["distinct_tails"]) == (9, 5)
        # TestBatchSearch ties both counts to a brute-force walk of the tree
        assert (stats["nodes"], stats["pruned"]) == (866, 425)
        assert min(stats[k] for k in ("search_s", "format_s", "write_s", "rows_per_s")) > 0
        target = tmp_path / "report.txt"
        assert run("search", "--builtin", "linear:6", "--stats", "--out", target) == 0
        out, err = capsys.readouterr()
        assert out == ""
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest
        assert set(json.loads(err)) == fields
        assert run("search", "--builtin", "linear:6") == 0
        assert capsys.readouterr().err == ""


class TestVerify:
    def test_all_pass(self, capsys):
        assert run("verify", "--example", "all") == 0
        out = capsys.readouterr().out
        assert "verify: PASS" in out
        assert "FAIL" not in out

    def test_linear_p6(self, capsys):
        assert run("verify", "--example", "linear", "--p", 6) == 0
        assert "linear p=6" in capsys.readouterr().out

    def test_regular_custom_alpha(self):
        assert run("verify", "--example", "regular", "--d", 2, "--alpha", 1.2) == 0

    def test_failed_check_exits_1(self, monkeypatch, capsys):
        # a star stands in for the latoro graph: its bipartition is equitable
        # and carries no certificate, so the gains check fails and no other runs
        monkeypatch.setattr(cli.gc, "latoro_profile_graph", lambda: kp.star_graph(6))
        assert run("verify", "--example", "latoro") == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["latoro gains: Equitable no certificate FAIL", "verify: FAIL (1 check(s))"]

    def test_certified_examples_share_check_labels(self, capsys):
        for example in ("linear", "latoro", "kura-eg"):
            assert run("verify", "--example", example) == 0
        labels = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        for name in ("linear p=4", "latoro", "kura-eg"):
            for check in ("gains", "angles", "residual"):
                assert f"{name} {check}" in labels
        assert "linear p=4 slope identity" in labels


# the process pool's packages; a search loads them only for --jobs > 1
POOL = ["concurrent", "multiprocessing"]
# numpy 1.x imports numpy.random and numpy.ma with numpy itself; numpy 2
# loads them on first use (np.unique, for one, loads numpy.ma)
NUMPY_LAZY = ["numpy.random", "numpy.ma"] if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else []
# what argparse loads; a well-formed run parses its argv without it
ARGPARSE = ["argparse", "gettext", "locale"]


class TestStartUp:
    """Each run imports only the layers its subcommand uses: the integrator,
    the bipartition layer, the exact rationals and the process pool each
    cost milliseconds.  Records are NamedTuples and plain classes, so no
    run loads dataclasses, a search loads neither inspect nor json, and a
    well-formed argv is parsed without argparse."""

    @pytest.mark.parametrize(
        "argv, unloaded",
        [
            (
                [],
                ["kurapart.dynamics", "kurapart.bipartition_analysis", "fractions", *POOL,
                 "dataclasses", "inspect", *ARGPARSE],
            ),
            (
                ["simulate", "--builtin", "cycle:8", "--alpha", "0.5", "--init-random",
                 "--seed", "1", "--t-end", "1", "--out", "x.csv"],
                ["kurapart.bipartition_analysis", "fractions", "dataclasses", *NUMPY_LAZY,
                 *ARGPARSE],
            ),
            (
                ["search", "--builtin", "cycle:8", "--out", "x.txt"],
                ["kurapart.dynamics", "numpy", *POOL, "dataclasses", "inspect", "json",
                 *ARGPARSE],
            ),
            (
                # an uncertified row: its counts are Python ints
                ["analyze", "--builtin", "star:5", "--report", "x.json"],
                ["kurapart.dynamics", "numpy", *POOL, "dataclasses", *ARGPARSE],
            ),
            (
                # a certified row loads the integrator for its residual,
                # which TestAnalyze checks
                ["analyze", "--builtin", "latoro", "--report", "x.json"],
                [*POOL, "dataclasses", *ARGPARSE],
            ),
        ],
        ids=["import-cli", "simulate-random", "search", "analyze-uncertified", "analyze-certified"],
    )
    def test_run_leaves_other_layers_unloaded(self, tmp_path, argv, unloaded):
        probe = (
            "import os, sys\n"
            "from kurapart import cli\n"
            "os.chdir(sys.argv[1])\n"
            "code = cli.main(sys.argv[2:]) if sys.argv[2:] else 0\n"
            "print(code, *sorted(sys.modules))\n"
        )
        code, *loaded = _fresh_python(probe, tmp_path, *argv).split()
        assert code == "0"
        assert [m for m in unloaded if m in loaded] == []

    def test_search_imports_no_numpy(self):
        child = _child("-X", "importtime", "-m", "kurapart.cli", "search", "--builtin", "linear:6")
        imported = [line.rsplit("|", 1)[-1].strip() for line in child.stderr.decode().splitlines()]
        # the whole report, and the import lines of a module it needs
        assert hashlib.sha256(child.stdout).hexdigest().startswith("ae17bf4a")
        assert "fractions" in imported
        assert [m for m in imported if m.split(".")[0] == "numpy"] == []
        # the layers load through the package's __getattr__, which importtime
        # sees only when it imports them with __import__
        assert {"kurapart.graph_core", "kurapart.bipartition_analysis"} <= set(imported)
        assert "kurapart.dynamics" not in imported

    def test_simulate_importtime_reports_its_layers(self, tmp_path):
        argv = ["simulate", "--builtin", "cycle:8", "--alpha", "0.5", "--init-random",
                "--seed", "1", "--t-end", "1", "--out", "x.csv"]
        child = _child("-X", "importtime", "-m", "kurapart.cli", *argv, cwd=tmp_path)
        imported = [line.rsplit("|", 1)[-1].strip() for line in child.stderr.decode().splitlines()]
        assert child.returncode == 0
        assert {"kurapart.graph_core", "kurapart.dynamics"} <= set(imported)
        assert "kurapart.bipartition_analysis" not in imported

    @pytest.mark.parametrize(
        "name, loaded",
        [
            (
                "classify_bipartition",
                ["kurapart.bipartition_analysis", "kurapart.errors", "kurapart.graph_core"],
            ),
            ("clasify_bipartition", []),
        ],
    )
    def test_name_imports_only_its_module(self, name, loaded):
        probe = (
            "import sys, kurapart\n"
            "before = set(sys.modules)\n"
            "getattr(kurapart, sys.argv[1], None)\n"
            "print(*sorted(set(sys.modules) - before))\n"
        )
        new = _fresh_python(probe, name).split()
        assert [m for m in new if m.startswith("kurapart.")] == loaded
        if not loaded:
            assert new == []  # a misspelt name imports nothing at all

    def test_dir_lists_every_public_name(self):
        assert set(kp.__all__) <= set(dir(kp))

    def test_star_import_binds_every_public_name(self):
        probe = (
            "from kurapart import *\n"
            "import kurapart\n"
            "print(len(kurapart.__all__), *[n for n in kurapart.__all__ if n not in globals()])\n"
        )
        count, *missing = _fresh_python(probe).split()
        assert missing == []
        assert int(count) == len(kp.__all__) > 0


def _pop_files(directory):
    """The bytes of every file in directory, which is left empty."""
    files = {}
    for path in sorted(directory.iterdir()):
        files[path.name] = path.read_bytes()
        path.unlink()
    return files


def _unnamed_temps(text):
    return re.sub(r"\.tmp\.\w+\.part", ".tmp.*.part", text)


class TestProcessEntry:
    """`python -m kurapart.cli` and the `kurapart` script end through
    cli.run, which flushes stdout and stderr and exits without the
    interpreter's teardown: a child must write and exit as main does."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--builtin", "linear:4"],
            ["search", "--builtin", "linear:4", "--jobs", "2"],
            ["search", "--builtin", "linear:4", "--out", "r.txt"],
            ["search", "--builtin", "linear:4", "--jobs", "2", "--out", "r.txt"],
            ["simulate", "--builtin", "cycle:8", "--alpha", "0.5", "--init-random",
             "--seed", "1", "--t-end", "1", "--out", "x.csv"],
            ["analyze", "--builtin", "latoro"],
            ["verify"],
            ["search", "--builtin", "linear:4", "--no-such-option"],
            ["search", "--builtin", "linear:4", "--out", "missing/r.txt"],
        ],
        ids=["search", "search-jobs2", "search-out", "search-jobs2-out", "simulate",
             "analyze", "verify", "exit3-bad-option", "exit2-missing-dir"],
    )
    def test_child_writes_and_exits_as_main_does(self, tmp_path, monkeypatch, capsys, argv):
        # _child's timeout also shows that no --jobs worker outlives the run:
        # one would hold the stdout pipe open and communicate() would wait
        child = _child("-m", "kurapart.cli", *argv, cwd=tmp_path)
        child_files = _pop_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        code = main(argv)
        out, err = capsys.readouterr()
        assert child.returncode == code
        assert child.stdout == out.encode()
        # a temp file's random name shows in the error of a missing directory
        assert _unnamed_temps(child.stderr.decode()) == _unnamed_temps(err)
        assert child_files == _pop_files(tmp_path)

    @pytest.mark.parametrize("sink", ["dev-full", "closed-pipe"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--example", "latoro"],
            ["analyze", "--builtin", "latoro"],
            ["search", "--builtin", "path:3"],  # fits the buffer: fails at main's flush
            ["search", "--builtin", "linear:6"],  # outgrows it: fails in the write
            ["--help"],  # argparse raises SystemExit(0) once the help is buffered
            ["search", "--help"],
        ],
        ids=["verify", "analyze", "search-small", "search-large", "help", "search-help"],
    )
    def test_failed_write_to_stdout_exits_2(self, argv, sink):
        if sink == "dev-full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full here")
            stdout, errno_ = os.open("/dev/full", os.O_WRONLY), errno.ENOSPC
        else:
            read_end, stdout = os.pipe()
            os.close(read_end)
            errno_ = errno.EPIPE
        try:
            child = _child("-m", "kurapart.cli", *argv, stdout=stdout)
        finally:
            os.close(stdout)
        assert child.returncode == 2
        assert child.stderr.decode() == f"error: [Errno {errno_}] {os.strerror(errno_)}\n"

    def test_profiled_run_prints_its_table(self):
        child = _child("-m", "cProfile", "-m", "kurapart.cli", "verify", "--example", "latoro")
        out = child.stdout.decode()
        assert child.returncode == 0
        assert "verify: PASS" in out
        assert "function calls" in out and "Ordered by" in out

    @pytest.mark.skipif(sys.version_info < (3, 12), reason="sys.monitoring is new in 3.12")
    def test_monitored_run_lets_the_tool_report(self):
        # a sys.monitoring tool, like a profiler, reports after the program returns
        probe = (
            "import atexit, sys\n"
            "from kurapart import cli\n"
            "sys.monitoring.use_tool_id(sys.monitoring.PROFILER_ID, 'probe')\n"
            "atexit.register(print, 'tool report')\n"
            "sys.argv[1:] = ['search', '--builtin', 'linear:4']\n"
            "cli.run()\n"
        )
        child = _child("-c", probe)
        assert child.returncode == 0
        assert child.stdout.decode().endswith("\ntool report\n")

    def test_run_turns_the_collector_off_before_main(self):
        probe = (
            "import gc\n"
            "from kurapart import cli\n"
            "def record(argv=None):\n"
            "    print('collector on:', gc.isenabled())\n"
            "    return 0\n"
            "cli.main = record\n"
            "cli.run()\n"
        )
        child = _child("-c", probe)
        assert child.returncode == 0
        assert child.stdout.decode() == "collector on: False\n"

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--builtin", "linear:4", "--out", "r.txt"],
            ["simulate", "--builtin", "cycle:8", "--alpha", "0.5", "--init-random",
             "--seed", "1", "--t-end", "1", "--out", "x.csv"],
        ],
        ids=["search", "simulate"],
    )
    def test_main_leaves_the_collector_as_it_found_it(self, monkeypatch, tmp_path, argv, enabled):
        monkeypatch.chdir(tmp_path)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(argv) == 0
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_exception_in_main_propagates(self):
        probe = (
            "from kurapart import cli\n"
            "def fail(argv=None):\n"
            "    raise RuntimeError('raised in main')\n"
            "cli.main = fail\n"
            "cli.run()\n"
        )
        child = _child("-c", probe)
        err = child.stderr.decode()
        assert child.returncode == 1
        assert err.startswith("Traceback") and err.endswith("RuntimeError: raised in main\n")


class TestCyclicGarbage:
    """cli.run turns the cyclic collector off for the whole process, which
    is safe only while a run leaves few cyclic objects whatever its size:
    each pair runs one subcommand small and large in a fresh interpreter
    with the collector off, and counts what gc.collect() then finds."""

    PROBE = (
        "import gc, os, sys\n"
        "from kurapart import cli\n"
        "os.chdir(sys.argv[1])\n"
        "gc.collect()\n"
        "gc.disable()\n"
        "with open(os.devnull, 'w') as sink:\n"
        "    sys.stdout, out = sink, sys.stdout\n"
        "    code = cli.main(sys.argv[2:])\n"
        "    sys.stdout = out\n"
        "print(code, gc.collect())\n"
    )

    @pytest.mark.parametrize(
        "small, large",
        [
            (["search", "--builtin", "linear:4"], ["search", "--builtin", "linear:8"]),
            (["search", "--builtin", "cycle:8", "--jobs", "2"],
             ["search", "--builtin", "cycle:14", "--jobs", "2"]),
            *[
                tuple(
                    ["simulate", "--builtin", "cycle:8", "--alpha", "0.5", "--init-random",
                     "--seed", "1", *method, "--t-end", t_end, "--out", "x.csv"]
                    for t_end in ("1", "200")
                )
                for method in ([], ["--method", "rk4", "--dt", "0.01"])
            ],
            (["analyze", "--builtin", "linear:4"], ["analyze", "--builtin", "linear:8"]),
            (["verify", "--p", "4"], ["verify", "--p", "8"]),
        ],
        ids=["search", "search-jobs2", "simulate-rk45", "simulate-rk4", "analyze", "verify"],
    )
    def test_garbage_does_not_grow_with_the_run(self, tmp_path, small, large):
        counts = []
        for argv in (small, large):
            code, garbage = _fresh_python(self.PROBE, tmp_path, *argv).split()
            assert code == "0"
            counts.append(int(garbage))
        assert counts[1] - counts[0] <= 50, counts
        assert max(counts) < 1000, counts


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--builtin", "cycle:4", "--alpha", "abc", "--init-equal", "0",
             "--out", "x.csv"],
            ["search", "--builtin", "cycle:4", "--jobs", "two"],
            ["verify", "--example", "ring"],
            ["bogus"],
            [],
        ],
        ids=["bad-float", "bad-int", "bad-choice", "bad-command", "no-command"],
    )
    def test_usage_errors_are_invalid_input(self, tmp_path, monkeypatch, argv):
        # argparse's own exit code 2 is the I/O code here
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 3
        assert not (tmp_path / "x.csv").exists()

    def test_search_needs_a_graph(self, monkeypatch):
        # the parser rejects it before any graph is loaded
        monkeypatch.setattr(cli, "_load_graph", _never)
        assert run("search") == 3

    def test_missing_graph_file(self, tmp_path):
        assert run(
            "simulate", "--graph", tmp_path / "missing.edges",
            "--alpha", 0.5, "--init-equal", 0.0, "--out", tmp_path / "x.csv",
        ) == 2

    def test_unknown_builtin(self, tmp_path):
        assert run(
            "simulate", "--builtin", "moebius:5",
            "--alpha", 0.5, "--init-equal", 0.0, "--out", tmp_path / "x.csv",
        ) == 3

    def test_alpha_out_of_range(self, tmp_path):
        assert run(
            "simulate", "--builtin", "cycle:4",
            "--alpha", 3.0, "--init-equal", 0.0, "--out", tmp_path / "x.csv",
        ) == 3

    def test_malformed_graph_file(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("1 two\n")
        assert run(
            "simulate", "--graph", bad,
            "--alpha", 0.5, "--init-equal", 0.0, "--out", tmp_path / "x.csv",
        ) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--graph", "bad.bin"],
            ["analyze", "--builtin", "cycle:4", "--partition", "bad.bin"],
            ["simulate", "--graph", "bad.bin", "--alpha", 0.5, "--init-equal", 0.0,
             "--out", "x.csv"],
        ],
        ids=["search-graph", "analyze-partition", "simulate-graph"],
    )
    def test_file_not_utf8(self, tmp_path, monkeypatch, capsys, argv):
        # a decoding error is a malformed input, not a failed verification
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.bin").write_bytes(b"1 2\n2 3\xff\n")
        assert run(*argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: bad.bin is not UTF-8 text: invalid start byte\n"
        assert os.listdir(tmp_path) == ["bad.bin"]

    @pytest.mark.parametrize(
        "argv, unreadable",
        [
            (["analyze", "--graph", ""], True),
            (["analyze", "--builtin", "latoro", "--partition", ""], True),
            (["analyze", "--builtin", "latoro", "--report", ""], False),
            (["simulate", "--builtin", "latoro", "--alpha", 0.5, "--init-equal", 0.0,
              "--t-end", 1, "--out", "x.csv", "--partition", ""], True),
            (["simulate", "--builtin", "cycle:4", "--alpha", 0.5, "--init-equal", 0.0,
              "--t-end", 1, "--out", "x.csv", "--report", ""], False),
            (["search", "--builtin", "cycle:4", "--out", ""], False),
        ],
        ids=["analyze-graph", "analyze-partition", "analyze-report", "simulate-partition",
             "simulate-report", "search-out"],
    )
    def test_empty_path_names_no_file(self, tmp_path, monkeypatch, capsys, argv, unreadable):
        # an empty path is given, not absent: it fails as a path, and no
        # report goes to stdout or to the default path instead
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        if unreadable:
            assert err == "error: [Errno 2] No such file or directory: ''\n"
        else:
            # the empty path resolves to the working directory
            assert err == "error: output path '' is a directory\n"
        assert os.listdir(tmp_path) == []

    def test_step_underflow(self, tmp_path):
        assert run(
            "simulate", "--builtin", "cycle:4",
            "--alpha", 0.5, "--init-random", "--seed", 3,
            "--rel-tol", 1e-300, "--abs-tol", 1e-320,
            "--out", tmp_path / "x.csv",
        ) == 4

    def test_step_budget_exhausted(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(kp.dynamics, "MAX_ADAPTIVE_STEPS", 5)
        assert run(
            "simulate", "--builtin", "cycle:4",
            "--alpha", 0.5, "--init-random", "--out", tmp_path / "x.csv",
        ) == 4
        assert "step budget exhausted" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_huge_rk4_record_refused_before_any_step(self, monkeypatch, tmp_path, capsys):
        # 10**7 + 1 recorded rows of 1000 phases would take 74.5 GiB
        monkeypatch.setattr(kp.dynamics, "_rk_path", _never)
        monkeypatch.chdir(tmp_path)
        assert run(
            "simulate", "--builtin", "cycle:1000", "--alpha", 0.5, "--init-random",
            "--method", "rk4", "--dt", 1e-6, "--t-end", 10, "--out", "x.csv",
        ) == 3
        assert "rk4 would record 10000001 rows of 1000 phases" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_rk45_record_refused_as_it_grows(self, monkeypatch, tmp_path, capsys):
        # an rk45 row count is known only as the run goes: the row that would
        # pass the bound ends it, and neither output file lands
        monkeypatch.setattr(kp.dynamics, "MAX_RECORD_BYTES", 10 * 8 * 8)
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--builtin", "cycle:8", "--alpha", 0.5, "--init-random",
                "--seed", 1, "--t-end", 200, "--out", "x.csv"]
        assert run(*argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"error: rk45 would record 11 rows of 8 phases by t=\S+, "
                            r"over 640 bytes; raise record_every\n", err)
        assert os.listdir(tmp_path) == []
        # the start, every 10**6th accepted step and the last fit
        assert run(*argv, "--record-every", 10**6) == 0
        assert len(trajectory_from_csv((tmp_path / "x.csv").read_text()).times) == 2
        assert sorted(os.listdir(tmp_path)) == ["x.csv", "x.sync.json"]

    @pytest.mark.parametrize("graph", ["complete:4", "cycle:200"], ids=["dense", "sparse"])
    @pytest.mark.parametrize(
        "method, message",
        [
            (("--method", "rk4", "--dt", 0.1), "non-finite state at t=0.1"),
            ((), "adaptive step fell below 1e-12 at t=0.0"),
        ],
        ids=["rk4", "rk45"],
    )
    def test_state_turning_non_finite_writes_nothing(self, tmp_path, graph, method, message):
        # lambda 1e308 overflows the first step's stage sums: rk4 accepts the
        # step and stops at its finite check, rk45 rejects every NaN error norm.
        # Under -W error a numpy RuntimeWarning on the way would end the run
        # with a traceback and exit 1 instead
        child = _child(
            "-W", "error", "-m", "kurapart.cli", "simulate", "--builtin", graph,
            "--alpha", 0.5, "--lambda", 1e308, "--init-random", "--seed", 0,
            "--t-end", 1, *method, "--out", "x.csv", cwd=tmp_path,
        )
        assert child.returncode == 4
        assert child.stderr.decode() == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_infinite_rk4_step(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(
            "simulate", "--builtin", "cycle:4",
            "--alpha", 0.5, "--init-equal", 0.0,
            "--method", "rk4", "--dt", "inf", "--out", out,
        ) == 3
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--sync-tol", "nan"),
            ("--tail-tol", "nan"),
            ("--tail-tol", "-1"),
            ("--tail-fraction", "0"),
            ("--tail-fraction", "2"),
        ],
        ids=["--sync-tol", "--tail-tol", "--tail-tol-negative", "--tail-fraction-0",
             "--tail-fraction-2"],
    )
    def test_nan_sync_tolerance(self, monkeypatch, tmp_path, flag, value):
        # a bad sync threshold is refused before integrating, so neither the
        # trajectory nor its report is written
        monkeypatch.setattr(kp.dynamics, "integrate", _never)
        assert run(
            "simulate", "--builtin", "cycle:4",
            "--alpha", 0.5, "--init-random", "--t-end", 1,
            flag, value, "--out", tmp_path / "x.csv",
        ) == 3
        assert not (tmp_path / "x.csv").exists()
        assert not (tmp_path / "x.sync.json").exists()

    @pytest.mark.parametrize(
        "out, report",
        [("nodir/x.csv", None), ("nodir/x.csv", "r.json"), ("x.csv", "nodir/r.json")],
        ids=["out", "out-with-report", "report"],
    )
    def test_unwritable_output_refused_before_integrating(self, monkeypatch, tmp_path, out, report):
        # both temp files are made first: a missing directory costs no
        # integration and leaves neither output behind
        monkeypatch.setattr(kp.dynamics, "integrate", _never)
        monkeypatch.chdir(tmp_path)
        extra = [] if report is None else ["--report", report]
        assert run(
            "simulate", "--builtin", "cycle:4",
            "--alpha", 0.5, "--init-equal", 0.0, "--out", out, *extra,
        ) == 2
        assert list(tmp_path.iterdir()) == []

    def test_failed_report_leaves_no_trajectory(self, monkeypatch, tmp_path):
        # the CSV is complete before the report fails, but lands only with it
        def refuse(*args):
            raise OSError("report refused")

        monkeypatch.setattr(cli, "_sync_report_json", refuse)
        out = tmp_path / "x.csv"
        out.write_text("old content")
        assert run(
            "simulate", "--builtin", "cycle:4",
            "--alpha", 0.5, "--init-equal", 0.0, "--t-end", 1, "--out", out,
        ) == 2
        assert out.read_text() == "old content"
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    def test_non_finite_init_equal(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(
            "simulate", "--builtin", "cycle:4",
            "--alpha", 0.5, "--init-equal", "nan", "--t-end", 1, "--out", out,
        ) == 3
        assert not out.exists()

    @pytest.mark.parametrize("values", ["nan,1", "inf,1"])
    def test_non_finite_init_blocks(self, tmp_path, values):
        out = tmp_path / "x.csv"
        assert run(
            "simulate", "--builtin", "linear:4",
            "--alpha", 0.5, "--init-blocks", values, "--t-end", 1, "--out", out,
        ) == 3
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--builtin", "foo", "--init-equal", 0], "unknown builtin 'foo'"),
            (["--builtin", "foo:3", "--init-equal", 0], "unknown builtin 'foo:3'"),
            (["--builtin", "cycle:x", "--init-equal", 0], "needs an integer argument"),
            (["--builtin", "cycle:2", "--init-equal", 0], "cycle needs n >= 3"),
            (["--builtin", "complete:1", "--init-equal", 0], "complete graph needs n >= 2"),
            (["--builtin", "path:1", "--init-equal", 0], "path needs n >= 2"),
            (["--builtin", "star:0", "--init-equal", 0], "star needs >= 1 leaf"),
            (["--builtin", "cycle:4", "--init-blocks", "0,1"], "--init-blocks needs a partition"),
            (["--builtin", "linear:4", "--init-blocks", "a,1"], "bad --init-blocks value"),
            (["--builtin", "linear:4", "--init-blocks", "0,1,2"], "gave 3 values for 2 blocks"),
            (["--builtin", "cycle:4", "--init-cert"], "a 2-block partition is required"),
            (["--builtin", "star:3", "--alpha-from-cert", "--init-equal", 0],
             "carries no certificate"),
            (["--builtin", "cycle:4", "--partition", "p.json", "--alpha-from-cert",
              "--init-equal", 0], "carries no certificate"),
        ],
        ids=["foo", "foo:3", "cycle:x", "cycle:2", "complete:1", "path:1", "star:0",
             "init-blocks-no-partition", "init-blocks-non-numeric", "init-blocks-count",
             "init-cert-no-partition", "star-no-certificate", "cycle-no-certificate"],
    )
    def test_refused_before_integrating(self, monkeypatch, tmp_path, capsys, argv, error):
        monkeypatch.setattr(kp.dynamics, "integrate", _never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.json").write_text(json.dumps({"blocks": [[1, 2], [3, 4]]}))
        lag = [] if "--alpha-from-cert" in argv else ["--alpha", 0.5]
        assert run("simulate", *argv, *lag, "--out", "x.csv") == 3
        assert error in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "lag, error",
        [
            (["--alpha", 0.3, "--alpha-from-cert"], "not allowed with argument"),
            ([], "one of the arguments --alpha --alpha-from-cert is required"),
        ],
        ids=["both", "neither"],
    )
    def test_lag_needs_exactly_one_source(self, monkeypatch, tmp_path, capsys, lag, error):
        # an explicit --alpha must not silently override --alpha-from-cert
        monkeypatch.setattr(kp.dynamics, "integrate", _never)
        out = tmp_path / "a.csv"
        assert run(
            "simulate", "--builtin", "linear:4", *lag,
            "--init-cert", "--t-end", 1, "--out", out,
        ) == 3
        assert error in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "a.sync.json").exists()

    @pytest.mark.parametrize("blocks", [[[1], [2]], [[1], [2, 3, 4, 5]]])
    def test_init_blocks_partition_must_cover(self, tmp_path, blocks):
        # a partition missing vertices 3, 4 or naming vertex 5 of C4
        part = tmp_path / "p.json"
        part.write_text(json.dumps({"blocks": blocks}))
        out = tmp_path / "x.csv"
        assert run(
            "simulate", "--builtin", "cycle:4", "--alpha", 0.5, "--t-end", 1,
            "--partition", part, "--init-blocks", "0,1", "--out", out,
        ) == 3
        assert not out.exists()

    def test_negative_seed_rejected_before_integrating(self, monkeypatch, tmp_path, capsys):
        # numpy's ValueError would escape as a traceback with exit code 1,
        # which means failed verification
        monkeypatch.setattr(kp.dynamics, "integrate", _never)
        out = tmp_path / "x.csv"
        assert run(
            "simulate", "--builtin", "cycle:4",
            "--alpha", 0.5, "--init-random", "--seed", -1, "--out", out,
        ) == 3
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spelling", ["same", "dotdot", "symlink"])
    def test_report_over_trajectory_rejected(self, monkeypatch, tmp_path, spelling):
        # the sync report would replace the trajectory CSV it was computed from
        monkeypatch.setattr(kp.dynamics, "integrate", _never)
        out = tmp_path / "x.csv"
        out.write_text("old content")
        link = tmp_path / "link.csv"
        link.symlink_to(out)
        report = {"same": out, "dotdot": tmp_path / "sub" / ".." / "x.csv", "symlink": link}[spelling]
        assert run(
            "simulate", "--builtin", "cycle:4",
            "--alpha", 0.5, "--init-equal", 0.0, "--out", out, "--report", report,
        ) == 3
        assert out.read_text() == "old content"

    def test_report_path_that_is_a_directory_refused_before_integrating(self, monkeypatch, tmp_path):
        # the CSV rename would succeed and the report's fail, leaving x.csv alone
        monkeypatch.setattr(kp.dynamics, "integrate", _never)
        (tmp_path / "rep.json").mkdir()
        assert run(
            "simulate", "--builtin", "cycle:4", "--alpha", 0.5, "--init-equal", 0.0,
            "--t-end", 1, "--out", tmp_path / "x.csv", "--report", tmp_path / "rep.json",
        ) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["rep.json"]
        assert list((tmp_path / "rep.json").iterdir()) == []

    def test_failed_second_rename_removes_the_first(self, monkeypatch, tmp_path):
        real_replace, calls = os.replace, []

        def second_fails(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("rename refused")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", second_fails)
        out = tmp_path / "x.csv"
        assert run(
            "simulate", "--builtin", "cycle:4", "--alpha", 0.5, "--init-equal", 0.0,
            "--t-end", 1, "--out", out,
        ) == 2
        assert calls == [str(out), str(tmp_path / "x.sync.json")]
        assert list(tmp_path.iterdir()) == []

    def test_failed_second_rename_restores_the_earlier_pair(self, monkeypatch, tmp_path):
        out, report = tmp_path / "x.csv", tmp_path / "x.sync.json"
        out.write_text("old trajectory")
        report.write_text("old report")
        out.chmod(0o640)
        real_replace = os.replace

        def report_fails(src, dst):
            if dst == str(report):
                raise OSError("rename refused")
            real_replace(src, dst)

        args = ("simulate", "--builtin", "cycle:4", "--alpha", 0.5, "--init-equal", 0.0,
                "--t-end", 1, "--out", out)
        monkeypatch.setattr(os, "replace", report_fails)
        assert run(*args) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.sync.json"]
        assert out.read_text() == "old trajectory"
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert report.read_text() == "old report"
        # a run that succeeds over the same pair leaves no kept copy behind
        monkeypatch.setattr(os, "replace", real_replace)
        assert run(*args) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.sync.json"]
        assert out.read_text().startswith("t,")

    def test_pair_replaced_where_hard_links_are_refused(self, monkeypatch, tmp_path):
        # a filesystem without hard links still takes the new pair
        def refused(*args, **kwargs):
            raise PermissionError("hard links not supported")

        out = tmp_path / "x.csv"
        out.write_text("old trajectory")
        monkeypatch.setattr(os, "link", refused)
        assert run(
            "simulate", "--builtin", "cycle:4", "--alpha", 0.5, "--init-equal", 0.0,
            "--t-end", 1, "--out", out,
        ) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.sync.json"]
        assert out.read_text().startswith("t,")

    def test_search_rejects_vertex_count_without_edges(self, tmp_path):
        graph = tmp_path / "huge.edges"
        graph.write_text("n 3000000\n1 2\n")
        assert run("search", "--graph", graph, "--jobs", 1) == 3

    def test_graph_and_builtin_conflict(self, tmp_path):
        graph = tmp_path / "c4.edges"
        graph.write_text("n 4\n1 2\n2 3\n3 4\n4 1\n")
        assert run(
            "simulate", "--graph", graph, "--builtin", "cycle:4",
            "--alpha", 0.5, "--init-equal", 0.0, "--out", tmp_path / "x.csv",
        ) == 3


@pytest.fixture(params=[0o022, 0o077], ids=["umask-022", "umask-077"])
def umask(request):
    old = os.umask(request.param)
    yield request.param
    os.umask(old)


class TestOutputMode:
    @pytest.mark.parametrize(
        "argv, files",
        [
            (["search", "--builtin", "cycle:4", "--out", "s.txt"], ["s.txt"]),
            (["analyze", "--builtin", "latoro", "--report", "a.json"], ["a.json"]),
            (["simulate", "--builtin", "cycle:4", "--alpha", 0.5, "--init-equal", 0.0,
              "--t-end", 1, "--out", "x.csv"], ["x.csv", "x.sync.json"]),
        ],
        ids=["search", "analyze", "simulate"],
    )
    def test_outputs_get_the_mode_of_a_plain_open(self, monkeypatch, tmp_path, umask, argv, files):
        # a temp file is made private; the written file must not stay so
        monkeypatch.chdir(tmp_path)
        with open("plain", "w"):
            pass
        plain = stat.S_IMODE(os.stat("plain").st_mode)
        assert plain == 0o666 & ~umask
        assert run(*argv) == 0
        assert [stat.S_IMODE(os.stat(f).st_mode) for f in files] == [plain] * len(files)


# a value of each kind the matcher converts: a float, an int, and a path or
# graph name kept as given
_VALUES = {
    float: ["0.5", "1e-3", "nan", "inf", "+2", "0", "1e308", "5e-324", "1_000.25", " 2.5"],
    int: ["0", "1", "7", "1_000", "123456789012345678901234567890"],
    None: ["", "x.csv", "cycle:4", "nan", "a b", "=", "search", "a-b"],
}


def _canonical_argv(rng, command):
    """A random well-formed argv: one option of each group, any other
    options, every required one, in any order."""
    chosen = []
    for item in cli._COMMANDS[command][2]:
        if not isinstance(item, cli._Option):
            chosen.append(rng.choice(item))
        elif item.required or rng.random() < 0.5:
            chosen.append(item)
    rng.shuffle(chosen)
    argv = [command]
    for option in chosen:
        argv.append(option.flag)
        if not option.store_true:
            argv.append(rng.choice(option.choices or _VALUES[option.type]))
    return argv


def _same_attributes(ours, theirs):
    """vars() equality, with a NaN equal to a NaN and int told from float."""
    ours, theirs = vars(ours), vars(theirs)
    return ours.keys() == theirs.keys() and all(
        type(ours[k]) is type(theirs[k])
        and (ours[k] == theirs[k] or ours[k] != ours[k] and theirs[k] != theirs[k])
        for k in ours
    )


# leading sha256 digits of the report `search --builtin cycle:4` writes
_CYCLE4_REPORT = "d9a7d78f2c51"


class TestArgumentMatcher:
    """cli._match parses the canonical argv of a run without argparse and
    gives the attributes argparse would; every other argv goes to argparse,
    whose messages and exit codes stay as they were."""

    @pytest.mark.parametrize("command", ["simulate", "analyze", "search", "verify"])
    def test_agrees_with_argparse(self, command):
        rng = random.Random(f"canonical {command}")
        parser = cli.build_parser()
        for _ in range(400):
            argv = _canonical_argv(rng, command)
            ours = cli._match(argv)
            assert ours is not None, argv
            assert _same_attributes(ours, parser.parse_args(argv)), argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--builtin", "cycle:4", "--alpha", "0.5", "--init-random",
             "--out", "x.csv"],
            ["analyze", "--graph", "g"],
            ["search", "--graph", "g"],
            ["verify"],
        ],
        ids=["simulate", "analyze", "search", "verify"],
    )
    def test_defaults_agree_with_argparse(self, argv):
        assert vars(cli._match(argv)) == vars(cli.build_parser().parse_args(argv))

    def test_well_formed_run_builds_no_parser(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_parser", _never)
        assert run("search", "--builtin", "cycle:4") == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest().startswith(
            _CYCLE4_REPORT
        )

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            # argparse takes these as the canonical run
            (["search", "--builtin", "cycle:4", "--for"], 0, ""),
            (["search", "--builtin=cycle:4"], 0, ""),
            (["search", "--builtin", "cycle:4", "--jobs", "1", "--jobs", "1"], 0, ""),
            (["search", "--builtin", "cycle:4", "--stats", "--stats"], 0, None),
            # a negative number, which argparse reads as a value here
            (["simulate", "--builtin", "cycle:4", "--alpha", "-0.5", "--init-equal", "0",
              "--t-end", "1", "--out", "x.csv"],
             3, "error: alpha must lie in (0, pi/2], got -0.5\n"),
            (["search", "--builtin", "cycle:4", "--jobs", "-1"],
             3, "error: jobs must be >= 1, got -1\n"),
            # usage errors, in argparse's words
            (["search", "--builtin", "cycle:4", "--jobs", "two"],
             3, "error: kurapart search: argument --jobs: invalid int value: 'two'\n"),
            (["search", "--builtin", "cycle:4", "--jobs", ""],
             3, "error: kurapart search: argument --jobs: invalid int value: ''\n"),
            (["verify", "--p", "1.5"],
             3, "error: kurapart verify: argument --p: invalid int value: '1.5'\n"),
            (["verify", "--example", "ring"],
             3, "error: kurapart verify: argument --example: invalid choice: 'ring' "
             "(choose from 'linear', 'latoro', 'regular', 'kura-eg', 'all')\n"),
            (["simulate", "--builtin", "cycle:4", "--alpha", "0.5", "--init-equal", "0",
              "--method", "rk5", "--out", "x.csv"],
             3, "error: kurapart simulate: argument --method: invalid choice: 'rk5' "
             "(choose from 'rk4', 'rk45')\n"),
            (["search"],
             3, "error: kurapart search: one of the arguments --graph --builtin is required\n"),
            (["search", "--builtin", "cycle:4", "--graph", "g.edges"],
             3, "error: kurapart search: argument --graph: not allowed with argument --builtin\n"),
            (["simulate", "--builtin", "cycle:4", "--alpha", "0.5", "--alpha-from-cert",
              "--init-equal", "0", "--out", "x.csv"],
             3, "error: kurapart simulate: argument --alpha-from-cert: not allowed with "
             "argument --alpha\n"),
            (["simulate", "--builtin", "cycle:4", "--alpha", "0.5", "--init-equal", "0"],
             3, "error: kurapart simulate: the following arguments are required: --out\n"),
            (["search", "--builtin"],
             3, "error: kurapart search: argument --builtin: expected one argument\n"),
            (["search", "--out", "--builtin", "cycle:4"],
             3, "error: kurapart search: argument --out: expected one argument\n"),
            (["search", "--builtin", "cycle:4", "extra"],
             3, "error: kurapart: unrecognized arguments: extra\n"),
            (["search", "--builtin", "cycle:4", "--"],
             3, "error: kurapart: unrecognized arguments: --\n"),
            (["search", "--builtin", "cycle:4", "--stats=1"],
             3, "error: kurapart search: argument --stats: ignored explicit argument '1'\n"),
            (["bogus"],
             3, "error: kurapart: argument command: invalid choice: 'bogus' "
             "(choose from 'simulate', 'analyze', 'search', 'verify')\n"),
            ([], 3, "error: kurapart: the following arguments are required: command\n"),
        ],
        ids=["abbreviation", "equals", "repeat", "repeat-flag", "negative-float",
             "negative-int", "bad-int", "empty-int", "float-for-int", "bad-choice",
             "bad-method", "no-group-member", "two-group-members", "two-lags",
             "no-required", "no-value", "option-as-value", "stray-value", "double-dash",
             "flag-with-value", "bad-command", "no-command"],
    )
    def test_other_argv_goes_to_argparse(self, tmp_path, monkeypatch, capsys, argv, code, err):
        monkeypatch.chdir(tmp_path)
        assert cli._match(argv) is None
        assert main(argv) == code
        out, got = capsys.readouterr()
        if err is None:  # --stats writes its timings
            assert json.loads(got)["rows"] == 7
        else:
            assert got == err
        if code == 0:
            assert hashlib.sha256(out.encode()).hexdigest().startswith(_CYCLE4_REPORT)
        else:
            assert out == ""
        assert os.listdir(tmp_path) == []

    def test_negative_initial_phase_runs_as_given(self, tmp_path, monkeypatch):
        # argparse reads a negative number as the value it names
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--builtin", "cycle:4", "--alpha", "0.5", "--t-end", "1"]
        assert cli._match([*argv, "--init-equal", "-1", "--out", "a.csv"]) is None
        assert main([*argv, "--init-equal", "-1", "--out", "a.csv"]) == 0
        assert main([*argv, "--init-equal", "-1.0", "--out", "b.csv"]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert trajectory_from_csv((tmp_path / "a.csv").read_text()).states[0][0] == -1.0


# sha256 of `kurapart [<command>] --help` at 80 columns.  Python 3.13 wraps a
# long group in the usage lines, which earlier versions leave on one line,
# so simulate's help has two forms
_HELP_DIGESTS = {
    "": {"4be0f0c114bf0f3d8b8f53b363f0c4afa6e6dc6e443f1a5581abd204a3d2a926"},
    "simulate": {
        "5e1839b2d540344d3456710dfb91280ba6adb06891be6cd9b9d43a1514db7dc8",  # 3.10-3.12
        "7717759b0dd46fd7d5c1678e6f167db430971d639e4ca3b7ef9ee318f27a144a",  # 3.13
    },
    "analyze": {"54a5b0870424561eccf9c531f5a1d0a55f48b7de3cb79db0cc0be041bdb7d73e"},
    "search": {"a55f5ed7551e5c6efcd310d641f84cd47210312ac4e51970b7b51a04dfaa3497"},
    "verify": {"7d4313432f472836963ebd0540e54a9e094de1a4a1ffcc1dd2361b8d94c271ed"},
}


class TestHelpText:
    @pytest.mark.skipif(sys.version_info >= (3, 14), reason="help layout pinned for 3.10-3.13")
    @pytest.mark.parametrize("command", list(_HELP_DIGESTS), ids=lambda c: c or "kurapart")
    def test_help_bytes_are_pinned(self, monkeypatch, capsys, command):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [command, "--help"] if command else ["--help"]
        assert cli._match(argv) is None
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() in _HELP_DIGESTS[command]
