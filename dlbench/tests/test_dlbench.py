"""Tests of the benchmark itself: generator determinism, the percentile
rule, self time on a synthetic span tree, failure accounting, the gated
medians, the cross-run determinism record, and the agreement of BENCHMARK.json,
manifest.json and run.py.

    python3 -m unittest discover -s dlbench/tests

from the root of the checkout (the generator tests build the helper with
dune first)."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
REPO = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import benchlib as bl  # noqa: E402
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_needs_ten_beyond(self):
        xs = [float(i) for i in range(1, 1001)]
        p = bl.percentile(xs, 0.99)
        self.assertEqual((p["n"], p["beyond"]), (1000, 10))
        self.assertIsNone(bl.percentile(xs[:900], 0.99))
        self.assertIsNone(bl.percentile([float(i) for i in range(100)], 0.95))
        self.assertEqual(bl.percentile([float(i) for i in range(100)], 0.90)["beyond"], 10)

    def test_ties_do_not_count_as_beyond(self):
        self.assertIsNone(bl.percentile([1.0] * 5000, 0.5))

    def test_tail_picks_highest_backed_level(self):
        q, p = bl.tail([float(i) for i in range(250)])
        self.assertEqual((q, p["n"]), (0.95, 250))
        self.assertEqual(bl.tail([1.0, 2.0]), (None, None))

    def test_quantile_interpolates(self):
        self.assertEqual(bl.quantile([1.0, 2.0, 3.0, 4.0], 0.5), 2.5)
        self.assertEqual(bl.quantile([5.0], 0.99), 5.0)


def span(i, parent, name, start, end, **attrs):
    return {"id": i, "parent": parent, "name": name, "start": start, "end": end, "attrs": attrs}


class SelfTime(unittest.TestCase):
    # command [0,10] > admission [1,4] > wal [2,3]; command > decide [5,9] > lp [6,8]
    TREE = [span(1, None, "server.command", 0.0, 10.0, cmd="tick"),
            span(2, 1, "admission.submit", 1.0, 4.0),
            span(3, 2, "wal.append", 2.0, 3.0),
            span(4, 1, "engine.decide", 5.0, 9.0, active=3),
            span(5, 4, "lp.solve", 6.0, 8.0)]

    def test_self_times(self):
        s = bl.self_times(self.TREE)
        self.assertEqual(s, {1: 3.0, 2: 2.0, 3: 1.0, 4: 2.0, 5: 2.0})

    def test_self_times_sum_to_root_time(self):
        summ = bl.summary(self.TREE)
        self.assertEqual(summ["root_s"], 10.0)
        self.assertEqual(summ["self_sum_s"], 10.0)
        rows = {r["name"]: r for r in summ["rows"]}
        self.assertEqual(rows["server.command"]["self_s"], 3.0)
        self.assertEqual(rows["engine.decide"]["total_s"], 4.0)
        self.assertEqual(summ["slowest"][0]["name"], "server.command")
        self.assertEqual(summ["slowest"][0]["attrs"], {"cmd": "tick"})

    def test_overlapping_children_counted_once(self):
        tree = [span(1, None, "maxflow.solve", 0.0, 10.0),
                span(2, 1, "probe.exact", 1.0, 6.0),
                span(3, 1, "probe.exact", 4.0, 8.0)]  # a parallel probe
        self.assertEqual(bl.self_times(tree)[1], 3.0)

    def test_children_clipped_to_parent(self):
        tree = [span(1, None, "a", 0.0, 2.0), span(2, 1, "b", 1.0, 5.0)]
        self.assertEqual(bl.self_times(tree)[1], 1.0)


class Accounting(unittest.TestCase):
    def test_failed_share(self):
        commands = ["submit a 0 5", "submit b 0 5", "tick 1.00", "submit c 9 5", "tick 2.00", "drain"]
        replies = ["ok submitted a job=0", "err shed retry_after=3",
                   "ok now=1", "err bad_request bank 9", "ok now=4", "ok drained now=9 completed=1"]
        expected = list(replies)
        expected[4] = "ok now=3"  # the daemon disagrees with the replay once
        acc = bl.account(commands, replies, expected, incomplete=1,
                         checks=[("metrics equal", True), ("invariants", False)])
        # bad_request + the disagreement + 1 incomplete + 1 failed check; the
        # shed is a refusal, not a failure
        self.assertEqual(acc["failed"], 4)
        self.assertEqual(acc["attempted"], 8)
        self.assertEqual((acc["shed"], acc["submits"]), (1, 3))

    def test_clean_episode(self):
        cmds = ["submit a 0 5", "drain"]
        replies = ["ok submitted a job=0", "ok drained now=1 completed=1"]
        acc = bl.account(cmds, replies, replies, 0, [("x", True)])
        self.assertEqual((acc["failed"], acc["attempted"], acc["reasons"]), (0, 3, []))

    def test_missing_replies_fail(self):
        acc = bl.account(["tick 1.00", "drain"], ["ok now=1"], ["ok now=1", "ok drained"], 0, [])
        self.assertGreaterEqual(acc["failed"], 1)

    def test_metrics_diff_ignores_wall_time(self):
        a = {"counters": {"decisions": 3}, "gauges": {},
             "histograms": {"lp_solve_seconds": {"count": 1, "max": 0.1}, "stretch": {"p95": 2}}}
        b = json.loads(json.dumps(a))
        b["histograms"]["lp_solve_seconds"]["max"] = 0.2
        self.assertEqual(bl.metrics_diff(a, b), [])
        b["counters"]["decisions"] = 4
        self.assertEqual(bl.metrics_diff(a, b), ["counters.decisions"])


class GatedFigures(unittest.TestCase):
    def test_medians_ignore_one_slow_episode(self):
        figs = [{"throughput_rps": r} for r in (100, 102, 98, 101, 40)]
        advances = [[float(k) for k in range(100)] for _ in range(4)]
        advances.append([1000.0] * 100)  # one episode stalled throughout
        out = run.gated_figures(figs, [0.02, 0.01, 0.03], advances, 0.5)
        self.assertEqual(out["throughput_rps"], (100, "1/s"))
        self.assertEqual(out["setup_s"], (0.02, "s"))
        self.assertAlmostEqual(out["advance_tail_ms"][0], 1e3 * bl.quantile(advances[0], 0.5))

    def test_tail_of_medians_pairs_advances_by_position(self):
        # each advance is slow in a different episode: its median is fast
        base = [1.0 + 0.001 * k for k in range(40)]
        advances = [list(base) for _ in range(3)]
        for k in range(40):
            advances[k % 3][k] = 50.0
        out = run.gated_figures([{"throughput_rps": 1.0}], [1.0], advances, 0.75)
        self.assertAlmostEqual(out["advance_tail_ms"][0], 1e3 * bl.quantile(base, 0.75))

    def test_probes_per_solve(self):
        spans = [{"name": n} for n in ("maxflow.solve", "probe.exact", "probe.exact",
                                       "maxflow.solve", "probe.exact", "lp.solve")]
        self.assertEqual(run.probes_per_solve(spans), (1.5, "count"))
        self.assertEqual(run.probes_per_solve([]), (0.0, "count"))


class DeterminismRecord(unittest.TestCase):
    def check(self, state, key, counters):
        with contextlib.redirect_stdout(io.StringIO()):
            return run.check_determinism(state, "serve_lp", 7, key, counters)

    def test_same_program_must_repeat(self):
        with tempfile.TemporaryDirectory() as state:
            self.assertTrue(self.check(state, "prog-a", {"engine.decisions": 284}))
            self.assertTrue(self.check(state, "prog-a", {"engine.decisions": 284}))
            self.assertFalse(self.check(state, "prog-a", {"engine.decisions": 285}))

    def test_record_of_another_build_is_not_a_failure(self):
        with tempfile.TemporaryDirectory() as state:
            self.assertTrue(self.check(state, "parent", {"wal.fsyncs": 6400}))
            # a changed program (new key) may change the counters by design
            self.assertTrue(self.check(state, "child", {"wal.fsyncs": 3200}))
            # and each program is still held to its own record
            self.assertTrue(self.check(state, "parent", {"wal.fsyncs": 6400}))
            self.assertFalse(self.check(state, "child", {"wal.fsyncs": 3201}))

    def test_key_covers_program_and_inputs(self):
        with tempfile.TemporaryDirectory() as d:
            files = {}
            for name in ("dlsched", "helper", "input"):
                files[name] = os.path.join(d, name)
                with open(files[name], "w") as f:
                    f.write(name)

            def key():
                old = (run.DLSCHED, run.HELPER)
                run.DLSCHED, run.HELPER = files["dlsched"], files["helper"]
                try:
                    return run.run_key([files["input"]])
                finally:
                    run.DLSCHED, run.HELPER = old

            k0 = key()
            for name in ("dlsched", "helper", "input"):
                with open(files[name], "a") as f:
                    f.write("changed")
                k1 = key()
                self.assertNotEqual(k0, k1, name)
                k0 = k1


class Generator(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                        "dlbench/helper/dlbench_helper.exe"],
                       cwd=REPO, check=True, stdout=subprocess.DEVNULL)

    def gen(self, workload, seed):
        with tempfile.TemporaryDirectory() as d:
            subprocess.run([os.path.join(REPO, run.HELPER), "gen", workload, str(seed), d],
                           check=True)
            out = {}
            for name in ("stream.txt", "input.trace", "workload.json"):
                with open(os.path.join(d, name)) as f:
                    out[name] = f.read()
            return out

    def test_one_seed_one_stream(self):
        for w in ("serve_steady", "serve_lp"):
            self.assertEqual(self.gen(w, 3), self.gen(w, 3), w)

    def test_seed_changes_traffic(self):
        self.assertNotEqual(self.gen("serve_steady", 3)["stream.txt"],
                            self.gen("serve_steady", 4)["stream.txt"])

    def test_serve_lp_seed_only_renames(self):
        a, b = self.gen("serve_lp", 3)["stream.txt"], self.gen("serve_lp", 4)["stream.txt"]
        self.assertEqual(a.replace("s3-", "ID-"), b.replace("s4-", "ID-"))

    def test_stream_shape(self):
        g = self.gen("serve_steady", 5)
        lines = g["stream.txt"].splitlines()
        self.assertEqual(lines[-1], "drain")
        self.assertEqual(sum(1 for l in lines if l.startswith("submit ")), 3200)
        self.assertTrue(all(l.split(" ", 1)[0] in ("submit", "tick") for l in lines[:-1]))
        self.assertIn("mct", json.loads(g["workload.json"])["daemon_args"])


class Definitions(unittest.TestCase):
    def test_benchmark_json_matches_manifest_and_runner(self):
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            bench = json.load(f)
        with open(os.path.join(BENCH, "manifest.json")) as f:
            manifest = json.load(f)
        self.assertEqual(set(bench), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        names = [w["name"] for w in bench["workloads"]]
        self.assertEqual(names, [w["name"] for w in manifest["workloads"]])
        self.assertEqual(set(names), set(run.WORKLOADS))
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual([m["name"] for m in bench[kind]],
                             [m["name"] for m in manifest[kind]])
        e2e = {m["name"]: m for m in bench["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["bound"], max(m["bound"] for m in e2e.values()))
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in e2e.values()))
        self.assertTrue(all(len(w["why"]) <= 200 for w in bench["workloads"]))
        # every per-layer metric the runner computes is declared, and back
        empty = {"submits": 0, "commands": 0, "jobs": 1, "trace_overhead": 1.0, "wal": {},
                 "rat": {"small_ops": 0, "big_ops": 0, "promotions": 0},
                 "lp_exact": {"solves": 0, "pivots": 0}, "lp_approx": {"solves": 0, "pivots": 0}}
        computed, _ = run.layer_metrics([], [], empty)
        self.assertEqual(list(computed), [m["name"] for m in bench["per_layer"]])
        for m in bench["per_layer"]:
            self.assertEqual(computed[m["name"]][1], m["unit"], m["name"])


if __name__ == "__main__":
    unittest.main()
