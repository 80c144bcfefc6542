"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'      # from the repo root
    cargo test --release --manifest-path perfbench/Cargo.toml     # the helper's tests

The end-to-end cases build the binaries on first use and run two
workloads for one second each on a seed with no recorded digest.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

CSV = "U,PD2 procs\n3.33,5.01\n5.48,7.14\n"
SWEEP = {"points": 2}


def sweep_round(csv=CSV, code=0, stderr=()):
    return {"csv": csv, "code": code, "stderr": list(stderr)}


class SweepChecks(unittest.TestCase):
    def test_matching_output_fails_nothing(self):
        digest = hashlib.sha256(CSV.encode()).hexdigest()
        self.assertEqual(run.failed_points(CSV, CSV, digest, SWEEP, sweep_round()), 0)

    def test_a_mismatched_row_is_a_failed_point(self):
        wrong = CSV.replace("7.14", "7.15")
        self.assertEqual(run.failed_points(wrong, CSV, None, SWEEP, sweep_round(wrong)), 1)

    def test_a_missed_digest_fails_every_point(self):
        self.assertEqual(run.failed_points(CSV, CSV, "0" * 64, SWEEP, sweep_round()), 2)

    def test_a_failed_run_or_caught_panic_counts(self):
        self.assertEqual(run.failed_points(CSV, CSV, None, SWEEP, sweep_round(code=1)), 2)
        panicked = sweep_round(stderr=["  U=3.33: PD2 5.01  EDF-FF 4.00  (failures: pd2=0 edf=0 panics=1)\n"])
        self.assertEqual(run.failed_points(CSV, CSV, None, SWEEP, panicked), 1)
        clean = sweep_round(stderr=["  U=3.33: PD2 5.01  EDF-FF 4.00  (failures: pd2=0 edf=0 panics=0)\n"])
        self.assertEqual(run.failed_points(CSV, CSV, None, SWEEP, clean), 0)


def daemon_round(**over):
    rnd = {"attempted": 100, "errors": 0, "problem": "", "code": 0, "sent": 100,
           "replies": 100, "client_active": 7, "verdict_digest": "f6d68e245c432daa",
           "daemon": {"task_count": 7, "requests": 100, "slot": 40, "batches": 40}}
    rnd.update(over)
    return rnd


class DaemonChecks(unittest.TestCase):
    def test_clean_round(self):
        self.assertEqual(run.round_failures(daemon_round()), (0, False))

    def test_errors_lost_replies_and_replay_mismatches_fail(self):
        self.assertEqual(run.round_failures(daemon_round(errors=2, replies=99))[0], 3)
        self.assertEqual(run.round_failures(daemon_round(replay_mismatches=5))[0], 5)

    def test_a_lost_reply_counts_once(self):
        # Sent and received by the daemon, never answered.
        self.assertEqual(run.round_failures(daemon_round(replies=99)), (1, False))

    def test_a_round_that_stops_early_fails_every_unanswered_request(self):
        # The loop gave up (daemon gone, read timeout) after 5 replies
        # with 64 in flight: the 95 requests never answered all fail.
        aborted = daemon_round(sent=69, replies=5, daemon=None, problem="recv: timed out",
                               replay_mismatches=None, verdict_digest=None)
        self.assertEqual(run.round_failures(aborted), (95, True))
        self.assertEqual(run.round_failures(daemon_round(replies=0, daemon=None, problem="x")),
                         (100, True))

    def test_tally_must_equal_daemon_stats(self):
        d = {"task_count": 9, "requests": 100, "slot": 40, "batches": 40}
        self.assertEqual(run.round_failures(daemon_round(daemon=d)), (2, True))

    def test_a_missed_verdict_digest_fails_every_request(self):
        self.assertEqual(run.round_failures(daemon_round(), "f6d68e245c432daa"), (0, False))
        self.assertEqual(run.round_failures(daemon_round(), "0000000000000000"), (100, False))

    def test_a_round_without_stats_fails(self):
        failed, _ = run.round_failures(daemon_round(daemon=None, problem="connect: refused"))
        self.assertGreaterEqual(failed, 1)


class HeldOutSeed(unittest.TestCase):
    SEED = 987_654

    def bench(self, workload):
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as f:
            self.assertNotIn(str(self.SEED), json.load(f).get(workload, {}))
        r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                            "--seed", str(self.SEED), "--seconds", "1", "--trace", "0"],
                           cwd=ROOT, capture_output=True, text=True, timeout=1800)
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        return json.loads(r.stdout.strip().splitlines()[-1])

    def test_held_out_seed_runs_cleanly(self):
        for workload in ("tournament-m4", "admit-serial"):
            res = self.bench(workload)
            self.assertTrue(res["correct"], workload)
            self.assertEqual(res["failed"], 0, workload)
            self.assertGreater(res["attempted"], 0, workload)
            self.assertTrue(all(m["value"] > 0 for m in res["metrics"].values()), res["metrics"])


if __name__ == "__main__":
    unittest.main()
