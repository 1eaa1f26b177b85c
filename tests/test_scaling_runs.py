"""Smoke test of the scaling ladder script on its smallest rung."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smallest_rung_is_proven_by_both_solvers(tmp_path):
    out = tmp_path / "ladder.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "scaling_runs.py"),
                    "--cap", "10", "--seeds", "0", "--rungs", "1", str(out)],
                   check=True, env=env, timeout=120)
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(row["solver"], row["status"]) for row in rows] == [
        ("scoutplan", "optimal"), ("highs", "optimal")]
    assert rows[0]["optima_agree"] == "True"
