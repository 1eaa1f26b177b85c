"""Smoke test of the CLI output fingerprint script on the bundled scenario."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_prints_one_line_per_command_and_written_file():
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "output_equivalence.py")],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert re.fullmatch(r"validate: exit 0 stdout sha256 [0-9a-f]{64}", lines[0])
    for line in lines[1:]:
        assert re.fullmatch(r"[a-z-]+( --[a-z-]+( [\d.,]+)?)+: "
                            r"(exit [04]|[\w.-]+ sha256 [0-9a-f]{64})", line), line
    assert [line for line in lines[1:] if ": exit " in line] == [
        "plan --nodes-limit 25 --dot: exit 4",
        "plan --export-mps: exit 0",
        "simulate --deterministic --nodes-limit 5 --dot: exit 0",
        "simulate --deterministic --nodes-limit 25: exit 0",
        "ablate --deterministic --nodes-limit 25 --dot: exit 0",
        "sweep-beta --beta 0,0.45 --nodes-limit 5: exit 0",
    ]
    assert len(lines) == 33
