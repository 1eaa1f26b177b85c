#!/usr/bin/env python3
"""Fingerprint every deterministic CLI output on the bundled scenario.

Runs, in process and on scenarios/ablation8.json, `validate` and the six
commands below, each writing into its own temporary directory, and prints
each command's exit code (with a sha256 of validate's stdout) and one
sha256 per written file, in a fixed order:

    validate: exit <code> stdout sha256 <hex>
    <command>: exit <code>
    <command>: <file> sha256 <hex>

Two trees that print the same lines wrote byte-identical outputs.  Each
JSON file is also read back, a plan through report.plan_from_dict and
report.plan_to_json and a mission through report.mission_from_dict and
report.mission_to_json, and the script exits 1 unless the text written
back equals the file, so the loaders accept every document the CLI writes.
checkout.prepare() (perfbench/checkout.py) imports scoutplan from this
checkout's src/ and pins OpenBLAS to one thread, as the benchmark does,
because another thread count may sum in another order.

    python3 scripts/output_equivalence.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checkout  # noqa: E402

checkout.prepare()      # before numpy loads

from scoutplan import report  # noqa: E402
from scoutplan.cli import main  # noqa: E402
from scoutplan.scenario import load_scenario_file  # noqa: E402

COMMANDS = (
    "plan --nodes-limit 25 --dot",
    "plan --export-mps",
    "simulate --deterministic --nodes-limit 5 --dot",
    "simulate --deterministic --nodes-limit 25",
    "ablate --deterministic --nodes-limit 25 --dot",
    "sweep-beta --beta 0,0.45 --nodes-limit 5",
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(command: str, *args: str) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call."""
    name, *flags = command.split()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([name, str(checkout.ABLATION8), *args, *flags])
    return code, stdout.getvalue()


def reads_back(path: Path, scenario) -> bool:
    """Whether a JSON file written by the CLI loads and writes back as is."""
    text = path.read_text()
    if path.name == "plan.json":
        again = report.plan_to_json(report.plan_from_dict(json.loads(text), scenario),
                                    scenario)
    else:
        again = report.mission_to_json(
            report.mission_from_dict(json.loads(text), scenario), scenario)
    return again == text


if __name__ == "__main__":
    scenario, _ = load_scenario_file(checkout.ABLATION8)
    failed = []
    code, stdout = run("validate")
    print(f"validate: exit {code} stdout sha256 {sha256(stdout.encode())}")
    for command in COMMANDS:
        with tempfile.TemporaryDirectory() as out:
            code, _ = run(command, "-o", out)
            print(f"{command}: exit {code}")
            for path in sorted(Path(out).iterdir()):
                print(f"{command}: {path.name} sha256 {sha256(path.read_bytes())}")
                if path.suffix == ".json" and not reads_back(path, scenario):
                    failed.append(f"{command}: {path.name}")
    for name in failed:
        print(f"{name} does not read back as written", file=sys.stderr)
    sys.exit(1 if failed else 0)
