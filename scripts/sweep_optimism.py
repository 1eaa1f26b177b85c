#!/usr/bin/env python3
"""Mission sweep over coefficient-of-optimism values; emits per-edge scout
exploration heat tables and DOT renderings."""

import sys
from pathlib import Path

from scoutplan.cli import main

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    scenario = sys.argv[1] if len(sys.argv) > 1 else str(ROOT / "scenarios/ablation8.json")
    raise SystemExit(main([
        "sweep-beta", scenario, "-o", "out/beta",
        "--beta", "0,0.15,0.3,0.45",
        "--nodes-limit", "25",
    ]))
