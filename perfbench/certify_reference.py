#!/usr/bin/env python3
"""Certify the optimum of scenarios/ablation8.json with HiGHS and store it in
perfbench/reference.json, which the plan-ablation8 check reads.

    python3 perfbench/certify_reference.py

Takes about a minute on 2 CPUs.  Rerun it only when the formulation changes
what ablation8's optimum is.
"""

import json
import sys
import time

import checkout


def main() -> int:
    checkout.prepare()
    import workloads
    from scoutplan import build_model
    from scoutplan.scenario import load_scenario_file

    scenario, _ = load_scenario_file(checkout.ABLATION8)
    model, _ = build_model(scenario)
    t0 = time.perf_counter()
    optimum = workloads.highs_optimum(model)
    seconds = time.perf_counter() - t0
    workloads.REFERENCE.write_text(json.dumps({
        "ablation8_optimum": optimum,
        "how": "scipy.optimize.milp (HiGHS, mip_rel_gap 0) on the model_to_lp "
               "lowering of build_model(ablation8)",
        "seconds": round(seconds, 1),
    }, indent=1) + "\n")
    print(f"ablation8 optimum {optimum!r} in {seconds:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
