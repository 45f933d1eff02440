"""Set-up probe: import fpkproj, validate and build every scenario, report ready.

Run as ``python3 probe.py <src-dir>`` with the scenario mappings as a JSON
list on stdin.  The parent times the interval from starting this
interpreter to reading the ``ready`` line, which is what ``fpkproj run``
pays before its first integration step.
"""

import json
import sys


def main() -> int:
    mappings = json.load(sys.stdin)
    sys.path.insert(0, sys.argv[1])
    from fpkproj.errors import FpkprojError
    from fpkproj.scenario import build_family, build_model, scenario_domain, validate_scenario

    built = 0
    for raw in mappings:
        try:
            scenario = validate_scenario(raw)
            domain = scenario_domain(scenario)
            build_model(scenario, domain)
            build_family(scenario, domain)
            built += 1
        except FpkprojError:
            pass  # the timed run records the failure
    print(f"ready {built}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
