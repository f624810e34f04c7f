#!/usr/bin/env python3
"""Evaluate the boundedness certificate for the third-order benchmark and
cross-check it against the realized shapes of its schedule."""

import yaml

from smobserver.pipeline import certify_scenario
from smobserver.scenario import example2


def main() -> None:
    rep, schedule = certify_scenario(example2())
    print(yaml.safe_dump(rep.to_dict(), sort_keys=False))
    if rep.case == "none":
        print(f"certificate unavailable: {rep.reason}")
        raise SystemExit(2)

    problem = rep.shape_inconsistency(schedule.P2, schedule.shape)
    if problem:
        print(f"case {rep.case}: certificate INCONSISTENT at {problem}")
        raise SystemExit(2)
    print(f"case {rep.case}: certificate consistent with the realized run")


if __name__ == "__main__":
    main()
