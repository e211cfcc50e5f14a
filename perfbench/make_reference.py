"""Regenerate ``reference.json``, the benchmark's committed references.

Run from the repository root (a few minutes on two cores)::

    python3 perfbench/make_reference.py

It records, with the program as it is:

* ``exact_digests``: the digest of the exact figure for the default
  seed, run serially; exact_serial and exact_jobs2 must reproduce it;
* ``fast_population``: per scale, the exact gain curves averaged over
  ``workloads.POPULATION_SEEDS``, which fast_serial is checked against.

Regenerate only when a change is meant to alter simulated results.
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH_DIR, os.path.join(os.getcwd(), "src")]

import workloads  # noqa: E402


def main() -> None:
    from repro.runner import ExperimentRunner

    scale = workloads.SCALES["default"]
    runner = ExperimentRunner(jobs=1)
    summary = workloads.run_exact(
        runner, scale, [workloads.exact_plans(workloads.DEFAULT_SEED, scale)])
    runner.close()
    reference = {
        "about": "Committed references of perfbench (make_reference.py): "
                 "the exact figure's digest per (seed, scale), and per "
                 "scale the exact gain curves averaged over the population "
                 "seeds, which fast_serial's peaks are checked against.",
        "exact_digests": [{"seed": workloads.DEFAULT_SEED,
                           "scale": "default",
                           "digest": summary["digests"][0]}],
        "fast_population": {},
    }
    for name in ("default", "tiny"):
        runner = ExperimentRunner(jobs=2)
        curves = workloads.population_curves(runner, workloads.SCALES[name])
        runner.close()
        reference["fast_population"][name] = {
            "seeds": list(workloads.POPULATION_SEEDS), "curves": curves}
    with open(os.path.join(BENCH_DIR, "reference.json"), "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
