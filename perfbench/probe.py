"""Set-up probe: what a fresh CLI call pays before it computes anything.

Imports the pulsebeam CLI and loads the workload's generated inputs,
then exits.  run.py times this whole process several times; it imports
nothing of the benchmark, so the time is the program's own.

Usage: python perfbench/probe.py <workload> <workdir>
"""

import json
import os
import sys

import pulsebeam
import pulsebeam.cli


def main() -> None:
    workload, workdir = sys.argv[1], sys.argv[2]
    if workload == "link-sweep":
        with open(os.path.join(workdir, "links.json")) as handle:
            spec = json.load(handle)
        pulsebeam.SampledSignal.from_csv(os.path.join(workdir, spec["signal_csv"]))
        for link in spec["links"]:
            pulsebeam.channel_from_json(link)
    else:
        with open(os.path.join(workdir, "config.json")) as handle:
            json.load(handle)


if __name__ == "__main__":
    main()
