"""Time one benchmark set-up in a fresh interpreter.

Set-up is: import treeshrink, build the workload's seeded input trees, save
each as JSON and load it back with ``ScenarioTree.load`` (which validates).
Prints the elapsed seconds as the last line of standard output.

Usage: python3 setup_probe.py WORKLOAD SEED OUTDIR [--toy]
"""

import sys
import time
from pathlib import Path


def main(argv):
    name, seed, outdir = argv[0], int(argv[1]), Path(argv[2])
    start = time.perf_counter()
    import treeshrink
    from workloads import workloads

    workload = workloads(toy="--toy" in argv)[name]
    for k, instance_seed in enumerate(workload.seeds(seed)):
        path = outdir / f"original-{k}.json"
        workload.original(instance_seed).save(path)
        treeshrink.ScenarioTree.load(path)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src")]
    main(sys.argv[1:])
