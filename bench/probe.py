"""Set-up probe: a fresh process that does one workload's set-up (import
mcsr, build the config, load and validate the store where the workload
keeps one), prints "ready" and exits. run.py times it from spawn to that
line.

    python3 bench/probe.py <workload> <workdir>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(name, workdir):
    from spans import no_span
    from workloads import WORKLOADS

    WORKLOADS[name](0, Path(workdir)).setup(no_span)
    print("ready", flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:])
