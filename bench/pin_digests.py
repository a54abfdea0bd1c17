"""Pin the default-seed output digests that run.py checks every op against.

    python3 bench/pin_digests.py [workload ...]

Runs each workload's first ops untraced at the default seed and rewrites
their entries in digests.json. Re-pin only when the benchmark's inputs
change; a change to the program must reproduce the pinned digests.
"""

import json
import os
import shutil
import sys

import run

PINNED_OPS = {"cli_fresh_uf4": 6, "api_shared_ref_uf2": 6}


def main(names):
    error = run.use_checkout_sources()
    if error:
        sys.exit(f"error: {error}")
    from spans import no_span
    from workloads import WORKLOADS

    path = run.HERE / "digests.json"
    table = json.loads(path.read_text())
    table["seed"] = run.DEFAULT_SEED
    for name in names or PINNED_OPS:
        workdir = run.OUT / f"pin-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload = WORKLOADS[name](run.DEFAULT_SEED, workdir)
            workload.prepare()
            workload.setup(no_span)
            digests = {}
            for k in range(PINNED_OPS[name]):
                output = workload.untraced(k)
                if output.problem:
                    sys.exit(f"error: {name} op {k}: {output.problem}")
                digests[str(k)] = output.digest
                print(f"{name} op {k}: {output.digest}", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        table["workloads"][name] = digests
        path.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
