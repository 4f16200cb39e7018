"""Write reference.json: every workload's study outputs, full and smoke.

Run from the root of a checkout, only when a change to hdgwg is meant to
change the studies' results:

    python3 perfbench/record_reference.py

The committed file holds the outputs of the seed code.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from run import REFERENCE, RESULTS, SRC, _quiet_main
from workloads import OUTPUT_CSV, SMOKE, WORKLOADS, invocation_key, read_csv


def main():
    sys.path.insert(0, SRC)
    import hdgwg.cli

    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=RESULTS)
    reference = {}
    try:
        for table in (WORKLOADS, SMOKE):
            for invocations in table.values():
                for argv in invocations:
                    code, text = _quiet_main(hdgwg.cli,
                                             argv + ["--outdir", workdir])
                    if code != 0:
                        raise SystemExit("{} failed: {}".format(argv, text))
                    reference[invocation_key(argv)] = read_csv(
                        os.path.join(workdir, OUTPUT_CSV[argv[0]]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote {} invocations to {}".format(len(reference), REFERENCE))


if __name__ == "__main__":
    main()
