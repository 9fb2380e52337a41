"""Write pins.json from one untraced pass of every workload.

Usage: python3 perfbench/pin.py

Run it only on a commit whose outputs are trusted, because later commits are
gated against what it writes.  An operation that raises has no output to pin:
its existing entry is kept, and the script stops if there is none.
"""

import json
import sys
import time

from run import PINS, WORKLOADS, BenchError, _spawn

DEADLINE_S = 600


def main():
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for workload in WORKLOADS:
        result = _spawn(workload, 0, "run", time.monotonic() + DEADLINE_S)
        old, new = pins.get(workload, {}), {}
        for op in result["ops"]:
            if op["error"] is None:
                new[op["label"]] = op["observed"]
            elif op["label"] in old:
                new[op["label"]] = old[op["label"]]
            else:
                raise BenchError(f"{op['label']} raised ({op['error']}) "
                                 "and has no pin to keep")
        pins[workload] = new
    PINS.write_text("{\n" + ",\n".join(
        f" {json.dumps(w)}: {{\n" + ",\n".join(
            f"  {json.dumps(label)}: {json.dumps(value)}"
            for label, value in ops.items()) + "\n }"
        for w, ops in pins.items()) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
