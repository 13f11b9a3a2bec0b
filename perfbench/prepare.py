"""One set-up of a benchmark run, in a process of its own.

Imports slrkit from the checkout's ``src``, generates a workload's sessions
and writes its input files.  The last line of standard output is a JSON
object with the ``time.monotonic()`` reading taken once the files are
written, which the parent subtracts from its reading just before starting
this process to get the set-up time.

    python3 perfbench/prepare.py --workload relabel --seed 1 --dir .bench_work/x
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the path above)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    directory = Path(args.dir)
    generate_s, write_s = workloads.write_inputs(workload, args.seed, directory)
    done = time.monotonic()
    print(
        json.dumps(
            {
                "done": done,
                "generate_s": generate_s,
                "write_s": write_s,
                "digest": workloads.digest(workload.inputs(directory)),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
