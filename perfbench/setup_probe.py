"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is what a user pays before the first round: importing dynreg,
loading the run configurations and constructing their streams. Prints one
JSON line with the three parts in seconds.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main(argv) -> int:
    workload = WORKLOADS[argv[0]]
    seed = int(argv[1])
    t0 = time.perf_counter()
    import dynreg  # noqa: F401
    from dynreg.config import load_config

    t1 = time.perf_counter()
    configs = [load_config(None, list(shape.sets)) for shape in workload.shapes]
    t2 = time.perf_counter()
    for shape, cfg in zip(workload.shapes, configs):
        cfg.stream(seed + shape.seed_offset)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1, "stream_s": t3 - t2, "total_s": t3 - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
