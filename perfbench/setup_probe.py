"""Set-up probe: a fresh interpreter imports robinbox and warms up one workload.

Prints ``ready`` once the first op could be timed; run.py measures the wall
time from spawning this process to that line.

    python3 perfbench/setup_probe.py <workload>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import warm_up  # noqa: E402  (imports robinbox)

if __name__ == "__main__":
    warm_up(sys.argv[1])
    print("ready", flush=True)
