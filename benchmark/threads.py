"""Reference figures: do fatflat's thread pools ever help?

    python3 benchmark/threads.py

Times a 2,000-sample scan_nonpositive on the four_d_model chart (k = 19,
r <= 45) and a 4x10^6-sample union_volume of the unit square shifted by
(0.5, 0) with FATFLAT_THREADS=1 and =2, each in a fresh interpreter, and
prints the median of five runs per figure.  Run it from the root of a
source checkout, on an otherwise idle machine.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_CHILD = """
import statistics, sys, time
sys.path.insert(0, sys.argv[1])
from fatflat import flats, geometry
from fatflat.profiles import WarpingProfile
chart = geometry.MetricChart.four_d_model(WarpingProfile.interpolated(19.0))
region = geometry.default_region(chart, r_max=45.0)
square = flats.ConvexBody([[0, 0], [1, 0], [1, 1], [0, 1]])
shift = flats.Isometry.translation_by([0.5, 0.0])
jobs = {"scan_nonpositive_2000": lambda: geometry.scan_nonpositive(
            chart, 2000, 0, region),
        "union_volume_4e6": lambda: flats.union_volume(square, shift,
                                                       4 * 10 ** 6, 0)}
for name, job in jobs.items():
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        job()
        times.append(time.perf_counter() - t0)
    print(name, statistics.median(times))
"""


def main() -> None:
    for threads in ("1", "2"):
        env = dict(os.environ, FATFLAT_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _CHILD,
                               str(ROOT / "src")], env=env, check=True,
                              capture_output=True, text=True, timeout=600)
        for line in done.stdout.splitlines():
            name, seconds = line.split()
            print(f"FATFLAT_THREADS={threads} {name}: {float(seconds):.3f} s")


if __name__ == "__main__":
    main()
