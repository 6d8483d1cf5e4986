"""Print the tracemalloc peaks of ``save_panel`` and ``load_panel``.

For each qubit count (8, 9 and 10 unless others are given) it writes the
panel of a Haar state (seed 1) in the text and in the JSON encoding and
reads each file back, one line per encoding: n, encoding, file size, the
peak of the save, the peak of the load, all in MiB, and the CPU seconds of
each call (tracemalloc slows both).  Every save gets a fresh
``panel_of_pure``, so its peak includes the panel's dense entries, which
the writer builds on first read (2**(n-1) x 2**(n-1) complex per entry,
40 MiB at n = 10); so does every load's, which builds them from the text.

    OPENBLAS_NUM_THREADS=1 python tools/io_memory.py [n ...]

The script imports ``qmarginal`` from the ``src`` directory of the tree it
sits in, and uses only the standard library, numpy and the package.  The
files go to a temporary directory, removed at the end: at n = 10 the text
file is 118 MB and the JSON file 129 MB.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import qmarginal as qm  # noqa: E402
from qmarginal.io import load_panel, save_panel  # noqa: E402

MIB = 2**20


def peak(call) -> tuple[float, float]:
    """(tracemalloc peak in MiB, CPU seconds) of call()."""
    tracemalloc.start()
    start = time.process_time()
    try:
        call()
        seconds = time.process_time() - start
        return tracemalloc.get_traced_memory()[1] / MIB, seconds
    finally:
        tracemalloc.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, nargs="*", default=[8, 9, 10])
    args = parser.parse_args()
    print("n encoding file_mib save_peak_mib load_peak_mib save_s load_s")
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.n:
            psi = qm.haar_random_ket(n, 1)
            for suffix in (".txt", ".json"):
                path = Path(tmp) / f"panel{suffix}"
                panel = qm.panel_of_pure(psi)
                save_mib, save_s = peak(lambda: save_panel(path, panel))
                del panel
                load_mib, load_s = peak(lambda: load_panel(path))
                size = path.stat().st_size / MIB
                path.unlink()
                print(f"{n} {suffix[1:]} {size:.1f} {save_mib:.1f} {load_mib:.1f} {save_s:.2f} {load_s:.2f}",
                      flush=True)


if __name__ == "__main__":
    main()
