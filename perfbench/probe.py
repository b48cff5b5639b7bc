"""Set-up probe: in a fresh interpreter, time ``import asymptolim.cli`` plus one
small first op, and print the seconds.  Usage: probe.py ARG...  (the op's argv)."""

import time

start = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from asymptolim.cli import main  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[1:])
elapsed = time.perf_counter() - start
if rc != 0:
    sys.exit(f"set-up op exited {rc}")
print(repr(elapsed))
