"""One set-up of rydqudit in a fresh interpreter, for the setup_s metric.

Usage: python3 perfbench/setup_probe.py CHECKOUT_ROOT

Imports rydqudit from CHECKOUT_ROOT/src, fills the compiler's first-call
calibration caches with the smallest compile, and prints the CLOCK_MONOTONIC
time in nanoseconds at which the interpreter was ready for a first op.  The
parent subtracts the time at which it launched this process.
"""

import math
import os
import sys
import time


def main() -> None:
    src = os.path.join(sys.argv[1], "src")
    sys.path.insert(0, src)
    import rydqudit as rq

    if not os.path.abspath(rq.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"rydqudit was imported from {rq.__file__}, not from {src}")
    rq.compile_phase_gate(rq.QuditState.uniform(2), math.pi / 2,
                          rq.CompileOptions(omega_01=1e-2))
    print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))


if __name__ == "__main__":
    main()
