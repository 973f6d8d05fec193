"""The speed probe: how fast is this machine right now?

The sandbox this benchmark runs in is a two-vCPU guest on a shared host, and
its speed is not constant: for stretches of seconds to minutes every
process in it runs at 0.55-0.9x of its undisturbed speed (measured with
nothing else running; ``/proc/stat`` shows no steal and no other process).
A served run only keeps one CPU busy, so this process sits on the other,
times one fixed unit of interpreter arithmetic every ``PERIOD_S`` and hands
the samples back at the end.  ``run.py`` divides a session's times by the
median unit time seen during that session, relative to ``UNIT_S``: the
end-to-end metrics are stated at the speed of an undisturbed machine.  The
unit is no code of the program under test, so no change to the program can
move it.

Runs until its stdin reaches EOF, then prints one JSON line of
``[start, duration]`` pairs (``time.perf_counter`` seconds, which on Linux
is the system-wide monotonic clock the load generator stamps with too).
"""

from __future__ import annotations

import json
import select
import sys
import time

#: The unit's duration on the seed-state machine when nothing disturbs it.
#: A constant of the benchmark: changing it rescales every timed metric.
UNIT_S = 2.2e-4
UNIT_ITERATIONS = 4_000
PERIOD_S = 0.02


def unit() -> int:
    total = 0
    for i in range(UNIT_ITERATIONS):
        total += i * i % 7
    return total


def main() -> int:
    clock = time.perf_counter
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        started = clock()
        unit()
        samples.append((started, clock() - started))
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
