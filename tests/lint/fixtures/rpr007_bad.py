# repro-lint: role=serve
"""RPR007 fixture: blocking calls inside async serving code.

Expected findings: 2 bare sleeps (module attribute, from-import
alias), 2 synchronous file I/O calls in async defs (open,
Path.read_text), 2 per-request probe loops (for over stations, while
over a queue).
"""

import time
from pathlib import Path
from time import sleep as snooze


def waits_for_the_window():
    time.sleep(0.01)
    snooze(0.5)


async def journals_every_batch(batch):
    with open("journal.log", "a") as handle:
        handle.write(repr(batch))
    return Path("config.json").read_text()


async def probes_one_request_at_a_time(fleet, batch):
    powers = []
    for request in batch:
        powers.append(fleet.measure_aligned(request.vx, request.vy,
                                            stations=[request.station]))
    return powers


async def drains_the_queue_probing(backend, queue):
    results = []
    while queue:
        grid = queue.pop()
        results.append(backend.measure_grid(grid))
    return results
