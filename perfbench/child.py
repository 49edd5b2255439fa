"""One benchmark operation in a fresh interpreter, with tracing off.

    python3 perfbench/child.py READY_FD [CLI ARGS...]
    python3 perfbench/child.py READY_FD --criterion NAME

The parent puts the repository's `src` on PYTHONPATH.  The child starts
the processor-speed sampler of `pace.py` first.  As soon as the command
line front end is imported, it writes `time.monotonic()` and a newline to
READY_FD; the parent read the same clock just before the spawn, so the
difference is the set-up time of one process.  With no further arguments
the child stops there (a set-up probe).  Otherwise it runs the CLI with
the given arguments and exits with its code, or runs one verification
criterion and prints `{"name", "passed", "elapsed"}` as JSON (elapsed
wall time without the sampler's, not paced), which is how criteria are
timed cold, one process each.

On its way out it writes one more line to READY_FD, `{"setup_cal", "cal",
"pace", "parts"}`: the sampler's time before the ready mark and in all,
the pace over the whole process, and the paced time of each verification
criterion that ran, each paced over its own stretch of time.  The
criteria are found through `checks.CRITERIA`; without it, `parts` is
empty and the parent paces the times the CLI prints with the process's
pace.
"""

import json
import os
import sys
import time

from pace import Pacer


def mark_criteria(checks, pacer: Pacer) -> dict:
    """Wrap each criterion so that its run is recorded as
    name -> (start, end, sampler time inside)."""
    windows = {}
    criteria = getattr(checks, "CRITERIA", None)
    if not isinstance(criteria, dict):
        return windows
    for name, fn in list(criteria.items()):

        def marked(*args, _fn=fn, _name=name, **kwargs):
            start, spent = time.perf_counter(), pacer.spent
            try:
                return _fn(*args, **kwargs)
            finally:
                windows[_name] = (start, time.perf_counter(), pacer.spent - spent)

        criteria[name] = marked
    return windows


def paced_parts(windows: dict, pacer: Pacer, whole: float) -> dict:
    parts = {}
    for name, (start, end, cal) in windows.items():
        pace = pacer.pace(start, end)
        parts[name] = (end - start - cal) * (whole if pace is None else pace)
    return parts


def main(argv):
    pacer = Pacer()
    pacer.start()
    fd = int(argv[0])
    setup_cal = None
    windows = {}
    try:
        from steenrod_transfer import checks, cli

        os.write(fd, (repr(time.monotonic()) + "\n").encode())
        setup_cal = pacer.spent
        windows = mark_criteria(checks, pacer)
        args = argv[1:]
        if args[:1] == ["--criterion"]:
            start, spent = time.perf_counter(), pacer.spent
            report = checks.run_criterion(args[1])
            elapsed = time.perf_counter() - start - (pacer.spent - spent)
            print(json.dumps({"name": args[1], "passed": report.passed, "elapsed": elapsed}))
            return 0
        return cli.main(args) if args else 0
    finally:
        pacer.stop()
        whole = pacer.pace()
        stats = {
            "setup_cal": setup_cal,
            "cal": pacer.spent,
            "pace": whole,
            "parts": paced_parts(windows, pacer, whole),
        }
        os.write(fd, (json.dumps(stats) + "\n").encode())
        os.close(fd)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
