"""Run the mteval CLI in this process and stamp the end of its set-up.

Usage::

    python3 child.py STAMP_FILE SPANS_FILE|- -- <mteval arguments>

``STAMP_FILE`` receives the CLOCK_MONOTONIC time at which
``build_resources`` returned.  With a ``SPANS_FILE``, the run is traced
(see tracer.py) and its spans are written there.  The exit code is the
CLI's.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    stamp_path, spans_path = argv[0], argv[1]
    if argv[2] != "--":
        raise SystemExit("usage: child.py STAMP_FILE SPANS_FILE|- -- <mteval arguments>")
    import mteval.cli as cli

    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    build_resources = cli.build_resources
    setup_done: list[float] = []

    def stamped(*args, **kwargs):
        resources = build_resources(*args, **kwargs)
        setup_done.append(time.monotonic())
        return resources

    cli.build_resources = stamped
    try:
        return cli.main(argv[3:])
    finally:
        with open(stamp_path, "w", encoding="utf-8") as handle:
            json.dump({"setup_done": setup_done}, handle)
        if tracer is not None:
            tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
