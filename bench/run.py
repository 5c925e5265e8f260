"""Benchmark of the railho handover simulator.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check        # every workload at tiny size, fresh processes
    python3 bench/run.py --make-references   # rewrite bench/references.json from this tree

It imports ``railho`` from ``src/`` of the tree it sits in and runs it as its
users do: ``simulate.monte_carlo`` on a ``RunConfig`` and ``cli.main(["sweep",
...])`` in-process. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Both modes run the number of whole passes over the workload's input pool
(see ``workloads.py``) that comes closest to ``--seconds``.
``--trace 0`` reports the end-to-end metrics: medians over units of the unit
wall time and of the run rate after set-up, the median of the set-ups run
after each unit, and peak RSS. Times are in reference seconds: each unit and
set-up is divided by the host's slowdown, read from a fixed yardstick timed
just before and after it (see ``yardstick.py``), so that a shared host's speed
swings cancel. The line before the result gives the raw seconds too.
``--trace 1`` runs each pass once untraced and once traced and reports the
per-layer metrics, in plain seconds. Times and counts are per unit, so
``simulate.precompute_tables.calls`` is 27 on ``sweep_grid`` and counts repeat
exactly for a seed. Spans go to ``bench/out/``.

Every unit's output is checked: each Success has the 3-sample delay, outcome
counts sum to the records, the records digest matches ``references.json`` and,
for the sweep, the CSVs read back one row per record. A unit that fails a check
counts all its operations as failed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--self-check", action="store_true", help="run every workload at tiny size")
    mode.add_argument("--make-references", action="store_true", help="rewrite references.json")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "railho" / "__init__.py").is_file():
        print(f"bench: no railho sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import railho  # imports numpy and scipy before anything is timed

    if Path(railho.__file__).resolve().parent != SRC / "railho":
        print(f"bench: imported railho from {railho.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import harness

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
