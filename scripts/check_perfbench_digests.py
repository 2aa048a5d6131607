#!/usr/bin/env python3
"""Pin perfbench's simulated digests.

Reads the standard output of a default-seed (1975) run of
``perfbench/run.py`` on standard input, passes it through unchanged,
and compares each workload's ``simulated digest`` line with the digest
pinned below.  Exits non-zero when a digest differs or a workload
printed none, naming the workload and both digests.  A run's own
checks only require the digests to repeat within the run; this pins
them across changes.

Usage::

    set -o pipefail
    python3 perfbench/run.py --workload all --seconds 4 \\
        | python3 scripts/check_perfbench_digests.py

A change that moves a simulated result updates this table and gives
its reason, as the goldens are re-recorded.
"""

from __future__ import annotations

import re
import sys

#: Workload -> the first 16 hex digits of its simulated digest at seed 1975.
PINNED = {
    "interactive": "337510b378089ce7",
    "overcommit": "cbe740c766a8ae23",
    "login_storm": "d972290684496b10",
}

_HEADER = re.compile(r"^perfbench (\w+):")
_DIGEST = re.compile(r"^\s+simulated digest: ([0-9a-f]+)\s*$")


def parse(text: str) -> dict[str, str | None]:
    """Workload -> digest for every workload ``text`` names; a workload
    whose run failed has none."""
    digests: dict[str, str | None] = {}
    name = None
    for line in text.splitlines():
        header = _HEADER.match(line)
        if header:
            name = header.group(1)
            digests[name] = None
            continue
        digest = _DIGEST.match(line)
        if digest and name is not None:
            digests[name] = digest.group(1)
    return digests


def problems(text: str) -> list[str]:
    """One line per workload whose digest is missing or differs."""
    digests = parse(text)
    found = []
    for name, want in PINNED.items():
        got = digests.get(name)
        if got is None:
            found.append(f"{name}: no simulated digest (pinned {want})")
        elif got != want:
            found.append(f"{name}: simulated digest {got}, pinned {want}")
    return found


def main() -> int:
    text = sys.stdin.read()
    sys.stdout.write(text)
    found = problems(text)
    for problem in found:
        print(f"check_perfbench_digests: {problem}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
