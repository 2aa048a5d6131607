#!/usr/bin/env python3
"""Pin perfbench's simulated digests.

Reads the standard output of a run of ``perfbench/run.py`` on standard
input, passes it through unchanged, takes the seed from the workloads'
``perfbench <workload>: seed N`` headers, and compares each workload's
``simulated digest`` line with the digest pinned below for that seed.
Exits non-zero when a digest differs, a workload printed none, or the
run's seed has no pinned table, naming what is wrong.  A run's own
checks only require the digests to repeat within the run; this pins
them across changes.

Usage::

    set -o pipefail
    python3 perfbench/run.py --workload all --seconds 4 \\
        | python3 scripts/check_perfbench_digests.py
    python3 perfbench/run.py --seed 2718 --workload all --seconds 4 \\
        | python3 scripts/check_perfbench_digests.py

A change that moves a simulated result updates these tables and gives
its reason, as the goldens are re-recorded.
"""

from __future__ import annotations

import re
import sys

#: Seed -> workload -> the first 16 hex digits of its simulated digest:
#: the default seed and the held-out one.
PINNED = {
    1975: {
        "interactive": "337510b378089ce7",
        "overcommit": "cbe740c766a8ae23",
        "login_storm": "d972290684496b10",
    },
    2718: {
        "interactive": "cf5bc1add9910ead",
        "overcommit": "2e25e9db19312c6f",
        "login_storm": "b9aae65f61edee23",
    },
}

_HEADER = re.compile(r"^perfbench (\w+):(?: seed (\d+),)?")
_DIGEST = re.compile(r"^\s+simulated digest: ([0-9a-f]+)\s*$")


def parse(text: str) -> tuple[set[int], dict[str, str | None]]:
    """The seeds the headers name, and workload -> digest for every
    workload ``text`` names; a workload whose run failed has none."""
    seeds: set[int] = set()
    digests: dict[str, str | None] = {}
    name = None
    for line in text.splitlines():
        header = _HEADER.match(line)
        if header:
            name = header.group(1)
            digests[name] = None
            if header.group(2):
                seeds.add(int(header.group(2)))
            continue
        digest = _DIGEST.match(line)
        if digest and name is not None:
            digests[name] = digest.group(1)
    return seeds, digests


def problems(text: str) -> list[str]:
    """One line per workload whose digest is missing or differs, or one
    line saying why the run's seed has no table to check against."""
    seeds, digests = parse(text)
    if len(seeds) != 1:
        return [f"expected one seed in the headers, found "
                f"{sorted(seeds) or 'none'}"]
    seed = seeds.pop()
    if seed not in PINNED:
        return [f"no digests pinned for seed {seed} (pinned: "
                f"{', '.join(map(str, PINNED))})"]
    found = []
    for name, want in PINNED[seed].items():
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
