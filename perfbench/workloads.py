"""Seeded request lists for the benchmark's workloads.

A workload is a list of slots.  A slot is one kind of request together with
its variants of about equal cost: output format, k, the sampling seed of a
random reference path.  One deck draws a variant for every slot and
shuffles the order, so every deck of a workload does the same work while
the seed decides which inputs the program sees.  A run repeats decks, so
medians and the tail percentile do not depend on how many decks fit into
the measured time.
"""

from __future__ import annotations

import random

WORKLOADS = ("paths", "polys", "lattice", "dist-cache")

STATS = ("des", "hp", "ea", "lnfs", "da")
Q_STATS = ("des", "lnfs", "hp")
DIST_FORMATS = ("text", "json", "csv")
VERIFY_LIMITS = {"main-theorem": 6, "preshelling": 5, "ssyt": 8, "q-identity": 8, "parth": 8}
# Each dist-cache key is asked for once more than this per deck: the first
# request misses and writes the file, the rest are hits.
HITS_PER_KEY = 3

Argv = tuple[str, ...]


def _formats(argv: Argv, formats: tuple[str, ...]) -> list[Argv]:
    return [argv + ("--format", f) for f in formats]


def _dist_slots(n: int) -> list[list[Argv]]:
    kinds = [("dist", "--n", str(n), "--stat", stat) for stat in STATS]
    kinds += [("dist", "--n", str(n), "--stat", stat, "--q") for stat in Q_STATS]
    return [_formats(kind, DIST_FORMATS) for kind in kinds]


def _qnarayana_slot(n: int, ks, route: str) -> list[Argv]:
    return [
        argv
        for k in ks
        for argv in _formats(("qnarayana", "--n", str(n), "--k", str(k), "--route", route), ("text", "json"))
    ]


def _paths() -> list[list[Argv]]:
    # Every request kind at n = 10 (three times) and n = 11, and the plain
    # n = 11 tables once more, so that the tail percentile falls among the
    # n = 11 requests rather than in the gap below them.  No n = 12: its
    # kinds take about 45 s together on one core, and a deck of a few
    # multi-second requests gave run-to-run spreads above 0.25.
    slots = _dist_slots(11)[: len(STATS)]
    for n, copies in ((10, 3), (11, 1)):
        for _ in range(copies):
            slots += _dist_slots(n)
            # k fixed at n // 2: the schur-ssyt route of --route all keeps
            # every tableau in memory, so k would set the deck's peak RSS
            slots += [_qnarayana_slot(n, (n // 2,), route) for route in ("enumerate", "all")]
    return slots


def _polys() -> list[list[Argv]]:
    slots = []
    for n in (20, 30, 40, 50, 60):
        for share in (1, 3, 5):
            k = round(n * share / 6)
            for route in ("closed", "schur-hook"):
                slots.append(_qnarayana_slot(n, range(k - 1, k + 2), route))
        slots.append(_formats(("narayana", "--n", str(n)), DIST_FORMATS))
    return slots


def _lattice() -> list[list[Argv]]:
    slots = []
    for check, limit in VERIFY_LIMITS.items():
        for n in range(5, limit + 1):
            slot = _formats(("verify", "--check", check, "--n", str(n)), ("text", "json"))
            # the cheap small-n checks twice, so the deck has enough requests
            # for a tail percentile above the median
            slots += [slot] * (2 if n <= 6 else 1)
    slots.append(
        [
            argv
            for seed in range(4)
            for argv in _formats(
                ("verify", "--check", "main-theorem", "--n", "6", "--ref-path", "random",
                 "--samples", "20", "--seed", str(seed)),
                ("text", "json"),
            )
        ]
    )
    for n in (6, 7, 8):
        slots += [_formats(("omega", "--n", str(n)), ("dot", "json"))] * (2 if n <= 6 else 1)
    return slots


def _dist_cache() -> list[list[Argv]]:
    # n stops at 10: n = 11 misses would take a third of a deck, so a run
    # would hold one deck and its tail would be a single request.  At
    # n = 9..10 a run holds two or three decks.
    return [slot for n in (9, 10) for slot in _dist_slots(n)]


SLOTS = {"paths": _paths, "polys": _polys, "lattice": _lattice, "dist-cache": _dist_cache}


def deck(workload: str, rng: random.Random) -> list[Argv]:
    """One shuffled request list of the workload, drawn from rng."""
    if workload == "dist-cache":
        keys = [rng.choice(slot) for slot in _dist_cache()]
        requests = [argv for argv in keys for _ in range(1 + HITS_PER_KEY)]
    else:
        requests = [rng.choice(slot) for slot in SLOTS[workload]()]
    rng.shuffle(requests)
    return requests


def catalogue(workload: str) -> set[Argv]:
    """Every request the workload can draw, whatever the seed."""
    return {argv for slot in SLOTS[workload]() for argv in slot}
