"""Workload generation: which catalog questions a workload runs, at which seed.

A workload is every catalog question whose kind the workload owns.  The
kinds are split so that each workload stresses different layers:

- ``transient``  — envelope, pontryagin, hull, template: lane Pontryagin
  sweeps, the rk4 controlled-batch kernel and ``drift_batch``.
- ``stationary`` — steadystate, dtmc_reward: Birkhoff construction,
  scalar ODE solves, the convex hull and the interval-DTMC operators.
- ``ensemble``   — ensemble: finite-N SSA under ``map_shards``; the
  control workload on which ODE and bounds changes should not move.

Seed 0 is the catalog as registered.  Any other seed redraws the
validity-declared factory kwargs of each spec uniformly inside their
declared ranges; specs without validity ranges run as registered.  A
run repeats its workload in several passes, and at a seed other than 0
each pass takes its own draw (``draw`` 0, 1, ...).  Draw ``i`` is point
``i`` of a Halton sequence shifted by a uniform offset taken from the
seed, so every draw is uniform over the ranges while the few draws of
one run spread evenly over them.  Some kwargs change a question's cost
several-fold (``theta_max`` of the SIR specs), so independent draws
would let two expensive draws out of three set a run's median.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

WORKLOAD_KINDS: Dict[str, Tuple[str, ...]] = {
    "transient": ("envelope", "pontryagin", "hull", "template"),
    "stationary": ("steadystate", "dtmc_reward"),
    "ensemble": ("ensemble",),
}


def workload_of_kind(kinds: Sequence[str]) -> Dict[str, str]:
    """Map every dispatched question kind to the one workload that owns it.

    Raises ``ValueError`` when a kind is owned by no workload (for
    example a kind added to the runner later) or by more than one, so a
    new kind fails the benchmark instead of silently dropping out of it.
    """
    owner: Dict[str, str] = {}
    for workload, owned in WORKLOAD_KINDS.items():
        for kind in owned:
            if kind in owner:
                raise ValueError(
                    f"question kind {kind!r} is assigned to both "
                    f"{owner[kind]!r} and {workload!r}")
            owner[kind] = workload
    unassigned = sorted(set(kinds) - set(owner))
    if unassigned:
        raise ValueError(
            f"question kind(s) {unassigned} are assigned to no workload; "
            f"add them to WORKLOAD_KINDS")
    return owner


#: One Halton base per validity-declared kwarg of a spec.
HALTON_BASES = (2, 3, 5, 7, 11, 13)


def radical_inverse(index: int, base: int) -> float:
    """Point ``index`` of the van der Corput sequence in ``base``."""
    inverse, scale = 0.0, 1.0 / base
    while index:
        index, digit = divmod(index, base)
        inverse += digit * scale
        scale /= base
    return inverse


def seeded_spec(spec, seed: int, draw: int = 0):
    """The spec at ``seed``: registered at 0, validity kwargs redrawn otherwise."""
    ranges = spec.validity_ranges
    if seed == 0 or not ranges:
        return spec
    keys = sorted(ranges)
    if len(keys) > len(HALTON_BASES):
        raise ValueError(f"scenario {spec.name!r} declares more validity "
                         f"ranges than the {len(HALTON_BASES)} Halton bases")
    shift = np.random.default_rng([seed, zlib.crc32(spec.name.encode())]
                                  ).uniform(size=len(keys))
    drawn = {}
    for key, base, offset in zip(keys, HALTON_BASES, shift):
        low, high = (float(bound) for bound in ranges[key])
        unit = (radical_inverse(draw, base) + offset) % 1.0
        drawn[key] = low + unit * (high - low)
    return spec.with_overrides(model_kwargs=drawn)


def workload_items(workload: str, seed: int, specs,
                   draw: int = 0) -> List[tuple]:
    """``(spec, question)`` pairs of ``workload`` at ``seed``, in catalog order.

    ``specs`` are the registered catalog specs.  Every kind the runner
    dispatches must be owned by exactly one workload.
    """
    from repro.scenarios import QUESTION_KINDS

    owner = workload_of_kind(QUESTION_KINDS)
    if workload not in WORKLOAD_KINDS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {sorted(WORKLOAD_KINDS)}")
    items = []
    for spec in specs:
        if not any(owner[q.kind] == workload for q in spec.questions):
            continue
        seeded = seeded_spec(spec, seed, draw)
        items.extend((seeded, q) for q in seeded.questions
                     if owner[q.kind] == workload)
    return items


def question_id(spec, question) -> str:
    """Stable record key of one question: ``scenario/kind[/label]``."""
    parts = [spec.name, question.kind]
    if question.label:
        parts.append(question.label)
    return "/".join(parts)
