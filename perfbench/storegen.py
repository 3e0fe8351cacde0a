"""Synthetic halo-exchange trace, built straight as columns.

``nprocs`` ranks on a square periodic torus run ``rounds`` rounds.  In
each round every rank sends one message to each of its four neighbours
(tags 61-64, one per direction, as in :mod:`repro.apps.halo2d`),
receives the four messages sent to it, and computes once: 9 events per
rank per round, all sends of a round before its receives.  A seeded
share of the receives is posted with ``ANY_SOURCE``, so the race kernel
has work; the seed also jitters start times and compute durations.

The generator knows its own answers -- every receive is matched, each
wildcard receive races with the same neighbour's message of another
round -- so the benchmark can check the store and the kernels against
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mp.datatypes import SourceLocation
from repro.trace.columnar import COLUMN_SPEC, DEFAULT_KIND_TABLE, KIND_CODES, ColumnBlock
from repro.trace.events import EventKind

TAG_BASE = 61
DT = 1e-5
#: per-rank events in one round: 4 sends, 4 receives, 1 compute
PER_RANK = 9


@dataclass
class SyntheticStore:
    block: ColumnBlock
    #: (recv index, send index) of every message, sorted by receive
    pairs: np.ndarray
    wildcards: int

    @property
    def events(self) -> int:
        return len(self.block)


def pair_checksum(pairs: np.ndarray) -> int:
    """Order-sensitive fingerprint of (recv, send) index pairs."""
    if pairs.size == 0:
        return 0
    n = int(pairs.max()) + 1
    return int((pairs[:, 0].astype(np.int64) * n + pairs[:, 1]).sum())


def generate(events: int, nprocs: int, seed: int, wildcard_share: float) -> SyntheticStore:
    """About ``events`` events (whole rounds) of the halo trace."""
    side = int(round(nprocs ** 0.5))
    if side * side != nprocs or side < 3:
        raise ValueError(f"nprocs must be a square of a number >= 3, got {nprocs}")
    rng = np.random.default_rng(seed)
    per_round = nprocs * PER_RANK
    rounds = max(1, events // per_round)
    n = rounds * per_round
    nmsg = nprocs * 4

    rnd = np.repeat(np.arange(rounds, dtype=np.int64), per_round)
    slot = np.tile(np.arange(per_round, dtype=np.int64), rounds)
    phase = np.where(slot < nmsg, 0, np.where(slot < 2 * nmsg, 1, 2))
    within = np.where(phase < 2, slot % nmsg, slot - 2 * nmsg)
    proc = np.where(phase < 2, within // 4, within)
    d = np.where(phase < 2, within % 4, 0)
    gy, gx = proc // side, proc % side
    north = ((gy - 1) % side) * side + gx
    south = ((gy + 1) % side) * side + gx
    west = gy * side + (gx - 1) % side
    east = gy * side + (gx + 1) % side
    # a send in direction d goes to that neighbour with tag 61+d; the
    # receive for tag 61+d comes from the neighbour on the opposite side
    to_nb = np.choose(d, [north, south, west, east])
    from_nb = np.choose(d, [south, north, east, west])
    is_msg = phase < 2

    kind = np.choose(phase, [
        KIND_CODES[EventKind.SEND], KIND_CODES[EventKind.RECV],
        KIND_CODES[EventKind.COMPUTE],
    ])
    offset = np.where(phase == 0, d, np.where(phase == 1, 4 + d, 8))
    t0 = (rnd * 12 + offset) * DT + rng.uniform(0.0, 0.5 * DT, n)
    dur = np.where(phase == 2, rng.uniform(1.0, 3.0, n) * DT, 0.8 * DT)

    recv_pos = np.nonzero(phase == 1)[0]
    wild = recv_pos[rng.random(recv_pos.size) < wildcard_share]
    extra = np.full(n, -1, dtype=np.int64)
    extra[wild] = d[wild]  # one posted pattern per direction
    extras = [{"posted_src": -1, "posted_tag": TAG_BASE + k} for k in range(4)]

    # per-rank execution markers: 1, 2, ... in trace order
    order = np.argsort(proc, kind="stable")
    starts = np.searchsorted(proc[order], np.arange(nprocs))
    marker = np.empty(n, dtype=np.int64)
    marker[order] = np.arange(n) - np.repeat(starts, np.diff(np.r_[starts, n])) + 1

    none = np.full(n, -1, dtype=np.int64)
    cols = {
        "index": np.arange(n),
        "proc": proc,
        "kind": kind,
        "t0": t0,
        "t1": t0 + dur,
        "marker": marker,
        "src": np.where(phase == 0, proc, np.where(phase == 1, from_nb, -1)),
        "dst": np.where(phase == 0, to_nb, np.where(phase == 1, proc, -1)),
        "tag": np.where(is_msg, TAG_BASE + d, -1),
        "size": np.where(is_msg, 8 * 16, 0),
        "seq": np.where(is_msg, rnd, -1),
        "peer_marker": none,
        "peer_time": np.full(n, -1.0),
        "construct_id": none,
        "loc": phase,
        "ploc": none,
        "extra": extra,
    }
    columns = {
        name: np.ascontiguousarray(cols[name], dtype=dt) for name, dt in COLUMN_SPEC
    }
    locations = [
        SourceLocation("halo_synth.py", 10 + k, name)
        for k, name in enumerate(("send_halo", "recv_halo", "stencil"))
    ]
    block = ColumnBlock(
        columns=columns, locations=locations, peer_locations=[], extras=extras,
        kind_table=DEFAULT_KIND_TABLE,
    )

    # expected matching: the round-r receive of tag 61+d at p pairs with
    # the round-r send of tag 61+d from the opposite neighbour q
    r_r = rnd[recv_pos]
    send_idx = r_r * per_round + from_nb[recv_pos] * 4 + d[recv_pos]
    pairs = np.stack([recv_pos, send_idx], axis=1)
    return SyntheticStore(block=block, pairs=pairs, wildcards=int(wild.size))
