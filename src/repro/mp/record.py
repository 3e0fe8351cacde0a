"""Recording and forcing of nondeterministic communication choices.

The paper (Section 4.2): "the behavior of nondeterministic statements
(such as statements using the MPI_ANY_SOURCE wild card) can be controlled
by p2d2 with the information available in the program trace.  This
ensures that the replay has identical event causality with the original
program execution."

The only nondeterminism the runtime admits is (a) which message a
wildcard receive matches and (b) which request a ``waitany`` returns.
:class:`CommLog` records both during a traced run, keyed by
deterministic per-process indices (the receive's post order; the
waitany's call order).  During replay the same object *forces* the
recorded outcomes, which is the instant-replay-style extension the
paper's Section 6 calls for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .datatypes import ANY_SOURCE, ANY_TAG
from .errors import ReplayDivergenceError
from .message import Envelope


@dataclass
class CommLog:
    """Recorded matching decisions for one execution.

    ``recv_matches[(rank, post_index)]`` is the envelope the receive with
    that post order matched.  ``waitany_choices[(rank, call_index)]`` is
    the request index that completed first.
    """

    recv_matches: dict[tuple[int, int], Envelope] = field(default_factory=dict)
    waitany_choices: dict[tuple[int, int], int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_recv(self, rank: int, post_index: int, env: Envelope) -> None:
        """Record that receive ``post_index`` on ``rank`` matched ``env``."""
        self.recv_matches[(rank, post_index)] = env

    def record_waitany(self, rank: int, call_index: int, choice: int) -> None:
        self.waitany_choices[(rank, call_index)] = choice

    # ------------------------------------------------------------------
    # forcing (replay side)
    # ------------------------------------------------------------------
    def forced_recv(self, rank: int, post_index: int) -> Optional[Envelope]:
        """The envelope the replay must deliver to this receive, if known.

        Unknown indices return None (the replay ran past the recorded
        history -- legal when the original run deadlocked or stopped).
        """
        return self.recv_matches.get((rank, post_index))

    def forced_waitany(self, rank: int, call_index: int) -> Optional[int]:
        return self.waitany_choices.get((rank, call_index))

    def check_recv_signature(
        self, rank: int, post_index: int, source: int, tag: int
    ) -> None:
        """Fail fast when a replayed receive cannot possibly match its
        recorded envelope (the program diverged from the trace)."""
        env = self.recv_matches.get((rank, post_index))
        if env is None:
            return
        src_ok = source in (ANY_SOURCE, env.src)
        tag_ok = tag in (ANY_TAG, env.tag)
        if not (src_ok and tag_ok):
            raise ReplayDivergenceError(
                f"replay divergence at rank {rank} receive #{post_index}: "
                f"posted (source={source}, tag={tag}) cannot match "
                f"recorded envelope {env}"
            )

    # ------------------------------------------------------------------
    # counts & persistence
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.recv_matches) + len(self.waitany_choices)

    def to_jsonable(self) -> dict:
        """Plain-JSON form, stable across Python versions."""
        return {
            "recv_matches": [
                {
                    "rank": rank,
                    "post_index": idx,
                    "src": env.src,
                    "dst": env.dst,
                    "tag": env.tag,
                    "seq": env.seq,
                    "comm": env.comm_id,
                }
                for (rank, idx), env in sorted(self.recv_matches.items())
            ],
            "waitany_choices": [
                {"rank": rank, "call_index": idx, "choice": choice}
                for (rank, idx), choice in sorted(self.waitany_choices.items())
            ],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "CommLog":
        log = cls()
        for rec in data.get("recv_matches", ()):
            log.recv_matches[(rec["rank"], rec["post_index"])] = Envelope(
                src=rec["src"], dst=rec["dst"], tag=rec["tag"],
                seq=rec["seq"], comm_id=rec.get("comm", 0),
            )
        for rec in data.get("waitany_choices", ()):
            log.waitany_choices[(rec["rank"], rec["call_index"])] = rec["choice"]
        return log

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_jsonable(), indent=1))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CommLog":
        return cls.from_jsonable(json.loads(Path(path).read_text()))
