"""The unit of plan-space search: one costed, buildable alternative."""

from __future__ import annotations

import dataclasses
from typing import Callable

from ..plan import CandidateInfo, PhysicalPlan


@dataclasses.dataclass
class Candidate(CandidateInfo):
    """One enumerated plan: its waterfall row plus a thunk that builds it.

    ``build`` is a zero-argument callable closing over the lowered
    statement and the decision this candidate represents; building is
    deferred so EXPLAIN can show the waterfall without compiling every
    rejected alternative, and so the fuzz oracle can build the same
    candidate repeatedly.  The row's fields (``label`` - a stable
    human-readable identity, e.g. ``select:layered(amount)`` or
    ``join:hash(bitmap, build=left)`` - and the estimates) are
    :class:`CandidateInfo`'s.
    """

    #: source family: select / join / trace / offchain / block / fanout
    kind: str = ""
    build: Callable[[], PhysicalPlan] = dataclasses.field(  # type: ignore[assignment]
        default=lambda: None, compare=False, repr=False)
    #: extra detail for docs/debugging, not part of the identity
    detail: str = ""

    def info(self, chosen: bool = False) -> CandidateInfo:
        """This candidate's waterfall row on its own."""
        return CandidateInfo(
            self.label, self.est_cost_ms, self.est_rows, self.est_seeks, chosen)


def attach(plan: PhysicalPlan, ranked: list[Candidate]) -> PhysicalPlan:
    """Record the waterfall on a plan built from ``ranked[0]``: the
    ranking's own candidates, the first flagged chosen.  ``ranked`` is
    the caller's private ranking, handed over to the plan."""
    ranked[0].chosen = True
    plan.candidates = ranked  # type: ignore[assignment]
    return plan
