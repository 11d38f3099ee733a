"""Admission control: which arrivals are allowed to queue at all.

Under overload a serving system must *shed* load, not queue it forever — a
request that will blow its deadline anyway only adds queueing delay for every
request behind it.  :class:`AdmissionPolicy` is the pluggable gate the
:class:`~repro.serve.loop.ServingLoop` consults on every arrival:

* :class:`AdmitAll` — the pre-SLO behaviour: everything queues, nothing is
  shed (the baseline every other policy is measured against);
* :class:`DeadlineAwareAdmission` — reject a request whose *predicted*
  completion time already misses its deadline.  The prediction combines the
  batching wait bound, the earliest worker horizon, and the engine's
  per-device execution-latency estimate for the request's batch size — the
  same estimate the device-aware router ranks workers with;
* :class:`PriorityAdmission` — priority-preemptive queueing: dispatch order
  follows ``InferenceRequest.priority`` (ties FIFO), a high-priority arrival
  whose deadline demands it closes the forming batch on the spot, and
  predicted misses are shed in every class — with a *protection margin*
  that makes classes below the top one yield admission headroom: a
  below-top request must be predicted to finish with spare budget
  proportional to its class distance from the top, so under contention the
  low classes shed first and the freed capacity serves the important
  traffic.

Policies never measure a device themselves: they see a
:class:`~repro.serve.loop.LoopState` view of the loop (virtual time, queue
depth, worker horizons, latency estimates) and return an
:class:`AdmissionDecision`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..checks import Registry
from .request import InferenceRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .loop import LoopState

__all__ = [
    "AdmissionDecision",
    "AdmissionPolicy",
    "AdmitAll",
    "DeadlineAwareAdmission",
    "PriorityAdmission",
    "ADMISSION_POLICIES",
    "get_admission_policy",
    "list_admission_policies",
]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    admitted: bool
    #: Reason string recorded with a rejection (e.g. "predicted-deadline-miss").
    reason: str = ""

    @classmethod
    def admit(cls) -> "AdmissionDecision":
        """The one shared admitting decision (decisions are frozen)."""
        return _ADMITTED

    @classmethod
    def reject(cls, reason: str) -> "AdmissionDecision":
        return cls(admitted=False, reason=reason)


#: Every admission is the same decision, so the policies hand out this one
#: instance instead of building a new one per admitted request.
_ADMITTED = AdmissionDecision(admitted=True)


class AdmissionPolicy:
    """Gate deciding whether an arrival may enter the serving queue.

    Subclasses implement :meth:`admit`; :meth:`order_key` and
    :meth:`preempts` refine how admitted requests queue.  Policies may keep
    state — the service owns one instance per run, so state never leaks
    between services.
    """

    #: Registry name; subclasses override.
    name = "admission"

    def reset(self) -> None:
        """Clear per-run state; the serving loop calls this once per run."""

    def admit(self, request: InferenceRequest, state: "LoopState") -> AdmissionDecision:
        """Decide whether ``request`` (arriving now) may queue."""
        raise NotImplementedError

    def order_key(self, request: InferenceRequest):
        """Sort key fixing the dispatch order within a closing batch.

        The default is FIFO (arrival order); priority-aware policies rank
        important requests first so chunking serves them ahead of the rest.
        """
        return (request.arrival_ms, request.request_id)

    def preempts(self, request: InferenceRequest, state: "LoopState") -> bool:
        """Whether this arrival closes the forming batch immediately.

        A preempting arrival joins the batch and the batch dispatches on the
        spot — the arrival (and whatever queued before it) bypasses the rest
        of the max-wait window.
        """
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}()"


class AdmitAll(AdmissionPolicy):
    """Queue everything: the pre-SLO behaviour and the baseline to beat."""

    name = "admit-all"

    def admit(self, request: InferenceRequest, state: "LoopState") -> AdmissionDecision:
        """Always admit (``state`` unused)."""
        return _ADMITTED


class DeadlineAwareAdmission(AdmissionPolicy):
    """Reject a request whose predicted completion already misses its deadline.

    The prediction is deliberately the same arithmetic the device-aware
    router uses: batching wait (bounded by the batch policy) plus the
    earliest worker start plus the engine's execution-latency estimate for
    the request's sample count.  ``slack_ms`` loosens the gate — a positive
    slack admits requests predicted to miss by less than that margin,
    absorbing estimate noise.
    """

    name = "deadline"

    def __init__(self, slack_ms: float = 0.0):
        self.slack_ms = slack_ms

    def admit(self, request: InferenceRequest, state: "LoopState") -> AdmissionDecision:
        """Admit unless the predicted completion misses the deadline."""
        if self._predicted_to_meet(request, state):
            return _ADMITTED
        return AdmissionDecision.reject("predicted-deadline-miss")

    def _predicted_to_meet(self, request: InferenceRequest, state: "LoopState",
                           skip_wait: bool = False) -> bool:
        """Whether the prediction clears the deadline (within ``slack_ms``).

        ``skip_wait`` evaluates the immediate-dispatch prediction instead —
        what a preempting arrival would experience.  The prediction is
        recomputed with a zero wait rather than subtracted, because the wait
        only moves the completion when it, not a busy worker horizon, is the
        binding term.
        """
        if request.deadline_ms is None:
            return True
        predicted = state.predicted_completion_ms(request, immediate=skip_wait)
        return predicted <= request.absolute_deadline_ms + self.slack_ms


class PriorityAdmission(DeadlineAwareAdmission):
    """Priority-preemptive queueing with priority-aware shedding.

    Dispatch order follows the request's priority class (ties FIFO), and an
    arrival of a strictly higher priority than everything already queued
    flushes the forming batch so the important request does not sit behind
    it.  Shedding inherits the deadline prediction of
    :class:`DeadlineAwareAdmission` for every class — overload beyond
    capacity must be shed whoever carries it — tightened by a *protection
    margin* for the classes below the top one.

    Queue-jumping alone does not protect the high class under deep
    overload: once the worker horizons (not the batching wait) are the
    binding term of the prediction, every class predicts the same miss and
    sheds at the same rate.  The margin restores the asymmetry where it
    matters — at the admission gate.  A request ``levels`` classes below
    the top class seen this run is admitted only when predicted to finish
    with ``protection * levels`` of its latency budget to spare (capped at
    ``MAX_PROTECTION``), so marginal low-priority arrivals are shed first
    and the capacity they would have consumed serves the top class.  The
    top class itself, and every request while only one class has been
    seen, admits exactly as :class:`DeadlineAwareAdmission` would.
    """

    name = "priority"

    #: Cap on the protection margin, as a fraction of the request's budget:
    #: even a deeply subordinate class keeps a sliver of admission chance
    #: when the pool is idle and its budget generous.
    MAX_PROTECTION = 0.75

    def __init__(self, slack_ms: float = 0.0, protection: float = 0.25):
        super().__init__(slack_ms=slack_ms)
        self.protection = protection
        self._highest_queued: int | None = None
        self._highest_seen: int | None = None
        #: (request_id, needs_preemption) of the last admit() verdict — the
        #: loop calls preempts() immediately after on unchanged state, so the
        #: prediction is computed once, not twice per arrival.
        self._last_verdict: tuple[int, bool] | None = None

    def reset(self) -> None:
        """Forget the previous run's priority classes (loop calls per run)."""
        self._highest_queued = None
        self._highest_seen = None
        self._last_verdict = None

    def admit(self, request: InferenceRequest, state: "LoopState") -> AdmissionDecision:
        """Shed on predicted miss, labelling below-top-class rejections.

        A request preemption would rescue (see :meth:`preempts`) is admitted
        even though the waiting prediction misses — it will not wait.  A
        rejection is labelled ``low-priority-shed`` only when a strictly
        higher class has been seen; the top class's own overflow is an
        ordinary ``predicted-deadline-miss``.
        """
        if self._highest_seen is None or request.priority > self._highest_seen:
            self._highest_seen = request.priority
        if self._predicted_to_meet(request, state):
            self._last_verdict = (request.request_id, False)
            return _ADMITTED
        if self._rescued_by_preemption(request, state):
            self._last_verdict = (request.request_id, True)
            return _ADMITTED
        self._last_verdict = (request.request_id, False)
        if request.priority < self._highest_seen:
            return AdmissionDecision.reject("low-priority-shed")
        return AdmissionDecision.reject("predicted-deadline-miss")

    def order_key(self, request: InferenceRequest):
        """Rank by priority (descending), then FIFO within a class."""
        return (-request.priority, request.arrival_ms, request.request_id)

    def _predicted_to_meet(self, request: InferenceRequest, state: "LoopState",
                           skip_wait: bool = False) -> bool:
        """Deadline prediction, tightened by the class-protection margin."""
        if request.deadline_ms is None:
            return True
        predicted = state.predicted_completion_ms(request, immediate=skip_wait)
        margin = self._protection_margin_ms(request)
        return predicted <= request.absolute_deadline_ms + self.slack_ms - margin

    def _protection_margin_ms(self, request: InferenceRequest) -> float:
        """Spare budget a below-top-class request must be predicted to keep.

        Zero for the top class seen so far (and while only one class has
        been seen), ``protection`` of the latency budget per class level
        below the top otherwise, capped at ``MAX_PROTECTION``.
        """
        top = self._highest_seen
        if top is None or request.priority >= top or request.deadline_ms is None:
            return 0.0
        fraction = min(self.protection * (top - request.priority), self.MAX_PROTECTION)
        return fraction * request.deadline_ms

    def preempts(self, request: InferenceRequest, state: "LoopState") -> bool:
        """Expedite a higher-priority arrival when the batching wait costs its SLO.

        Preemption shrinks batches (the forming batch dispatches part-full),
        so it only fires when it actually rescues the important request:
        strictly higher priority than everything queued, predicted to miss
        its deadline if it waits, predicted to meet it if dispatched now.
        The verdict is the one :meth:`admit` just computed for this arrival.
        """
        if self._last_verdict and self._last_verdict[0] == request.request_id:
            return self._last_verdict[1]
        if self._predicted_to_meet(request, state):
            return False  # meets its SLO without preempting anything
        return self._rescued_by_preemption(request, state)

    def _rescued_by_preemption(self, request: InferenceRequest,
                               state: "LoopState") -> bool:
        """Whether immediate dispatch (queue-jump) clears the deadline.

        An empty forming batch counts as preemptable — the request outranks
        "everything" queued vacuously and dispatches alone on arrival, so
        admission stays monotonic in load (queued junk never *improves* a
        request's odds).
        """
        highest = self._highest_queued
        if highest is not None and request.priority <= highest:
            return False
        if request.deadline_ms is None:
            return False
        return self._predicted_to_meet(request, state, skip_wait=True)

    def observe_queue(self, highest_priority: int | None) -> None:
        """Loop callback: the highest priority currently in the forming batch."""
        self._highest_queued = highest_priority


#: Admission-policy registry: name -> zero-argument constructor.
ADMISSION_POLICIES: Registry[type[AdmissionPolicy]] = Registry(
    "admission policy", instance_of=AdmissionPolicy
)
ADMISSION_POLICIES.update(
    (cls.name, cls) for cls in (AdmitAll, DeadlineAwareAdmission, PriorityAdmission)
)

#: A fresh admission policy for any spelling of its name; an
#: :class:`AdmissionPolicy` instance passes through unchanged, so configs can
#: carry either.
get_admission_policy = ADMISSION_POLICIES.create
#: Names of all registered admission policies, sorted.
list_admission_policies = ADMISSION_POLICIES.names
