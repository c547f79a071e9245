"""The online batch scheduler.

The classic space-sharing batch model the related-work section points
at: the platform runs one batch at a time; when it drains, the scheduler
looks at the queue of *released* jobs, forms the next batch, and
launches it.  Inside a batch the full machinery of the paper applies —
Algorithm 1 seeds the allocation and any redistribution policy handles
completions and failures.

Batch formation is a pluggable choice:

* ``"all"`` — take every queued job (capacity-capped, largest first):
  maximises co-scheduling, the natural analogue of the paper's packs;
* ``"fixed"`` — take at most ``batch_size`` jobs (largest first): the
  bounded-batch policy of classical schedulers.

If the queue is empty when the platform drains, the clock jumps to the
next release (idling is explicit in the metrics).

Replicated campaign runs — the same job stream under independent fault
draws — submit through the unified execution engine
(:func:`run_replicated_campaigns`): one
:class:`~repro.engine.RunRequest` per campaign replicate, so a study
averaging campaign metrics over many fault draws fans out across the
same serial/pool/persistent executors as the figure sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..cluster import Cluster
from ..core.policy import Policy
from ..exceptions import CapacityError, ConfigurationError
from ..resilience.checkpoint import ResilienceModel
from ..rng import derive_seed
from ..simulation import SimulationResult, Simulator
from ..tasks import Pack, TaskSpec
from .jobs import CampaignMetrics, Job, JobMetrics

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..engine import Executor

__all__ = [
    "BatchRun",
    "BatchResult",
    "OnlineBatchScheduler",
    "campaign_replicate_seed",
    "run_replicated_campaigns",
]

BATCH_POLICIES = ("all", "fixed")


@dataclass
class BatchRun:
    """One executed batch."""

    position: int
    start: float
    job_ids: tuple[int, ...]
    result: SimulationResult

    @property
    def end(self) -> float:
        """Absolute completion instant of the batch."""
        return self.start + self.result.makespan


@dataclass
class BatchResult:
    """Outcome of a whole campaign."""

    policy: str
    batch_policy: str
    batches: List[BatchRun] = field(default_factory=list)
    metrics: Optional[CampaignMetrics] = None

    @property
    def makespan(self) -> float:
        """Completion of the last batch."""
        return self.batches[-1].end if self.batches else 0.0

    @property
    def batch_count(self) -> int:
        """Number of batches formed."""
        return len(self.batches)

    def summary(self) -> str:
        """One-line digest."""
        sizes = ",".join(str(len(b.job_ids)) for b in self.batches)
        text = (
            f"batch[{self.batch_policy}]/{self.policy}: "
            f"{self.batch_count} batches [{sizes}]"
        )
        if self.metrics is not None:
            text += f" — {self.metrics.summary()}"
        return text


class OnlineBatchScheduler:
    """Drain-and-refill batch execution of a job campaign.

    Parameters
    ----------
    jobs:
        The campaign (any order; sorted internally by release time).
    cluster:
        The platform; every batch gets all of it.
    policy:
        Redistribution policy applied *inside* each batch.
    batch_policy:
        ``"all"`` or ``"fixed"`` (see module docstring).
    batch_size:
        Cap for the ``"fixed"`` policy (ignored otherwise).
    seed:
        Fault streams derive from ``(seed, "batch", position)`` — batches
        see independent but reproducible failures.
    inject_faults:
        ``False`` runs every batch fault-free.
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        cluster: Cluster,
        policy: Policy | str = "ig-el",
        *,
        batch_policy: str = "all",
        batch_size: Optional[int] = None,
        seed: int = 0,
        inject_faults: bool = True,
        resilience: Optional[ResilienceModel] = None,
    ):
        if not jobs:
            raise ConfigurationError("a campaign needs at least one job")
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate job ids in the campaign")
        if batch_policy not in BATCH_POLICIES:
            raise ConfigurationError(
                f"unknown batch policy {batch_policy!r}; "
                f"choose from {BATCH_POLICIES}"
            )
        if batch_policy == "fixed":
            if batch_size is None or batch_size < 1:
                raise ConfigurationError(
                    "the 'fixed' batch policy needs batch_size >= 1"
                )
        self.jobs = sorted(jobs, key=lambda job: (job.release, job.job_id))
        self.cluster = cluster
        self.policy = policy
        self.batch_policy = batch_policy
        self.batch_size = batch_size
        self.seed = int(seed)
        self.inject_faults = bool(inject_faults)
        self.resilience = resilience
        self.capacity = cluster.processors // 2  # one buddy pair per job
        if self.capacity < 1:
            raise CapacityError("the platform cannot host a single buddy pair")

    # ------------------------------------------------------------------
    def _batch_seed(self, position: int) -> int:
        return derive_seed(self.seed, "batch", position)

    def _form_batch(self, queue: List[Job]) -> List[Job]:
        """Pick the next batch from the released queue (mutates it)."""
        queue.sort(key=lambda job: (-job.task.size, job.job_id))
        limit = self.capacity
        if self.batch_policy == "fixed":
            limit = min(limit, self.batch_size or limit)
        batch = queue[:limit]
        del queue[:limit]
        return batch

    @staticmethod
    def _as_pack(batch: Sequence[Job]) -> Pack:
        members: List[TaskSpec] = []
        for position, job in enumerate(batch):
            members.append(
                dc_replace(job.task, index=position, name=f"J{job.job_id}")
            )
        return Pack(members)

    # ------------------------------------------------------------------
    def run(self) -> BatchResult:
        """Execute the campaign and return batches + per-job metrics."""
        policy_name = (
            self.policy if isinstance(self.policy, str) else self.policy.name
        )
        outcome = BatchResult(
            policy=policy_name, batch_policy=self.batch_policy
        )
        pending = list(self.jobs)  # sorted by release
        queue: List[Job] = []
        job_metrics: Dict[int, JobMetrics] = {}
        clock = 0.0
        position = 0

        while pending or queue:
            # admit everything released by now; jump the clock if idle
            if not queue:
                if pending and pending[0].release > clock:
                    clock = pending[0].release
            while pending and pending[0].release <= clock:
                queue.append(pending.pop(0))
            batch = self._form_batch(queue)
            if not batch:  # pragma: no cover - guarded by the clock jump
                raise ConfigurationError("formed an empty batch")
            simulator = Simulator(
                self._as_pack(batch),
                self.cluster,
                self.policy,
                seed=self._batch_seed(position),
                inject_faults=self.inject_faults,
                resilience=self.resilience,
            )
            result = simulator.run()
            run = BatchRun(
                position=position,
                start=clock,
                job_ids=tuple(job.job_id for job in batch),
                result=result,
            )
            outcome.batches.append(run)
            for local_index, job in enumerate(batch):
                job_metrics[job.job_id] = JobMetrics(
                    job_id=job.job_id,
                    release=job.release,
                    start=clock,
                    completion=clock + float(result.completion_times[local_index]),
                )
            clock = run.end
            position += 1

        outcome.metrics = CampaignMetrics(
            jobs=[job_metrics[job.job_id] for job in self.jobs]
        )
        return outcome


# ---------------------------------------------------------------------------
# replicated campaigns through the unified engine


def campaign_replicate_seed(base_seed: int, replicate: int) -> int:
    """Stable derived seed for one campaign replicate's fault draws."""
    return derive_seed(base_seed, "campaign", replicate)


def _run_campaign(
    jobs: tuple,
    cluster: Cluster,
    policy: str,
    batch_policy: str,
    batch_size: Optional[int],
    inject_faults: bool,
    *,
    seed: int,
) -> BatchResult:
    """Engine runner: one whole campaign under one fault-draw seed.

    Batches inside a campaign are inherently sequential (batch ``t+1``
    depends on the queue left by batch ``t``), so the campaign is the
    engine's unit of work and replicates are the axis that fans out.
    """
    return OnlineBatchScheduler(
        list(jobs),
        cluster,
        policy,
        batch_policy=batch_policy,
        batch_size=batch_size,
        seed=seed,
        inject_faults=inject_faults,
    ).run()


def run_replicated_campaigns(
    jobs: Sequence[Job],
    cluster: Cluster,
    policy: Policy | str = "ig-el",
    *,
    batch_policy: str = "all",
    batch_size: Optional[int] = None,
    replicates: int = 1,
    seed: int = 0,
    inject_faults: bool = True,
    workers: Optional[int] = None,
    engine: Optional[str] = None,
    executor: Optional["Executor"] = None,
) -> List[BatchResult]:
    """Run one campaign under ``replicates`` independent fault draws.

    The job stream (sizes **and** release times) is shared by every
    replicate — common random numbers, exactly like the paired
    replicates of the figure sweeps — while the fault streams derive
    from ``campaign_replicate_seed(seed, r)``, so two campaigns with the
    same ``(jobs, seed)`` are byte-identical regardless of the executor,
    worker count or batch policy under comparison.  Results come back in
    replicate order.

    ``executor`` submits to a caller-owned executor (left open);
    otherwise ``engine``/``workers`` pick one exactly as in
    :func:`repro.experiments.runner.run_scenario`.
    """
    from ..engine import RunRequest, ensure_executor

    if replicates < 1:
        raise ConfigurationError(
            f"replicates must be >= 1, got {replicates}"
        )
    policy_name = policy if isinstance(policy, str) else policy.name
    # Validate the campaign eagerly (duplicate ids, batch knobs,
    # capacity) so configuration errors surface here, not inside a
    # worker process.
    OnlineBatchScheduler(
        jobs,
        cluster,
        policy_name,
        batch_policy=batch_policy,
        batch_size=batch_size,
        seed=seed,
        inject_faults=inject_faults,
    )
    payload = (
        tuple(jobs),
        cluster,
        policy_name,
        batch_policy,
        batch_size,
        inject_faults,
    )
    requests = [
        RunRequest(
            fn=_run_campaign,
            payload=payload,
            seed=campaign_replicate_seed(seed, replicate),
            tag=replicate,
        )
        for replicate in range(replicates)
    ]
    with ensure_executor(executor, engine=engine, workers=workers) as active:
        return active.map(requests)
