"""Picklable units of simulation work, one per run shape.

Each job is a frozen dataclass whose ``run()`` is a pure function of its
fields: a fresh server (or rack) is built from the job's seed, so executing
the same job in any process — or reading it back from the result cache —
yields bit-identical results.  ``execute_job`` is the module-level entry
point handed to ``multiprocessing.Pool.map`` (bound methods don't pickle on
spawn-based platforms).  Both jobs measure with the results' default
warmup: the first 10% of completions are discarded (section 5.1).
"""

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["SimJob", "RackJob", "execute_job"]


def execute_job(job):
    """Run one job in the current process (pool workers call this)."""
    return job.run()


@dataclass(frozen=True)
class SimJob:
    """One server at one offered load: a cell of a load sweep, or one row of
    the ``compare`` command.

    ``run()`` returns the :class:`~repro.metrics.sweep.SweepPoint` (full
    SimResults hold every Request record — far too heavy to ship back
    through a pipe or store in the cache).
    """

    machine: Any
    config: Any
    workload: Any
    load_rps: float
    num_requests: int
    seed: int = 1
    arrival_factory: Optional[Any] = None

    def run(self):
        from repro.metrics.sweep import run_sweep_point

        return run_sweep_point(
            self.machine, self.config, self.workload, self.load_rps,
            self.num_requests, seed=self.seed,
            arrival_factory=self.arrival_factory,
        )


@dataclass(frozen=True)
class RackJob:
    """One rack-scale cluster run, reduced to the rack-wide summary row the
    cluster and fault experiments and the ``rack`` and ``faults`` commands
    consume.

    ``fault_plan`` / ``resilience`` are frozen dataclasses of plain floats
    and ints, so a faulted job pickles and caches like a clean one; with
    both left ``None`` the fault columns read zero.
    """

    machine: Any
    config: Any
    num_servers: int
    policy: str
    workload: Any
    load_rps: float
    num_requests: int
    seed: int = 1
    fabric: Optional[Any] = None
    fault_plan: Optional[Any] = None
    resilience: Optional[Any] = None

    def run(self):
        from repro.cluster import Cluster
        from repro.metrics.slowdown import summarize_slowdowns
        from repro.workloads.arrivals import PoissonProcess

        cluster = Cluster(
            self.machine, self.config, self.num_servers, policy=self.policy,
            seed=self.seed, fabric=self.fabric, fault_plan=self.fault_plan,
            resilience=self.resilience,
        )
        result = cluster.run(
            self.workload, PoissonProcess(self.load_rps), self.num_requests,
        )
        slowdowns = result.slowdowns()
        summary = summarize_slowdowns(slowdowns) if slowdowns else None
        mttr = result.mttr_us
        faults = result.fault_stats
        return {
            "policy": self.policy,
            "config": self.config.name,
            "plan": (
                self.fault_plan.name if self.fault_plan is not None else None
            ),
            "p50": summary.p50 if summary else float("nan"),
            "p99": summary.p99 if summary else float("nan"),
            "p999": summary.p999 if summary else float("nan"),
            "mean": summary.mean if summary else float("nan"),
            "goodput": result.goodput(),
            "slo_goodput": result.slo_goodput(),
            "imbalance": result.imbalance(),
            "completed": len(result.records),
            "offered": result.num_offered,
            "drained": result.drained,
            "crashes": result.crashes,
            "lost": result.lost,
            "requeued": result.requeued,
            "shed": result.shed,
            "failed": result.failed,
            "retries": result.retries,
            "hedges": result.hedges,
            "timeouts": result.timeouts,
            "reports_dropped": faults["reports_dropped"] if faults else 0,
            "mttr_us": max(mttr) if mttr else float("nan"),
        }
