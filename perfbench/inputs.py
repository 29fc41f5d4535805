"""Seeded inputs of the benchmark workloads, and their fingerprints.

Every workload's inputs are a pure function of ``(seed, shape)``.  The
program under test receives only the generated cluster and jobs.  What the
seed draws differs per workload, on purpose: it draws the part of the input
the measured figures average over, so that the figures stay steady from one
seed to the next, and it leaves fixed the part where a handful of draws
would decide the run.

* ``swim``: the job trace is one fixed SWIM-style day (trace seed 0), the
  way the paper replays one SWIM-generated day.  The seed draws the
  100-node testbed (instance order and per-node price points) and the HDFS
  block placement.  A seeded trace would not do: the day's few long jobs
  hold most of its tasks, so its total task count spreads by 18-29% (IQR
  over median, twenty seeds, 400- and 200-job days).
* ``block``: one fixed model, the ``repro bench`` block scenario (cluster
  seed 0), whatever the seed.  HiGHS's simplex iteration count on the
  64k-column epoch LP moves by up to 2.5x under any change of its input,
  new prices or a mere relabelling of the machines, so a seeded model
  would measure the pivot path rather than the code.
* ``serve``: the 40-machine cluster is fixed (cluster seed 0).  The seed
  draws the three submitters' Poisson arrival streams, job sizes, CPU
  demands and data origins.  The LP puts work on the few cheapest
  machines, so a seeded 40-machine cluster would move the cost by a third
  between seeds.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.builder import Cluster, ClusterBuilder, build_paper_testbed, paper_topology
from repro.cluster.ec2 import ec2_instance
from repro.resilience.soak import build_soak_cluster
from repro.serve.soak import ServeSoakConfig, build_serve_schedule
from repro.workload.job import DataObject, Job, Workload
from repro.workload.swim import SwimConfig, synthesize_facebook_day

#: seed of the fixed SWIM-style day every swim run replays
SWIM_TRACE_SEED = 0
#: seed of the fixed block-1000 cluster (the ``repro bench`` scenario's)
BLOCK_CLUSTER_SEED = 0
#: seed of the fixed serve-day cluster
SERVE_CLUSTER_SEED = 0


@dataclass(frozen=True)
class SwimShape:
    """The SWIM-day setting of paper Fig. 9, at a chosen length."""

    nodes: int = 100
    jobs: int = 200
    hours: float = 12.0
    epoch_s: float = 600.0


@dataclass(frozen=True)
class BlockShape:
    """The bench block scenario: ``jobs`` equal jobs over ``epochs`` epochs."""

    machines: int = 1000
    jobs: int = 8
    epochs: int = 3
    util: float = 0.9
    epoch_s: float = 60.0


@dataclass(frozen=True)
class ServeShape:
    """A multi-submitter Poisson stream into the scheduling service."""

    machines: int = 40
    submitters: int = 3
    jobs_per_submitter: int = 300
    hours: float = 18.0


#: run sizes: ``full`` is what the benchmark measures, ``tiny`` is the
#: smoke size its tests use
SHAPES = {
    "full": {"swim": SwimShape(), "block": BlockShape(), "serve": ServeShape()},
    "tiny": {
        "swim": SwimShape(nodes=12, jobs=10, hours=2.0),
        "block": BlockShape(machines=24, jobs=3, epochs=2),
        "serve": ServeShape(machines=6, submitters=2, jobs_per_submitter=8, hours=1.0),
    },
}


@dataclass
class Inputs:
    """One workload's generated inputs plus how long generating them took."""

    cluster: Cluster
    #: swim and block: the job set; serve: None (the schedule carries jobs)
    workload: Optional[Workload]
    #: serve only: (arrival time, job) in offer order, and each job's data
    schedule: Optional[List[Tuple[float, Job]]] = None
    data_by_job: Optional[Dict[int, DataObject]] = None
    cluster_build_s: float = 0.0
    workload_generate_s: float = 0.0

    @property
    def jobs(self) -> List[Job]:
        """Every generated job."""
        if self.workload is not None:
            return list(self.workload.jobs)
        return [job for _, job in self.schedule]

    def data_size_mb(self, job: Job) -> List[float]:
        """Sizes of the data objects a job reads."""
        if self.workload is not None:
            return [self.workload.data[i].size_mb for i in job.data_ids]
        obj = self.data_by_job.get(job.job_id)
        return [] if obj is None else [obj.size_mb]


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def weak_scaled_classes(nodes: int):
    """The SWIM job-size classes scaled to the cluster, as fig. 9 does."""
    scale = nodes / 100
    return tuple(
        (name, prob, (max(1, int(lo * scale)), max(2, int(hi * scale))))
        for name, prob, (lo, hi) in SwimConfig().classes
    )


def swim_inputs(seed: int, shape: SwimShape) -> Inputs:
    """The Fig. 9 testbed (seeded) and the fixed SWIM-style day."""
    cluster, build_s = _timed(
        build_paper_testbed,
        shape.nodes,
        c1_medium_fraction=1.0 / 3.0,
        m1_small_fraction=1.0 / 3.0,
        seed=seed,
    )
    workload, gen_s = _timed(
        synthesize_facebook_day,
        SwimConfig(
            num_jobs=shape.jobs,
            duration_s=shape.hours * 3600.0,
            classes=weak_scaled_classes(shape.nodes),
            num_origin_stores=cluster.num_stores,
            seed=SWIM_TRACE_SEED,
        ),
    )
    return Inputs(cluster, workload, cluster_build_s=build_s, workload_generate_s=gen_s)


def block_testbed(machines: int, n_stores: int, seed: int) -> Cluster:
    """Half c1.medium, half m1.medium, with data stores on ``n_stores`` nodes.

    The same construction as the ``repro bench`` block scenario, kept here
    so that the benchmark's inputs do not move when that module changes.
    Concentrating the stores keeps the epoch LP at O(stores x machines)
    columns.
    """
    rng = np.random.default_rng(seed)
    builder = ClusterBuilder(topology=paper_topology())
    zones = builder.topology.zone_names()
    kinds = ["c1.medium"] * (machines // 2) + ["m1.medium"] * (machines - machines // 2)
    rng.shuffle(kinds)
    for i, kind in enumerate(kinds):
        it = ec2_instance(kind)
        builder.add_machine(
            name=f"{it.name}-{i:03d}",
            ecu=it.ecu,
            cpu_cost=it.cpu_cost_per_ecu_second(float(rng.uniform())),
            zone=zones[i % len(zones)],
            map_slots=max(1, it.cpus * 2),
            reduce_slots=max(1, it.cpus),
            memory_gb=it.memory_gb,
            instance_type=it.name,
            with_store=(i < n_stores),
            store_capacity_mb=it.storage_gb * 1024,
        )
    return builder.build()


def block_workload(cluster: Cluster, shape: BlockShape) -> Workload:
    """``shape.jobs`` equal jobs, each reading its own 200 MB object, that
    fill ``util`` of the cluster's capacity over ``shape.epochs`` epochs."""
    capacity = float(np.sum(cluster.throughput_vector())) * shape.epoch_s
    total_cpu = capacity * shape.epochs * shape.util
    size_mb = 200.0
    data = [
        DataObject(data_id=i, name=f"d{i}", size_mb=size_mb, origin_store=i % cluster.num_stores)
        for i in range(shape.jobs)
    ]
    jobs = [
        Job(
            job_id=i,
            name=f"j{i}",
            tcp=(total_cpu / shape.jobs) / size_mb,
            data_ids=[i],
            num_tasks=32,
        )
        for i in range(shape.jobs)
    ]
    return Workload(jobs=jobs, data=data)


def block_inputs(seed: int, shape: BlockShape) -> Inputs:
    """The fixed block scenario (``seed`` is not used; see above)."""
    cluster, build_s = _timed(block_testbed, shape.machines, shape.jobs, BLOCK_CLUSTER_SEED)
    workload, gen_s = _timed(block_workload, cluster, shape)
    return Inputs(cluster, workload, cluster_build_s=build_s, workload_generate_s=gen_s)


def serve_soak_config(seed: int, shape: ServeShape) -> ServeSoakConfig:
    """The soak shape the serve schedule is drawn from (chaos off)."""
    return ServeSoakConfig(
        seed=seed,
        num_machines=shape.machines,
        num_submitters=shape.submitters,
        jobs_per_submitter=shape.jobs_per_submitter,
        sim_hours=shape.hours,
        chaos=False,
    )


def serve_inputs(seed: int, shape: ServeShape) -> Inputs:
    """The fixed soak cluster and a seeded multi-submitter arrival stream."""
    cluster, build_s = _timed(
        build_soak_cluster, shape.machines, np.random.default_rng(SERVE_CLUSTER_SEED)
    )
    (schedule, data_by_job), gen_s = _timed(
        build_serve_schedule,
        serve_soak_config(seed, shape),
        cluster.num_stores,
        np.random.default_rng(seed),
    )
    return Inputs(
        cluster,
        None,
        schedule=schedule,
        data_by_job=data_by_job,
        cluster_build_s=build_s,
        workload_generate_s=gen_s,
    )


#: input family of each workload
FAMILY = {
    "swim-day": "swim",
    "swim-day-delay": "swim",
    "block-1000": "block",
    "serve-day": "serve",
}

_GENERATORS = {"swim": swim_inputs, "block": block_inputs, "serve": serve_inputs}


def generate(workload: str, seed: int, size: str = "full") -> Inputs:
    """Generate one workload's inputs for ``seed`` at ``size``."""
    family = FAMILY[workload]
    return _GENERATORS[family](seed, SHAPES[size][family])


def _hex(values: Sequence[float]) -> str:
    return ",".join(float(v).hex() for v in values)


def digest(inputs: Inputs) -> str:
    """SHA-256 over the generated inputs, exact to the last float bit.

    Covers each machine's ECU, price and zone, each store's zone, and each
    job's tasks, TCP, CPU, input sizes, data origin and arrival time.
    """
    h = hashlib.sha256()
    for m in inputs.cluster.machines:
        h.update(f"m|{_hex([m.ecu, m.cpu_cost])}|{m.zone}\n".encode())
    for s in inputs.cluster.stores:
        h.update(f"s|{s.zone}|{s.colocated_machine}\n".encode())
    for job in inputs.jobs:
        sizes = inputs.data_size_mb(job)
        if inputs.workload is not None:
            origins = [inputs.workload.data[i].origin_store for i in job.data_ids]
        else:
            obj = inputs.data_by_job.get(job.job_id)
            origins = [] if obj is None else [obj.origin_store]
        h.update(
            (
                f"j|{job.job_id}|{job.num_tasks}|{job.num_reduces}|"
                f"{_hex([job.tcp, job.cpu_seconds_noinput, job.arrival_time])}|"
                f"{_hex(sizes)}|{origins}\n"
            ).encode()
        )
    return h.hexdigest()


def network_bytes(cluster: Cluster) -> int:
    """Bytes held by the cluster's network matrices."""
    net = cluster.network
    return int(
        sum(
            a.nbytes
            for a in (net.ss_cost, net.ms_cost, net.bandwidth, net.mm_cost, net.mm_bandwidth)
        )
    )
