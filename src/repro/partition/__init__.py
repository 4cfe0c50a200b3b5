"""Partitioned parallel execution.

Hash-partition streams by a declared ``PARTITION BY`` key across N
worker processes, each running the full single-process engine on its
shard; a coordinator splits CQ plans into per-partition window
aggregation plus a merge/final stage, routes ingest by consistent hash,
merges per-partition watermarks as minimum-of-inputs, and restarts dead
workers with replay.  See docs/PARTITION.md.
"""

__all__ = ["HashRing", "PartitionedEngine", "partition_plan"]


def __getattr__(name):
    # lazy: ``python -m repro.partition.worker`` imports this package
    # first, and an eager coordinator import would load the worker
    # module twice (runpy's sys.modules warning)
    if name == "HashRing":
        from repro.partition.hashring import HashRing
        return HashRing
    if name == "PartitionedEngine":
        from repro.partition.coordinator import PartitionedEngine
        return PartitionedEngine
    if name == "partition_plan":
        from repro.partition.planner import partition_plan
        return partition_plan
    raise AttributeError(name)
