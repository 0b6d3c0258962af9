"""Sharded fan-out execution over the unified kernel registry."""

from repro.exec.sharding import (
    Shard,
    ShardPlan,
    concat_iteration_blocks,
    partition_by_iteration,
    run_shards,
)

__all__ = [
    "Shard",
    "ShardPlan",
    "concat_iteration_blocks",
    "partition_by_iteration",
    "run_shards",
]
