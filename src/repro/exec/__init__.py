"""Sharded fan-out execution: one iteration-range scheme for both join
families."""

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
