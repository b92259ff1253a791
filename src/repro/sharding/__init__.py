"""Community-sharded solving and scatter-gather serving.

The sharding subsystem splits one large aligned-network estimation
problem into per-community sub-problems that fit and serve
independently:

* :mod:`repro.sharding.partition` — assign users to shards from planted
  or detected communities, replicating high-degree boundary users as
  anchors across adjacent shards.
* :mod:`repro.sharding.model` — :class:`ShardedSlamPred` fits one
  factored SLAMPRED-H model per shard, in parallel across processes,
  with deterministic per-shard seeds and per-shard checkpoint
  directories.
* :mod:`repro.sharding.stitching` — calibrate per-shard score scales
  through the replicated anchors so cross-shard rankings agree.
* :mod:`repro.sharding.artifacts` — versioned sha256-verified multi-file
  artifact layout with partial-degradation loading.
* :mod:`repro.sharding.scorer` — :class:`ShardedScorer` scatter-gathers
  per-shard candidates with per-shard breakers and a deterministic
  merge.  It is one scorer behind
  :class:`~repro.serving.service.LinkPredictionService`, which serves a
  :class:`ShardedArtifactStore` with the same cache, reload, breaker,
  degraded tier and load-shed surface as an unsharded store.
"""

from repro.sharding.artifacts import (
    LoadedShardedArtifact,
    ShardedArtifactStore,
)
from repro.sharding.model import ShardedSlamPred, fit_shard
from repro.sharding.partition import (
    ShardPlan,
    detect_communities,
    plan_shards,
)
from repro.sharding.scorer import ShardedScorer
from repro.sharding.stitching import (
    boundary_disagreement,
    fit_stitch_scales,
)

__all__ = [
    "LoadedShardedArtifact",
    "ShardPlan",
    "ShardedArtifactStore",
    "ShardedScorer",
    "ShardedSlamPred",
    "boundary_disagreement",
    "detect_communities",
    "fit_shard",
    "fit_stitch_scales",
    "plan_shards",
]
