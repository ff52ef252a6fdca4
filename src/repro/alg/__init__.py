"""Classic external-memory algorithm substrates.

Everything the paper's contributions build on: deterministic sampling and
approximate quantile pivots, multi-way distribution, external merge sort,
linear-I/O single-rank selection (external BFPRT), and Aggarwal–Vitter
exact multi-partition.
"""

from .distribute import distribute_by_pivots
from .inmemory import partition_at_ranks, select_at_ranks
from .randomized import block_sample, randomized_splitters, reservoir_sample
from .multipartition import multi_partition, multi_partition_at_ranks
from .partitioned import PartitionedFile
from .sampling import (
    OVERSAMPLE,
    approx_quantile_pivots,
    chunk_samples_to_disk,
    max_distribution_fanout,
    pick_pivots_from_sorted,
    pivot_rank_error_bound,
)
from .selection import median_of_five_file, select_rank, select_rank_fast
from .sort import external_sort, form_runs, merge_fanout, merge_runs

__all__ = [
    "distribute_by_pivots",
    "partition_at_ranks",
    "select_at_ranks",
    "block_sample",
    "randomized_splitters",
    "reservoir_sample",
    "multi_partition",
    "multi_partition_at_ranks",
    "PartitionedFile",
    "OVERSAMPLE",
    "approx_quantile_pivots",
    "chunk_samples_to_disk",
    "max_distribution_fanout",
    "pick_pivots_from_sorted",
    "pivot_rank_error_bound",
    "median_of_five_file",
    "select_rank",
    "select_rank_fast",
    "external_sort",
    "form_runs",
    "merge_fanout",
    "merge_runs",
]
