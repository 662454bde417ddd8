"""Distributed sparse matrix-vector multiplication (spMVM) library.

The reproduction of the paper's application substrate (Sect. V): a
row-block-distributed CSR spMVM whose pre-processing stage determines, per
rank, which right-hand-side entries must be fetched from which owners; the
owners then push those values with one-sided ``write_notify`` before every
multiplication.  The library is fault-tolerance-aware: every blocking
communication call consults a failure-acknowledgment hook and raises
:class:`FailureAcknowledged` so the application can enter its recovery
stage, and the communication setup is serialisable so a rescue process can
restore it from the failed rank's checkpoint instead of redoing the
pre-processing.
"""

from repro.spmvm.csr import CSRMatrix
from repro.spmvm.partition import RowPartition
from repro.spmvm.team import Team
from repro.spmvm.ft_hooks import FailureAcknowledged
from repro.spmvm.comm_setup import CommPlan, split_columns
from repro.spmvm.dist_matrix import DistMatrix, distribute_matrix
from repro.spmvm.dist_vector import DistVector
from repro.spmvm.spmv import SpMVMEngine

__all__ = [
    "CSRMatrix",
    "RowPartition",
    "Team",
    "FailureAcknowledged",
    "CommPlan",
    "split_columns",
    "DistMatrix",
    "distribute_matrix",
    "DistVector",
    "SpMVMEngine",
]
