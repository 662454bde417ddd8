"""The Lanczos eigensolver on the distributed spMVM substrate.

* :mod:`repro.solvers.tridiag` — the QL method with implicit shifts for the
  eigenvalues of the symmetric tridiagonal Lanczos matrix (the paper's
  ``CalcMinimumEigenVal`` step).
* :mod:`repro.solvers.lanczos` — sequential reference and distributed
  Lanczos iteration (paper Algorithm 1).
* :mod:`repro.solvers.ft_lanczos` — the paper's fault-tolerant Lanczos
  application (requires :mod:`repro.ft`).
"""

from repro.solvers.tridiag import ql_eigenvalues, lanczos_matrix_eigenvalues
from repro.solvers.lanczos import (
    LanczosState,
    lanczos_sequential,
    DistributedLanczos,
)

__all__ = [
    "ql_eigenvalues",
    "lanczos_matrix_eigenvalues",
    "LanczosState",
    "lanczos_sequential",
    "DistributedLanczos",
]
