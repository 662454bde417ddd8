"""QL method with implicit shifts for symmetric tridiagonal eigenvalues.

This is the classic ``tql1`` algorithm (Bowdler/Martin/Reinsch/Wilkinson;
the paper: "the approximated minimum eigenvalues are determined using the
QL method").  Eigenvalues only — the Lanczos driver never needs the
eigenvectors of the projected matrix.
"""

from __future__ import annotations

import math

import numpy as np


class QLConvergenceError(RuntimeError):
    """The QL iteration failed to deflate within the iteration budget."""


def ql_eigenvalues(diag: np.ndarray, offdiag: np.ndarray,
                   max_sweeps: int = 64) -> np.ndarray:
    """Eigenvalues of the symmetric tridiagonal matrix, ascending.

    ``diag`` has ``n`` entries, ``offdiag`` the ``n-1`` sub-diagonal ones.
    The sweep runs on Python floats: element-wise indexing of NumPy arrays
    would box every read into a NumPy scalar, and both are IEEE-754
    doubles, so the arithmetic (and the result) is the same bit for bit.
    """
    diag = np.asarray(diag, dtype=np.float64)
    n = len(diag)
    if n == 0:
        return diag.copy()
    off = np.asarray(offdiag, dtype=np.float64)
    if len(off) not in (max(n - 1, 0), n):
        raise ValueError(
            f"offdiag must have n-1 (={n - 1}) entries, got {len(off)}"
        )
    d = diag.tolist()
    e = off[: n - 1].tolist() + [0.0]

    eps = float(np.finfo(np.float64).eps)
    hypot, copysign = math.hypot, math.copysign
    for l in range(n):
        sweeps = 0
        while True:
            # find the first deflatable sub-block boundary m >= l
            for m in range(l, n - 1):
                if abs(e[m]) <= eps * (abs(d[m]) + abs(d[m + 1])):
                    break
            else:
                m = n - 1
            if m == l:
                break  # d[l] converged
            sweeps += 1
            if sweeps > max_sweeps:
                raise QLConvergenceError(
                    f"eigenvalue {l} not converged after {max_sweeps} sweeps"
                )
            # implicit Wilkinson shift from the leading 2x2
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                ei = e[i]
                f = s * ei
                b = c * ei
                r = hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # recover from underflow: skip the rotation
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    return np.sort(np.array(d))


def lanczos_matrix_eigenvalues(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Lanczos tridiagonal ``T_j``, ascending.

    ``alpha`` are the j diagonal entries, ``beta`` the j-1 couplings
    (``beta[0]`` couples steps 1 and 2); a trailing ``beta`` entry produced
    by the recurrence (``beta_{j+1}``) is ignored if present.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    j = len(alpha)
    if j == 0:
        return alpha
    return ql_eigenvalues(alpha, beta[: j - 1])
