"""Chirp quadrature kernel.

chirp_sum(x_out, x_in, coeffs, alpha) returns, for each output point,

    out[i] = sum_j coeffs[j] * exp(1j * alpha * (x_out[i] - x_in[j])**2)

which is the computational core of direct Fresnel quadrature (the caller
folds kernel scale, global phase, and integration weights into coeffs
and a scalar factor). The sum over j is a fixed matrix-vector product
per block of output points, so results are bitwise deterministic.
"""

import numpy as np


def chirp_sum(x_out, x_in, coeffs, alpha):
    x_out = np.ascontiguousarray(x_out, dtype=np.float64)
    x_in = np.ascontiguousarray(x_in, dtype=np.float64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    out = np.empty(x_out.shape[0], dtype=np.complex128)
    if x_in.shape[0] == 0:
        out[:] = 0.0
        return out
    # block the output loop to bound the (block x n_in) temporary
    block = max(1, 4_000_000 // x_in.shape[0])
    for start in range(0, x_out.shape[0], block):
        u = x_out[start:start + block, None] - x_in[None, :]
        u *= u
        u *= alpha
        out[start:start + block] = np.exp(1j * u) @ coeffs
    return out
