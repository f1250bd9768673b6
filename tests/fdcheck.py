"""Central-difference gradient checking for the scorer heads."""

import numpy as np


def finite_difference(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Numeric gradient of scalar f at x, one central difference per entry."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for k in range(flat.size):
        saved = flat[k]
        flat[k] = saved + eps
        hi = f()
        flat[k] = saved - eps
        lo = f()
        flat[k] = saved
        gflat[k] = (hi - lo) / (2.0 * eps)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    num = np.linalg.norm(analytic - numeric)
    den = np.linalg.norm(analytic) + np.linalg.norm(numeric)
    if den == 0.0:
        return 0.0
    return float(num / den)


def dense_gradients(grad, shapes: dict) -> dict:
    """Each parameter's gradient from a ``SentenceGradient``: a linear one
    when ``shapes`` names only "W", an MLP's when it names W1, b1, W2, b2.
    Linear feature ids index the rows of "W" directly."""
    out = {name: np.zeros(shape) for name, shape in shapes.items()}
    for ids, rows in grad.feature_updates(1.0):
        np.add.at(out["W" if "W" in out else "W1"], ids, rows)
    if "b1" in out:
        for hidden, feature, upstream in zip(grad.hidden, grad.feature, grad.grad):
            out["b1"] += feature
            out["W2"] += np.outer(hidden, upstream)
            out["b2"] += upstream
    return out
