"""Reference helpers that the tests compare the library against."""
import numpy as np

from calmkit.nn import ContractError, _loss_and_dlogits, check_labels


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean over the batch of -log softmax(logits)[label], by the library's loss kernel."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim == 1:
        z = z[None, :]
    labels = check_labels(np.asarray(labels, dtype=np.int64).reshape(-1), z.shape[1])
    if labels.shape[0] != z.shape[0]:
        raise ContractError(f"{labels.shape[0]} labels for {z.shape[0]} logit rows")
    if not np.all(np.isfinite(z)):
        raise ContractError("cross_entropy requires finite logits")
    return float(np.mean(_loss_and_dlogits(z.T, labels)[0]))
