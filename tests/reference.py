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


def loss_and_dlogits(logits: np.ndarray, labels: np.ndarray | None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The class-first loss kernel as it was before its cross-entropy branch stopped
    building the full log-softmax and the sparse index grid; `nn._loss_and_dlogits`
    must match it bit for bit."""
    shifted = logits - logits.max(axis=-2, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-2, keepdims=True)
    p = e / total
    logp = shifted - np.log(total)
    if labels is None:
        losses = -np.sum(p * logp, axis=-2, keepdims=True)
        p *= logp + losses
        np.negative(p, out=p)
        return losses[..., 0, :], p
    *tasks, cols = np.indices(labels.shape, sparse=True)
    at = (*tasks, labels, cols)
    p[at] -= 1.0
    return -logp[at], p


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The boolean-mask sigmoid that `calm.sigmoid` must match bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
