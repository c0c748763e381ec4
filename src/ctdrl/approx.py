"""Minimal function-approximation stack.

Fixed rectifier MLPs with module-local reverse-mode gradients, a bias-corrected
Adam optimizer, and a versioned checkpoint format.
No general autodiff: two fixed architectures do not justify a tape system.
"""

from __future__ import annotations

import numpy as np

CHECKPOINT_VERSION = "ctdrl-checkpoint-1"

# Adam's moment decay rates and denominator offset (Kingma & Ba's defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Mlp:
    """Affine layers with rectifier hidden activations and identity output.

    All parameters live in one float64 vector ``flat``, laid out as
    [W0, b0, W1, b1, ...] with each W of shape (fan_in, fan_out) in row-major
    order; ``weights`` and ``biases`` are views into it.
    """

    def __init__(self, weights, biases):
        if len(weights) != len(biases) or not weights:
            raise ValueError("need matching nonempty weight/bias lists")
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        for w, b in zip(weights, biases):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError("weight/bias shape mismatch")
        self._shapes = [w.shape for w in weights]
        self.flat = np.empty(sum((i + 1) * o for i, o in self._shapes))
        self.weights, self.biases = self._split(self.flat)
        for dst, src in zip(self.weights + self.biases, weights + biases):
            dst[...] = src

    def _split(self, vec):
        """Weight and bias views into a vector laid out like ``flat``."""
        weights, biases, off = [], [], 0
        for fan_in, fan_out in self._shapes:
            weights.append(vec[off : off + fan_in * fan_out].reshape(fan_in, fan_out))
            off += fan_in * fan_out
            biases.append(vec[off : off + fan_out])
            off += fan_out
        return weights, biases

    @classmethod
    def from_sizes(cls, sizes, rng: np.random.Generator):
        """Glorot-uniform weights, zero biases; the rng fully determines them."""
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    @classmethod
    def zeros(cls, sizes):
        weights = [np.zeros((i, o)) for i, o in zip(sizes[:-1], sizes[1:])]
        biases = [np.zeros(o) for o in sizes[1:]]
        return cls(weights, biases)

    def copy(self):
        new = Mlp.__new__(Mlp)
        new._shapes = self._shapes
        new.flat = self.flat.copy()
        new.weights, new.biases = new._split(new.flat)
        return new

    def forward(self, x) -> np.ndarray:
        out, _ = self.forward_cached(x)
        return out

    def forward_cached(self, x):
        """Forward pass over a (rows, in) batch, keeping the per-layer
        activations for backward(); returns (out, acts)."""
        x = np.asarray(x, dtype=np.float64)
        fan_in = self._shapes[0][0]
        if x.ndim != 2 or x.shape[1] != fan_in:
            raise ValueError(f"input shape {x.shape}, network expects (rows, {fan_in})")
        acts = [x]
        cur = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            cur = cur @ w
            cur += b
            if i < last:
                np.maximum(cur, 0.0, out=cur)
            acts.append(cur)
        return cur, acts

    def backward(self, acts, grad_out) -> np.ndarray:
        """Reverse accumulation: the parameter gradient as one vector laid
        out like ``flat``, allocated per call, so a gradient from an earlier
        call stays valid."""
        g = np.asarray(grad_out, dtype=np.float64)
        grad = np.empty_like(self.flat)
        grad_w, grad_b = self._split(grad)
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(acts[i].T, g, out=grad_w[i])
            np.sum(g, axis=0, out=grad_b[i])
            if i:
                g = (g @ self.weights[i].T) * (acts[i] > 0.0)
        return grad


class AdamState:
    """First/second moment accumulators with bias correction, plus two
    scratch vectors per tensor so that a step allocates nothing."""

    def __init__(self, params, lr=1e-4):
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]


def adam_step(state: AdamState, params, grads):
    """One Adam update; mutates params and state in place.

    The in-place form of
        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        p -= lr (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)
    with the same operations in the same order, so results are bitwise those
    of the expression form.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("param/grad/state lengths differ")
    for p, g in zip(params, grads):
        if p.shape != np.shape(g):
            raise ValueError("param/grad shape mismatch")
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for p, g, m, v, (s1, s2) in zip(params, grads, state.m, state.v, state._scratch):
        m *= b1
        np.multiply(g, 1 - b1, out=s1)
        m += s1
        np.multiply(g, 1 - b2, out=s1)
        s1 *= g
        v *= b2
        v += s1
        np.divide(m, 1 - b1**t, out=s1)
        np.divide(v, 1 - b2**t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += ADAM_EPS
        s1 *= state.lr
        s1 /= s2
        p -= s1
    return params


def save_checkpoint(path, named_arrays: dict):
    """Write named parameter tensors with a version header entry."""
    for name in named_arrays:
        if name.startswith("__"):
            raise ValueError(f"reserved name {name!r}")
    np.savez(path, __version__=np.array(CHECKPOINT_VERSION), **named_arrays)


def load_checkpoint(path) -> dict:
    with np.load(path) as data:
        version = str(data["__version__"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version!r}")
        return {k: data[k] for k in data.files if k != "__version__"}
