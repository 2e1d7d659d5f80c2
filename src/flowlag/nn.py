"""Minimal feed-forward velocity network with hand-written backprop.

No ML framework: weights are plain float arrays, the backward pass is
explicit, and the optimizer is a standard adaptive-moment update.  The
network maps (state x, time t) -> velocity of the same dimension as x,
conditioning on t by concatenating a sinusoidal embedding, plus a
time-conditioned linear skip s(t) x.

Checkpoints round-trip exactly: parameters, optimizer moments, generator
state, and step count are restored bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

CHECKPOINT_VERSION = 2


class TimeEmbedding:
    """Sinusoidal features of scalar time: [sin(w_i t), cos(w_i t)].

    Frequencies are a geometric ladder w_i = base * 2^i, giving the
    network multi-resolution access to t on [0, 1].
    """

    def __init__(self, n_pairs: int = 8, base_freq: float = np.pi):
        if n_pairs < 1:
            raise ValueError("need at least one frequency pair")
        self.n_pairs = int(n_pairs)
        self.base_freq = float(base_freq)
        self._freqs = self.base_freq * (2.0 ** np.arange(self.n_pairs))

    @property
    def width(self) -> int:
        return 2 * self.n_pairs

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        ang = t[..., None] * self._freqs
        return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


def _tanh_back(activated):
    return 1.0 - activated * activated


@dataclass
class Mlp:
    """Fully connected tanh network predicting a velocity for (x, t).

    weights[i] has shape (n_in, n_out); data flows as row vectors.  The
    output layer is affine.  All arithmetic uses the dtype the network
    was created with (float64 by default; float32 available for faster
    experiment runs).

    The output adds a linear skip s(t) x with s(t) = skip[0] + emb(t) .
    skip[1:], zero at creation (cf. the c_skip term of Karras et al.
    2022).  The tanh body alone falls into a trap where the regression
    target contracts (v* = c(t) x with c < 0 over a short early span):
    its last hidden layer saturates and the x-response switches off
    there instead of reversing.  The skip carries the part of the field
    that is linear in x, so the body only has to fit the residual.

    ``forward`` writes its inputs, hidden activations and skip product
    into private buffers kept per row count and dtype, so one net must
    not run ``forward`` from two threads at once.  Its output is always
    a fresh array, and ``forward_cached`` allocates everything fresh.
    """

    dim: int
    hidden: tuple
    weights: list
    biases: list
    time_embedding: TimeEmbedding
    skip: np.ndarray
    dtype: np.dtype = np.float64
    _buffers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def create(cls, dim: int, hidden=(256, 256, 256), rng: np.random.Generator | None = None,
               n_time_pairs: int = 8, dtype=np.float64) -> "Mlp":
        """Glorot-uniform initialized network; rng defaults to seed 0."""
        if rng is None:
            rng = np.random.default_rng(0)
        temb = TimeEmbedding(n_pairs=n_time_pairs)
        widths = [dim + temb.width, *hidden, dim]
        weights, biases = [], []
        for n_in, n_out in zip(widths[:-1], widths[1:]):
            bound = np.sqrt(6.0 / (n_in + n_out))
            weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)).astype(dtype))
            biases.append(np.zeros(n_out, dtype=dtype))
        return cls(dim=dim, hidden=tuple(hidden), weights=weights, biases=biases,
                   time_embedding=temb, skip=np.zeros(1 + temb.width, dtype=dtype),
                   dtype=np.dtype(dtype))

    # -- parameter access ------------------------------------------------

    def parameters(self) -> dict:
        """Live views of all parameters, keyed W0, b0, W1, ..., skip."""
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"W{i}"] = w
            out[f"b{i}"] = b
        out["skip"] = self.skip
        return out

    # -- forward / backward ----------------------------------------------

    def _buffer(self, name, shape):
        """The kept buffer ``name``, reallocated when shape or dtype changes."""
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != self.dtype:
            buf = self._buffers[name] = np.empty(shape, dtype=self.dtype)
        return buf

    def _inputs(self, x, t, keep: bool):
        x = np.asarray(x)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.dim:
            raise ValueError(f"expected state dimension {self.dim}, got {x.shape[1]}")
        t = np.asarray(t, dtype=np.float64)
        if t.ndim != 0 and t.shape != (x.shape[0],):
            raise ValueError("time must be scalar or one value per row")
        shape = (x.shape[0], self.dim + self.time_embedding.width)
        z = np.empty(shape, dtype=self.dtype) if keep else self._buffer("z", shape)
        z[:, :self.dim] = x
        # checked after the cast: a finite float64 can overflow a float32 net
        if not np.all(np.isfinite(z[:, :self.dim])):
            raise ValueError("network input contains non-finite values")
        # a scalar t is embedded once and its row broadcast down the batch
        z[:, self.dim:] = self.time_embedding(t)
        return z, squeeze

    def _skip_term(self, z, out):
        """s(t) x for network inputs z = [x, emb(t)]."""
        scale = self.skip[0] + z[:, self.dim:] @ self.skip[1:]
        return np.multiply(scale[:, None], z[:, :self.dim], out=out)

    def _pass(self, x, t, keep: bool):
        """Output, plus the activation cache when ``keep``.

        Bias and tanh are applied in place on each matmul result.  Without
        ``keep`` the hidden layers alternate between two kept buffers; the
        last matmul is always fresh and becomes the returned output.
        """
        z, squeeze = self._inputs(x, t, keep)
        acts = [z]
        h = z
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            buf = None if keep or i == last else self._buffer(i % 2, (len(z), w.shape[1]))
            h = np.matmul(h, w, out=buf)
            h += b
            if i != last:
                np.tanh(h, out=h)
            if keep:
                acts.append(h)
        skip = self._skip_term(z, None if keep else self._buffer("skip", (len(z), self.dim)))
        # the cache's last activation stays the body output
        h = np.add(h, skip, out=None if keep else h)
        out = h[0] if squeeze else h
        return out, ({"acts": acts, "squeeze": squeeze} if keep else None)

    def forward(self, x, t):
        """Velocity prediction; deterministic for fixed parameters."""
        return self._pass(x, t, keep=False)[0]

    def forward_cached(self, x, t):
        """Forward pass that keeps activations for a later backward call."""
        return self._pass(x, t, keep=True)

    def backward(self, cache, grad_out) -> dict:
        """Parameter gradients given d(loss)/d(output).

        ``cache`` must come from ``forward_cached`` on the same input.
        Gradients for the time-embedding inputs are discarded (the
        embedding has no trainable parameters).
        """
        if not isinstance(cache, dict) or "acts" not in cache:
            raise ValueError("backward requires the cache returned by forward_cached")
        acts = cache["acts"]
        if len(acts) != len(self.weights) + 1:
            raise ValueError("activation cache does not match network depth")
        g = np.asarray(grad_out, dtype=self.dtype)
        if cache["squeeze"] and g.ndim == 1:
            g = g[None, :]
        if g.shape != acts[-1].shape:
            raise ValueError(f"grad shape {g.shape} does not match output {acts[-1].shape}")
        z = acts[0]
        g_scale = np.einsum("ij,ij->i", g, z[:, :self.dim])   # d(loss)/d(s(t)) per row
        grads = {"skip": np.concatenate([g_scale.sum(keepdims=True),
                                         z[:, self.dim:].T @ g_scale])}
        for i in range(len(self.weights) - 1, -1, -1):
            h_prev = acts[i]
            grads[f"W{i}"] = h_prev.T @ g
            grads[f"b{i}"] = g.sum(axis=0)
            if i > 0:
                g = (g @ self.weights[i].T) * _tanh_back(acts[i])
        return grads


@dataclass
class Adam:
    """Adaptive-moment optimizer with bias correction."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def step(self, params: dict, grads: dict) -> None:
        """One in-place update; moments are created lazily per parameter."""
        self.step_count += 1
        b1c = 1.0 - self.beta1**self.step_count
        b2c = 1.0 - self.beta2**self.step_count
        for key, p in params.items():
            g = grads[key]
            if g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape} for {key}")
            if key not in self.m:
                self.m[key] = np.zeros_like(p)
                self.v[key] = np.zeros_like(p)
            m = self.m[key]
            v = self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)

    def state_dict(self) -> dict:
        return {
            "lr": self.lr, "beta1": self.beta1, "beta2": self.beta2, "eps": self.eps,
            "step_count": self.step_count,
            "m": {k: a.copy() for k, a in self.m.items()},
            "v": {k: a.copy() for k, a in self.v.items()},
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "Adam":
        opt = cls(lr=state["lr"], beta1=state["beta1"], beta2=state["beta2"],
                  eps=state["eps"], step_count=state["step_count"])
        opt.m = {k: np.array(a) for k, a in state["m"].items()}
        opt.v = {k: np.array(a) for k, a in state["v"].items()}
        return opt


# -- checkpoint container -------------------------------------------------


@dataclass
class Checkpoint:
    net: Mlp
    optimizer: Adam | None
    rng_state: dict | None
    step: int
    extra: dict


def save_checkpoint(path, net: Mlp, optimizer: Adam | None = None,
                    rng: np.random.Generator | None = None, step: int = 0,
                    extra: dict | None = None) -> None:
    """Write a single-file checkpoint (npz) with exact float round-trip."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "dim": net.dim,
        "hidden": list(net.hidden),
        "n_time_pairs": net.time_embedding.n_pairs,
        "time_base_freq": net.time_embedding.base_freq,
        "dtype": np.dtype(net.dtype).name,
        "step": int(step),
        "rng_state": rng.bit_generator.state if rng is not None else None,
        "extra": extra or {},
        "has_optimizer": optimizer is not None,
    }
    arrays = {f"param_{k}": p for k, p in net.parameters().items()}
    if optimizer is not None:
        state = optimizer.state_dict()
        meta["optimizer"] = {k: state[k] for k in ("lr", "beta1", "beta2", "eps", "step_count")}
        arrays.update({f"adam_m_{k}": a for k, a in state["m"].items()})
        arrays.update({f"adam_v_{k}": a for k, a in state["v"].items()})
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path) -> Checkpoint:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}; "
                             f"this build reads version {CHECKPOINT_VERSION}")
        dtype = np.dtype(meta["dtype"])
        temb = TimeEmbedding(n_pairs=meta["n_time_pairs"], base_freq=meta["time_base_freq"])
        n_layers = len(meta["hidden"]) + 1
        weights = [np.asarray(data[f"param_W{i}"], dtype=dtype) for i in range(n_layers)]
        biases = [np.asarray(data[f"param_b{i}"], dtype=dtype) for i in range(n_layers)]
        net = Mlp(dim=meta["dim"], hidden=tuple(meta["hidden"]), weights=weights,
                  biases=biases, time_embedding=temb,
                  skip=np.asarray(data["param_skip"], dtype=dtype), dtype=dtype)
        optimizer = None
        if meta["has_optimizer"]:
            opt_meta = meta["optimizer"]
            optimizer = Adam.from_state_dict({
                **opt_meta,
                "m": {k[len("adam_m_"):]: data[k] for k in data.files if k.startswith("adam_m_")},
                "v": {k[len("adam_v_"):]: data[k] for k in data.files if k.startswith("adam_v_")},
            })
    return Checkpoint(net=net, optimizer=optimizer, rng_state=meta["rng_state"],
                      step=meta["step"], extra=meta["extra"])


def restore_rng(state: dict) -> np.random.Generator:
    """Rebuild a generator from a checkpointed bit-generator state."""
    bitgen = getattr(np.random, state["bit_generator"])()
    gen = np.random.Generator(bitgen)
    gen.bit_generator.state = state
    return gen
