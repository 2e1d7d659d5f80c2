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
from typing import ClassVar

import numpy as np

CHECKPOINT_VERSION = 2
# ``Mlp.forward`` runs at most _FORWARD_ROWS rows at a time, cut at multiples of _ROW_GRAIN
_FORWARD_ROWS, _ROW_GRAIN = 1024, 64


class TimeEmbedding:
    """Sinusoidal features of scalar time: [sin(w_i t), cos(w_i t)].

    Frequencies are the geometric ladder w_i = pi * 2^i, giving the
    network multi-resolution access to t on [0, 1].
    """

    def __init__(self, n_pairs: int = 8):
        if n_pairs < 1:
            raise ValueError("need at least one frequency pair")
        self.n_pairs = int(n_pairs)
        self._freqs = np.pi * (2.0 ** np.arange(self.n_pairs))

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

    ``forward`` runs N rows as ceil(N / 1024) blocks of near-equal size
    (within 128 rows) whose edges fall on multiples of 64 rows: a row's
    place in OpenBLAS's GEMM row groups sets its rounding, and an edge
    off a multiple of 8 changed up to 600 output elements by an ulp.  At
    D >= 16 the output then equals ``forward_cached``'s bit for bit; at
    D <= 8 some batches of over 1024 rows differ from it by a few eps
    times max|output| (up to 6.4 in 256x3 nets).  Inputs, layer results and
    skip product go into private buffers of one block, so memory besides
    the output does not grow with N and one net must not run ``forward``
    from two threads at once.  The output is always a fresh array;
    ``forward_cached`` allocates all fresh.
    """

    dim: int
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
        return cls(dim=dim, weights=weights, biases=biases, time_embedding=temb,
                   skip=np.zeros(1 + temb.width, dtype=dtype), dtype=np.dtype(dtype))

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

    def _buffer(self, name, rows, cols):
        """A (rows, cols) view of the kept block buffer ``name``; rows <= _FORWARD_ROWS."""
        buf = self._buffers.get(name)
        if buf is None or buf.size < _FORWARD_ROWS * cols:
            buf = self._buffers[name] = np.empty(_FORWARD_ROWS * cols, dtype=self.dtype)
        return buf[:rows * cols].reshape(rows, cols)

    def _block(self, x, t, buffer, out):
        """Write one row block's output into ``out``; return its activations.

        ``buffer(key, rows, cols)`` provides z = [x, emb(t)], each layer's matmul
        result (under keys 0 and 1 in turn) and the skip product: fresh arrays for
        ``forward_cached``, kept buffers for ``forward``.  Bias and tanh are applied
        in place on each matmul result.
        """
        width = self.dim + self.time_embedding.width
        z = buffer("z", len(x), width)
        z[:, :self.dim] = x
        # checked after the cast: a finite float64 can overflow a float32 net
        if not np.all(np.isfinite(z[:, :self.dim])):
            raise ValueError("network input contains non-finite values")
        # a scalar t is embedded once and its row broadcast down the block
        z[:, self.dim:] = self.time_embedding(t)
        acts = [z]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = np.matmul(acts[-1], w, out=buffer(i % 2, len(z), w.shape[1]))
            h += b
            if i != last:
                np.tanh(h, out=h)
            acts.append(h)
        # the skip term s(t) x; the last activation stays the body output
        scale = self.skip[0] + z[:, self.dim:] @ self.skip[1:]
        skip = np.multiply(scale[:, None], z[:, :self.dim], out=buffer("skip", len(z), self.dim))
        np.add(acts[-1], skip, out=out)
        return acts

    def _rows(self, x, t):
        """(x, t as an array), checked: x must be an (N, D) batch, t a scalar or one per row."""
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"expected an (N, {self.dim}) batch of states, got shape {x.shape}")
        t = np.asarray(t, dtype=np.float64)
        if t.ndim != 0 and t.shape != (x.shape[0],):
            raise ValueError("time must be scalar or one value per row")
        return x, t

    def forward(self, x, t):
        """Velocity prediction, in row blocks; deterministic for fixed parameters."""
        x, t = self._rows(x, t)
        out = np.empty((len(x), self.dim), dtype=self.dtype)
        n_blocks = -(-len(x) // _FORWARD_ROWS) or 1   # an empty batch is one block
        units = -(-len(x) // _ROW_GRAIN)
        edges = [min(len(x), _ROW_GRAIN * (units * k // n_blocks)) for k in range(n_blocks + 1)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            self._block(x[lo:hi], t if t.ndim == 0 else t[lo:hi], self._buffer, out[lo:hi])
        return out

    def forward_cached(self, x, t):
        """(output, activations) in one pass; the activations are ``backward``'s cache."""
        x, t = self._rows(x, t)
        out = np.empty((len(x), self.dim), dtype=self.dtype)
        acts = self._block(x, t, lambda key, rows, cols: np.empty((rows, cols), self.dtype), out)
        return out, acts

    def backward(self, acts, grad_out) -> dict:
        """Parameter gradients given d(loss)/d(output), an (N, D) array.

        ``acts`` must come from ``forward_cached`` on the same input.
        Gradients for the time-embedding inputs are discarded (the
        embedding has no trainable parameters).
        """
        if len(acts) != len(self.weights) + 1:
            raise ValueError("activation cache does not match network depth")
        g = np.asarray(grad_out, dtype=self.dtype)
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
    """Adaptive-moment optimizer with bias correction; beta1 = 0.9, beta2 = 0.999 and
    eps = 1e-8 are constants."""

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8
    lr: float = 1e-3
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
            "lr": self.lr, "step_count": self.step_count,
            "m": {k: a.copy() for k, a in self.m.items()},
            "v": {k: a.copy() for k, a in self.v.items()},
        }


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
    meta = {"version": CHECKPOINT_VERSION, "step": int(step),
            "rng_state": rng.bit_generator.state if rng is not None else None,
            "extra": extra or {}}
    arrays = {f"param_{k}": p for k, p in net.parameters().items()}
    if optimizer is not None:
        meta["optimizer"] = {"lr": optimizer.lr, "step_count": optimizer.step_count}
        arrays.update({f"adam_m_{k}": a for k, a in optimizer.m.items()})
        arrays.update({f"adam_v_{k}": a for k, a in optimizer.v.items()})
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint.  The net's depth and widths come from its ``param_W*`` arrays,
    its state dimension from the last one, its time embedding from ``param_skip``
    (1 + 2 * n_pairs entries) and its dtype from the arrays, which must share one."""
    name = getattr(path, "name", path)
    with np.load(path) as data:
        try:
            meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
        except ValueError as exc:   # not JSON or not UTF-8
            raise ValueError(f"checkpoint {name} has unreadable meta_json: {exc}") from None
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}; "
                             f"this build reads version {CHECKPOINT_VERSION}")
        n_layers = sum(k.startswith("param_W") for k in data.files)
        weights = [data[f"param_W{i}"] for i in range(n_layers)]
        biases = [data[f"param_b{i}"] for i in range(n_layers)]
        skip = data["param_skip"]
        dtypes = {a.dtype for a in (*weights, *biases, skip)}
        if len(dtypes) != 1:
            raise ValueError(f"checkpoint {name} mixes parameter dtypes "
                             f"{sorted(d.name for d in dtypes)}")
        net = Mlp(dim=weights[-1].shape[1], weights=weights, biases=biases,
                  time_embedding=TimeEmbedding((len(skip) - 1) // 2), skip=skip,
                  dtype=dtypes.pop())
        optimizer = None
        if "optimizer" in meta:
            optimizer = Adam(
                lr=meta["optimizer"]["lr"], step_count=meta["optimizer"]["step_count"],
                m={k[len("adam_m_"):]: data[k] for k in data.files if k.startswith("adam_m_")},
                v={k[len("adam_v_"):]: data[k] for k in data.files if k.startswith("adam_v_")})
    return Checkpoint(net=net, optimizer=optimizer, rng_state=meta["rng_state"],
                      step=meta["step"], extra=meta["extra"])

