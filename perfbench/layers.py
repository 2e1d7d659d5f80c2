"""Per-layer metrics from the spans of one traced round.

Span names are ``<module>.<qualified name>``, e.g. ``nn.Mlp.forward`` or
``solver.integrate``.  Times are per call unless the name says
otherwise; ``*_computed`` values come from shapes and sizes, not from
measurement.  A layer the workload does not exercise reports 0.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .spans import self_times

STEP_SPANS = ("solver.euler_step", "solver.heun_step", "solver.em_step")
LOSS_SPANS = ("training.fm_loss", "training.mafm_loss")

# name -> unit, in report order (BENCHMARK.json lists the same names)
UNITS = {
    "training.step_ms_p50": "ms",
    "training.step_ms_p99": "ms",
    "training.steps": "count",
    "training.loss_self_ms": "ms",
    "training.sample_batch_ms": "ms",
    "datasets.sample_ms": "ms",
    "interpolant.sample_xt_ms": "ms",
    "interpolant.target_velocity_ms": "ms",
    "nn.forward_cached_ms": "ms",
    "nn.backward_ms": "ms",
    "nn.adam_step_ms": "ms",
    "nn.train_gflops": "GFLOP/s",
    "nn.train_gflop_computed": "GFLOP",
    "nn.forward_ms": "ms",
    "nn.forward_gflops": "GFLOP/s",
    "nn.forward_calls": "count",
    "nn.forward_gflop_computed": "GFLOP",
    "nn.save_checkpoint_ms": "ms",
    "nn.load_checkpoint_ms": "ms",
    "nn.checkpoint_bytes": "bytes",
    "nn.checkpoint_bytes_computed": "bytes",
    "solver.self_ms_per_step": "ms",
    "solver.field_share": "ratio",
    "solver.field_evals": "count",
    "solver.field_evals_computed": "count",
    "solver.save_trajectory_ms": "ms",
    "solver.load_trajectory_ms": "ms",
    "solver.trajectory_mb_per_s": "MB/s",
    "solver.trajectory_bytes_computed": "bytes",
    "gaussian_oracle.oracle_velocity_ms": "ms",
    "diagnostics.track_fld_ms_per_checkpoint": "ms",
    "diagnostics.moments_ms": "ms",
    "diagnostics.frechet_ms": "ms",
    "diagnostics.rank_deficient_warnings": "count",
    "diagnostics.fld_checkpoints": "count",
    "diagnostics.fld_checkpoints_computed": "count",
    "cli.lag_sweep_self_ms": "ms",
    "reporting.write_ms": "ms",
    "trace_overhead_pct": "%",
    "trace_unattributed_pct": "%",
}


class SpanTable:
    """Column view of a span list with child lookup and self times."""

    def __init__(self, spans):
        self.names = [s[0] for s in spans]
        self.start = np.array([s[1] for s in spans], dtype=np.float64)
        self.end = np.array([s[2] for s in spans], dtype=np.float64)
        self.parent = np.array([s[3] for s in spans], dtype=np.int64)
        self.dur = self.end - self.start
        self.self_time = self_times(spans) if spans else np.zeros(0)
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for i, (name, parent) in enumerate(zip(self.names, self.parent)):
            self.by_name[name].append(i)
            if parent >= 0:
                self.children[int(parent)].append(i)

    def ids(self, *names) -> list:
        return [i for n in names for i in self.by_name.get(n, ())]

    def total(self, ids) -> float:
        return float(self.dur[ids].sum()) if ids else 0.0

    def mean_ms(self, ids) -> float:
        return 1e3 * self.total(ids) / len(ids) if ids else 0.0


def _train_steps(tab: SpanTable) -> np.ndarray:
    """Step durations: from one sample_batch start to the next within a train call;
    the last step of a call ends with its last Adam step."""
    steps = []
    for job in tab.ids("training.train"):
        kids = tab.children.get(job, [])
        starts = sorted(tab.start[i] for i in kids if tab.names[i] == "training.sample_batch")
        adam_ends = [tab.end[i] for i in kids if tab.names[i] == "nn.Adam.step"]
        if starts and adam_ends:
            steps.extend(np.diff(starts))
            steps.append(max(adam_ends) - starts[-1])
    return np.array(steps)


def layer_metrics(spans, context: dict, traced_wall: float, overhead_pct: float,
                  rank_warnings: int) -> dict:
    """Every metric in UNITS for one traced round of ops.

    ``context`` carries the workload's computed work counts (see the
    workloads' ``layer_context``); ``traced_wall`` is the summed wall time
    of the traced ops, measured outside the spans.
    """
    tab = SpanTable(spans)
    m = dict.fromkeys(UNITS, 0.0)

    steps = _train_steps(tab)
    if steps.size:
        m["training.step_ms_p50"] = 1e3 * float(np.percentile(steps, 50))
        m["training.step_ms_p99"] = 1e3 * float(np.percentile(steps, 99))
        m["training.steps"] = float(steps.size)
    losses = tab.ids(*LOSS_SPANS)
    if losses:
        inner = [sum(tab.dur[c] for c in tab.children.get(i, [])
                     if tab.names[c].startswith(("nn.", "interpolant."))) for i in losses]
        m["training.loss_self_ms"] = 1e3 * (tab.total(losses) - sum(inner)) / len(losses)
    m["training.sample_batch_ms"] = tab.mean_ms(tab.ids("training.sample_batch"))
    m["datasets.sample_ms"] = tab.mean_ms(
        [i for n, ids in tab.by_name.items() if n.startswith("datasets.") and n.endswith(".sample")
         for i in ids])
    m["interpolant.sample_xt_ms"] = tab.mean_ms(tab.ids("interpolant.Interpolant.sample_xt"))
    m["interpolant.target_velocity_ms"] = tab.mean_ms(
        tab.ids("interpolant.Interpolant.target_velocity"))

    fwd_cached, bwd = tab.ids("nn.Mlp.forward_cached"), tab.ids("nn.Mlp.backward")
    m["nn.forward_cached_ms"] = tab.mean_ms(fwd_cached)
    m["nn.backward_ms"] = tab.mean_ms(bwd)
    m["nn.adam_step_ms"] = tab.mean_ms(tab.ids("nn.Adam.step"))
    m["nn.train_gflop_computed"] = context.get("train_gflop_computed", 0.0)
    train_time = tab.total(fwd_cached) + tab.total(bwd)
    if train_time > 0:
        m["nn.train_gflops"] = m["nn.train_gflop_computed"] / train_time
    fwd = tab.ids("nn.Mlp.forward")
    m["nn.forward_ms"] = tab.mean_ms(fwd)
    m["nn.forward_calls"] = float(len(fwd))
    if fwd:
        m["nn.forward_gflop_computed"] = len(fwd) * context["forward_flop_per_call"] / 1e9
        m["nn.forward_gflops"] = m["nn.forward_gflop_computed"] / tab.total(fwd)
    m["nn.save_checkpoint_ms"] = tab.mean_ms(tab.ids("nn.save_checkpoint"))
    m["nn.load_checkpoint_ms"] = tab.mean_ms(tab.ids("nn.load_checkpoint"))
    m["nn.checkpoint_bytes"] = context.get("checkpoint_bytes", 0.0)
    m["nn.checkpoint_bytes_computed"] = context.get("checkpoint_bytes_computed", 0.0)

    integrate = tab.ids("solver.integrate")
    if integrate:
        field_ids = [c for i in tab.ids("solver.scaled_velocity")
                     for c in tab.children.get(i, []) if not tab.names[c].startswith("solver.")]
        n_steps = len(tab.ids(*STEP_SPANS))
        field_time = tab.total(field_ids)
        m["solver.field_share"] = field_time / tab.total(integrate)
        m["solver.field_evals"] = float(len(field_ids))
        if n_steps:
            m["solver.self_ms_per_step"] = 1e3 * (tab.total(integrate) - field_time) / n_steps
    m["solver.field_evals_computed"] = context.get("field_evals_computed", 0.0)
    saves, loads = tab.ids("solver.save_trajectory"), tab.ids("solver.load_trajectory")
    m["solver.save_trajectory_ms"] = tab.mean_ms(saves)
    m["solver.load_trajectory_ms"] = tab.mean_ms(loads)
    m["solver.trajectory_bytes_computed"] = context.get("trajectory_bytes_computed", 0.0)
    io_time = tab.total(saves) + tab.total(loads)
    if io_time > 0:
        moved = (len(saves) + len(loads)) * m["solver.trajectory_bytes_computed"]
        m["solver.trajectory_mb_per_s"] = moved / io_time / 1e6

    m["gaussian_oracle.oracle_velocity_ms"] = tab.mean_ms(tab.ids("gaussian_oracle.oracle_velocity"))

    fld = tab.ids("diagnostics.track_fld")
    scored = [c for i in fld for c in tab.children.get(i, [])
              if tab.names[c] == "diagnostics.MomentStats.from_samples"]
    m["diagnostics.fld_checkpoints"] = float(len(scored))
    if scored:
        m["diagnostics.track_fld_ms_per_checkpoint"] = 1e3 * tab.total(fld) / len(scored)
    m["diagnostics.moments_ms"] = tab.mean_ms(tab.ids("diagnostics.MomentStats.from_samples"))
    m["diagnostics.frechet_ms"] = tab.mean_ms(tab.ids("diagnostics.frechet_gaussian"))
    m["diagnostics.rank_deficient_warnings"] = float(rank_warnings)
    m["diagnostics.fld_checkpoints_computed"] = context.get("fld_checkpoints_computed", 0.0)

    sweeps = tab.ids("cli.run_lag_sweep")
    if sweeps:
        m["cli.lag_sweep_self_ms"] = 1e3 * float(tab.self_time[sweeps].sum()) / len(sweeps)
    m["reporting.write_ms"] = tab.mean_ms(tab.ids("reporting.write_csv", "reporting.write_manifest"))

    m["trace_overhead_pct"] = overhead_pct
    m["trace_unattributed_pct"] = unattributed_pct(tab, traced_wall)
    return m


def unattributed_pct(tab: SpanTable, traced_wall: float) -> float:
    """Share of the traced wall time that no span's self time accounts for."""
    attributed = float(tab.self_time.sum())
    return 100.0 * (traced_wall - attributed) / traced_wall if traced_wall > 0 else 0.0
