"""Temporal (video) SR training: BPTT over frame sequences (functional mode).

The trainer drives :class:`~repro.models.video.RecurrentEDSR` end to end
on tiny models: each sequence runs ``frames`` forward passes carrying the
recurrent hidden state, accumulates per-scale L1/MSE losses across frames,
then backpropagates once through the whole sequence and applies a single
optimizer update.  Hidden state resets at sequence boundaries — the same
periodic step structure the performance-mode study declares in
:meth:`repro.core.study.ScalingStudy.step_plan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import ConfigError
from repro.tensor import Tensor, functional as F
from repro.tensor.nn.module import Module
from repro.tensor.optim.base import Optimizer
from repro.trainer.throughput import ThroughputMeter


@dataclass
class VideoTrainResult:
    """Per-sequence losses, split per scale, plus frame throughput."""

    losses: list[float] = field(default_factory=list)
    per_scale_losses: dict[int, list[float]] = field(default_factory=dict)
    frames_per_second: float = 0.0
    sequences: int = 0

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def synthetic_video(
    *,
    sequences: int,
    frames: int,
    batch: int,
    patch: int,
    scales: tuple[int, ...],
    seed: int = 0,
) -> Iterator[tuple[np.ndarray, dict[int, np.ndarray]]]:
    """Deterministic synthetic video clips for tests and examples.

    Yields ``(lr_seq, hr_by_scale)`` with ``lr_seq`` of shape
    (frames, batch, 3, patch, patch); consecutive frames are pixel-shifted
    copies of the first (so there is real temporal structure), and each HR
    target is the nearest-neighbour upsample of its LR frame — a mapping a
    tiny model can visibly learn.
    """
    rng = np.random.default_rng(seed)
    for _ in range(sequences):
        base = rng.random((batch, 3, patch, patch), dtype=np.float32)
        lr_seq = np.stack(
            [np.roll(base, shift=t, axis=-1) for t in range(frames)]
        )
        hr = {
            s: np.repeat(np.repeat(lr_seq, s, axis=-2), s, axis=-1)
            for s in scales
        }
        yield lr_seq, hr


def train_video_sr(
    model: Module,
    clips: Iterator[tuple[np.ndarray, dict[int, np.ndarray]]],
    optimizer: Optimizer,
    *,
    loss: str = "l1",
) -> VideoTrainResult:
    """Train a recurrent multi-scale SR model over video clips.

    ``clips`` yields ``(lr_seq, hr_by_scale)`` as produced by
    :func:`synthetic_video`.  Loss is averaged over frames and scales so
    sequence length and head count do not rescale the learning rate.
    """
    loss_fn = {"l1": F.l1_loss, "mse": F.mse_loss}.get(loss)
    if loss_fn is None:
        raise ConfigError(f"unknown loss {loss!r}; use 'l1' or 'mse'")
    meter = ThroughputMeter(skip_first=0)
    result = VideoTrainResult()
    model.train()
    for lr_seq, hr_by_scale in clips:
        frames = lr_seq.shape[0]
        if frames < 1:
            raise ConfigError("each clip needs at least one frame")
        scales = sorted(hr_by_scale)
        meter.start()
        model.zero_grad()
        hidden = None  # hidden state resets at every sequence boundary
        total = None
        scale_totals: dict[int, float] = {s: 0.0 for s in scales}
        weight = 1.0 / (frames * len(scales))
        for t in range(frames):
            outputs, hidden = model(Tensor(lr_seq[t]), hidden)
            for s in scales:
                term = loss_fn(outputs[s], Tensor(hr_by_scale[s][t]))
                scale_totals[s] += term.item() / frames
                term = F.mul(term, weight)
                total = term if total is None else F.add(total, term)
        total.backward()
        optimizer.step()
        meter.stop(images=frames * lr_seq.shape[1])
        result.losses.append(total.item())
        for s in scales:
            result.per_scale_losses.setdefault(s, []).append(scale_totals[s])
        result.sequences += 1
    result.frames_per_second = meter.images_per_second()
    return result
