"""The DNN workload: ``kernels``.

Closed-loop offline batches of 8 images at 32x32 through
``BlockwiseRunner``.  Five task paths (Table I CONFIG A, C, D, D-pruned
and E on ResNet-18, width 64) share one frozen base trunk: CONFIG A
shares nothing, the others share 1-3 stages, so the runner's prefix
cache both hits and misses.  Two runners are built the way the program
builds them: ``compile_blocks=True`` (fp32 plans compiled on first use)
and ``quantize="int8"`` (int8 plans compiled and calibrated on first
use).  Model weights are fixed (they are the deployed program); the
images are drawn from the seed.

The runner's int8 mode calibrates every block on a synthetic
standard-normal batch, and on these paths its top-1 agreement with fp32
is far below the ``bench_engine`` gate.  That agreement is the
workload's ``quality_frac``, so the defect, and a fix, show in the
metric.  The gate itself is applied to int8 plans calibrated on each
block's real fp32 input, which checks the int8 kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from harness import digest, median
from repro.core.catalog import Block, Path
from repro.core.task import QualityLevel
from repro.dnn import compile as dnn_compile
from repro.dnn.configs import TABLE_I_CONFIGS
from repro.dnn.pruning import prune_resnet
from repro.dnn.resnet import BLOCK_NAMES, build_resnet18
from repro.serving.executor import BlockwiseRunner

CONFIGS = ("CONFIG A", "CONFIG C", "CONFIG D", "CONFIG D-pruned", "CONFIG E")
QUALITY = QualityLevel(name="full", bits_per_image=350_000.0)
BASE_WEIGHT_SEED = 0
CALIBRATION_SEED = 12345
CALIBRATION_IMAGES = 16


@dataclass(frozen=True)
class KernelSize:
    width: int = 64
    input_size: int = 32
    batch: int = 8
    #: fixed batches per pass (the same inputs every pass); their
    #: 32 images are also the int8-vs-fp32 agreement probe
    batches: int = 4


def _shared(config, stage: str) -> bool:
    if config.from_scratch or stage == "head":
        return False
    if stage == "stem":
        return "layer1" in config.shared_stages
    return stage in config.shared_stages


def build_paths(size: KernelSize):
    """Block modules keyed by block id, the five task paths, cacheable ids."""
    base = build_resnet18(
        num_classes=10, input_size=size.input_size, width=size.width, seed=BASE_WEIGHT_SEED
    )
    modules, paths, cacheable = {}, [], set()
    for index, name in enumerate(CONFIGS):
        config = TABLE_I_CONFIGS[name]
        own = build_resnet18(
            num_classes=10, input_size=size.input_size, width=size.width, seed=1 + index
        )
        if config.pruned:
            prune_resnet(own, set(config.prunable_blocks), config.prune_ratio)
        blocks = []
        for stage in BLOCK_NAMES:
            if _shared(config, stage):
                block_id, dnn_id = f"base:{stage}", "base"
                modules[block_id] = base.blocks[stage]
                cacheable.add(block_id)
            else:
                block_id, dnn_id = f"task{index}:{stage}", f"task{index}"
                modules[block_id] = own.blocks[stage]
            blocks.append(Block(block_id, dnn_id, compute_time_s=1e-3, memory_gb=1e-3))
        paths.append(
            Path(f"task{index}", f"task{index}", index, tuple(blocks),
                 accuracy=0.9, quality=QUALITY)
        )
    return modules, paths, frozenset(cacheable)


def top1_agreement(reference: list, other: list) -> list[float]:
    """Per-path share of images whose top-1 class matches."""
    return [
        float(np.mean(np.argmax(a, axis=1) == np.argmax(b, axis=1)))
        for a, b in zip(reference, other)
    ]


def calibrated_int8_plans(modules: dict, paths: list, size: KernelSize) -> dict:
    """int8 plans per block, each calibrated on the block's real fp32 input."""
    shape = (CALIBRATION_IMAGES, 3, size.input_size, size.input_size)
    calibration = np.random.default_rng(CALIBRATION_SEED).standard_normal(
        shape, dtype=np.float32
    )
    fp32, plans = {}, {}
    for path in paths:
        x = calibration
        for block in path.blocks:
            block_id = block.block_id
            if block_id not in plans:
                module = modules[block_id]
                fp32[block_id] = dnn_compile.compile_module(module, x.shape[1:])
                plans[block_id] = dnn_compile.compile_module(
                    module, x.shape[1:], quantize="int8", calibration=x
                )
            x = fp32[block_id].forward(x)
    return plans


@dataclass
class KernelState:
    modules: dict
    paths: list
    runners: dict  # precision -> BlockwiseRunner
    batches: list
    next_key: int = 0
    #: per-path agreement of block-calibrated int8 plans, set by ``check``
    calibrated: list | None = None

    def key(self) -> int:
        self.next_key += 1
        return self.next_key


def per_path(batches: list) -> list:
    """Outputs indexed [batch][path], stacked over batches, per path."""
    return [np.concatenate(outs) for outs in zip(*batches)]


@dataclass
class Kernels:
    seed: int
    size: KernelSize = KernelSize()
    reference: ClassVar[str] = "blas"
    setup_repeats: ClassVar[int] = 1

    def setup(self, clock) -> KernelState:
        (modules, paths, cacheable), _ = clock.measure(build_paths, self.size)
        rng = np.random.default_rng(self.seed)
        shape = (self.size.batch, 3, self.size.input_size, self.size.input_size)
        batches = [rng.standard_normal(shape, dtype=np.float32) for _ in range(self.size.batches)]
        runners = {
            "fp32": BlockwiseRunner(
                modules=modules, cacheable=cacheable, cache_capacity=16, compile_blocks=True
            ),
            "int8": BlockwiseRunner(
                modules=modules, cacheable=cacheable, cache_capacity=16, quantize="int8"
            ),
        }
        state = KernelState(modules, paths, runners, batches)
        # first use compiles (and calibrates) every block plan and
        # allocates its batch-sized buffers, before any timing
        for runner in runners.values():
            key = state.key()
            for path in paths:
                clock.measure(runner.run, path, batches[0], input_key=key)
        return state

    def _forward_all(self, runner, state, x):
        """Every path on one fresh input key (prefix-cache hits after the first)."""
        key = state.key()
        return [runner.run(path, x, input_key=key) for path in state.paths]

    def run_pass(self, state: KernelState, clock) -> dict:
        seconds = {"fp32": 0.0, "int8": 0.0}
        outputs = {"fp32": [], "int8": []}  # precision -> batch -> path
        batch_ms = []
        hits = runs = 0
        for x in state.batches:
            batch_s = 0.0
            for precision, runner in state.runners.items():
                before = runner.cache_hits + runner.cache_misses, runner.cache_hits
                out, spent = clock.measure(self._forward_all, runner, state, x)
                outputs[precision].append(out)
                seconds[precision] += spent
                batch_s += spent
                runs += runner.cache_hits + runner.cache_misses - before[0]
                hits += runner.cache_hits - before[1]
            batch_ms.append(1e3 * batch_s)
        images = len(state.batches) * self.size.batch * len(state.paths)
        flat = [o for precision in outputs.values() for batch in precision for o in batch]
        return {
            "fp32_images_per_s": images / seconds["fp32"],
            "int8_images_per_s": images / seconds["int8"],
            "images_per_s": 2 * images / (seconds["fp32"] + seconds["int8"]),
            "batch_ms": batch_ms,
            "prefix_hit_ratio": hits / runs,
            "outputs": outputs,
            "digest": digest(*flat),
            "attempted": len(flat),
            "failed": 0,
        }

    def check(self, state: KernelState, passes: list[dict]) -> list[str]:
        from benchmarks.bench_engine import INT8_AGREEMENT_TOL, PARITY_TOL

        failures = []
        reference = passes[0]["outputs"]
        for p in passes:
            mismatched = sum(
                not np.array_equal(a, b)
                for precision in reference
                for batch_a, batch_b in zip(p["outputs"][precision], reference[precision])
                for a, b in zip(batch_a, batch_b)
            )
            p["failed"] = mismatched
            if mismatched:
                failures.append(f"{mismatched} forwards differ from the first pass")
        # every pass reruns the same fp32 and int8 forwards, so the check
        # above is also the int8 bit-identical rerun check.  Below: the
        # last batch's pass outputs (prefix-cache hits) against the same
        # runners with the cache switched off
        x = state.batches[-1]
        for precision, runner in state.runners.items():
            uncached = self._forward_all(replace(runner, cacheable=frozenset()), state, x)
            if not all(np.array_equal(a, b) for a, b in zip(uncached, reference[precision][-1])):
                failures.append(f"prefix-cached {precision} output differs from uncached")
        # compiled fp32 vs the eager modules
        for path, compiled in zip(state.paths, reference["fp32"][-1]):
            eager = x
            for block in path.blocks:
                eager = state.modules[block.block_id](eager)
            diff = float(np.abs(eager - compiled).max())
            if diff >= PARITY_TOL:
                failures.append(f"{path.path_id}: compiled fp32 off eager by {diff:.2e}")
        # the int8 kernels, calibrated on each block's real input
        calibrated = BlockwiseRunner(
            modules=calibrated_int8_plans(state.modules, state.paths, self.size)
        )
        calibrated_out = [self._forward_all(calibrated, state, b) for b in state.batches]
        state.calibrated = top1_agreement(
            per_path(reference["fp32"]), per_path(calibrated_out)
        )
        if min(state.calibrated) < INT8_AGREEMENT_TOL:
            failures.append(
                f"calibrated int8 top-1 agreement {min(state.calibrated):.3f} "
                f"< {INT8_AGREEMENT_TOL}"
            )
        return failures

    def agreement(self, passes: list[dict]) -> list[float]:
        """Per-path top-1 agreement of the int8 runner with fp32 on the pass images."""
        outputs = passes[0]["outputs"]
        return top1_agreement(per_path(outputs["fp32"]), per_path(outputs["int8"]))

    def end_to_end(self, state: KernelState, passes: list[dict]) -> dict:
        return {
            "throughput_per_s": median(p["images_per_s"] for p in passes),
            "latency_p50_ms": median(ms for p in passes for ms in p["batch_ms"]),
            "quality_frac": float(np.mean(self.agreement(passes))),
        }

    def report(self, state: KernelState, passes: list[dict]) -> list[str]:
        agreement = self.agreement(passes)
        images = self.size.batches * self.size.batch
        return [
            f"fp32_images_per_s: {median(p['fp32_images_per_s'] for p in passes):.1f} "
            "1/s host-scaled",
            f"int8_images_per_s: {median(p['int8_images_per_s'] for p in passes):.1f} "
            "1/s host-scaled",
            f"int8_top1_agreement: {np.mean(agreement):.4f} fraction, runner int8 mode "
            f"(per path {[round(a, 3) for a in agreement]}, {images} images)",
            f"calibrated int8 top-1 agreement (gated): per path "
            f"{[round(a, 3) for a in state.calibrated or []]}",
            f"task-images per pass: {passes[0]['attempted'] * self.size.batch} "
            f"({self.size.batches} batches x {self.size.batch} images x "
            f"{len(state.paths)} paths x 2 precisions)",
        ]

    def per_layer(self, state: KernelState, passes: list[dict], layers: dict) -> dict:
        return {"serving.prefix_hit_ratio": median(p["prefix_hit_ratio"] for p in passes)}
