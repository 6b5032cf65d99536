"""Inputs and deployment shapes of the benchmark.

* the question pool (spider_like test split plus its ``syn`` and ``real``
  variants, deduplicated by text) and its seeded orderings;
* the build cache: the router is trained once per source tree
  (``DBCopilot.build`` under ``default_config()``) and checkpointed under
  ``.bench_build/perfbench/<source hash>/``;
* ``boot(workload, ...)``: the deployment shape each workload drives;
* the two child processes ``run.py`` starts: ``deploy.py build`` (train and
  save a router) and ``deploy.py probe`` (a cold boot, timed from spawn to
  first answer).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: Seed of the fixed popularity ranking behind the Zipf draw.
POPULARITY_SEED = 0
WORKLOADS = ("route_cold", "nl2sql_open", "cluster_wire", "cluster_wave")
#: Closed-loop wave size per workload (the open loop sends single requests).
WAVE_SIZE = {"route_cold": 8, "cluster_wire": 16, "cluster_wave": 16}


def require_source() -> None:
    """Put ``src`` on the import path, or exit when the checkout lacks it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # Keep every temporary file (cluster checkpoints, worker scratch) inside
    # the checkout.
    scratch = WORK / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    import tempfile

    tempfile.tempdir = None


# -- question pool ---------------------------------------------------------------
@dataclass(frozen=True)
class PoolEntry:
    question: str
    database: str
    sql: str


def load_pool():
    """(context, pool): the spider_like context and its deduplicated pool."""
    from repro.experiments import default_config, get_context

    context = get_context("spider_like", default_config(),
                          with_baselines=False, with_copilot=False)
    pool: dict[str, PoolEntry] = {}
    for examples in (context.dataset.test_examples,
                     context.variant("syn").test_examples,
                     context.variant("real").test_examples):
        for example in examples:
            pool.setdefault(example.question,
                            PoolEntry(example.question, example.database, example.sql))
    return context, list(pool.values())


def seeded_order(size: int, seed: int) -> list[int]:
    import random

    order = list(range(size))
    random.Random(seed).shuffle(order)
    return order


def zipf_draws(size: int, count: int, seed: int, skew: float = 1.0) -> list[int]:
    """``count`` pool indices drawn Zipf(``skew``) with ``seed``.

    The popularity ranking itself is one fixed shuffle of the pool: with a
    skew of 1.0 the ten hottest questions take ~40% of the requests, so a
    ranking that changed with the seed would make the latency depend on
    which questions happened to be hot rather than on the program."""
    import numpy as np

    ranks = seeded_order(size, POPULARITY_SEED)
    weights = 1.0 / np.arange(1, size + 1) ** skew
    rng = np.random.default_rng(seed)
    drawn = rng.choice(size, size=count, p=weights / weights.sum())
    return [ranks[rank] for rank in drawn]


# -- build cache -------------------------------------------------------------------
def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def build_router(context):
    """Train the router as ``get_context`` does."""
    from repro.core import DBCopilot, DBCopilotConfig

    config = context.config
    dataset = context.dataset
    copilot = DBCopilot.build(
        dataset.catalog, dataset.instances, train_examples=dataset.train_examples,
        config=DBCopilotConfig(router=config.router_config(), sampler=config.sampler,
                               synthesis=config.synthesis_config(), seed=config.seed))
    return copilot.router


def build_checkpoint(target: Path) -> float:
    """Train and save a router into ``target`` in a fresh process (so the
    caller's heap stays untouched); returns the wall seconds it took."""
    shutil.rmtree(target, ignore_errors=True)
    started = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__)), "build", "--out", str(target)],
                   check=True, timeout=900)
    return time.perf_counter() - started


def cached_checkpoint() -> Path:
    """The router checkpoint for this source tree, training it on first use."""
    target = WORK / source_hash() / "router"
    if (target / "manifest.json").is_file():
        return target
    staging = target.parent / f"router.{os.getpid()}"
    seconds = build_checkpoint(staging)
    try:
        staging.rename(target)
    except OSError:  # another run finished the same build first
        shutil.rmtree(staging, ignore_errors=True)
    print(f"perfbench: trained and cached the router in {seconds:.1f}s", flush=True)
    return target


# -- deployment shapes ---------------------------------------------------------------
def boot(workload: str, checkpoint: Path, traced: bool, scratch: Path):
    """Boot the service ``workload`` drives; ``scratch`` holds its own files.

    Apart from the fields named here, the program keeps its defaults.
    ``traced`` turns on the program's own tracing (off for end-to-end runs).
    """
    if workload in ("route_cold", "nl2sql_open"):
        from repro.serving import RoutingService, ServingConfig

        if workload == "route_cold":
            config = ServingConfig(enable_cache=False, max_batch_size=8,
                                   enable_tracing=traced)
        else:
            config = ServingConfig(cache_size=256, enable_tracing=traced)
        return RoutingService.from_checkpoint(checkpoint, config)
    from repro.cluster import ClusterConfig, ClusterRoutingService
    from repro.core.router import SchemaRouter

    master = SchemaRouter.from_checkpoint(str(checkpoint))
    if workload == "cluster_wire":
        config = ClusterConfig(worker_backend="subprocess", num_shards=2,
                               enable_cache=False, enable_tracing=traced)
        # from_router saves the projection with save_cluster, then boots
        # it with load_cluster (spawning one worker process per shard).
        directory = scratch / "cluster"
        shutil.rmtree(directory, ignore_errors=True)
        return ClusterRoutingService.from_router(master, config,
                                                 checkpoint_dir=directory)
    if workload == "cluster_wave":
        config = ClusterConfig(num_shards=4, wave_decode=True, sliced_vocabulary=True,
                               enable_cache=False, enable_tracing=traced)
        return ClusterRoutingService.from_router(master, config)
    raise ValueError(f"unknown workload {workload!r}")


def main(argv: list[str]) -> int:
    """``build --out DIR`` trains and saves the router; ``probe ...`` boots a
    workload's service cold, answers one question and reports when."""
    parser = argparse.ArgumentParser()
    commands = parser.add_subparsers(dest="command", required=True)
    build = commands.add_parser("build")
    build.add_argument("--out", required=True)
    probe = commands.add_parser("probe")
    probe.add_argument("--workload", required=True, choices=WORKLOADS)
    probe.add_argument("--checkpoint", required=True)
    probe.add_argument("--scratch", required=True)
    probe.add_argument("--question", required=True)
    args = parser.parse_args(argv)
    require_source()
    if args.command == "build":
        from repro.serving import save_router

        context, _ = load_pool()
        save_router(build_router(context), Path(args.out))
        return 0
    service = boot(args.workload, Path(args.checkpoint), traced=False,
                   scratch=Path(args.scratch))
    try:
        if args.workload in ("route_cold", "nl2sql_open"):
            answer = service.submit(args.question)
        else:
            answer = service.submit_many([args.question])[0]
        answered_at = time.monotonic()
        print(json.dumps({"answered_at": answered_at, "routes": len(answer)}), flush=True)
    finally:
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
