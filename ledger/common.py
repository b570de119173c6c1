"""Shared pieces of the ledger benchmark: inputs, probes, statistics, state.

Every input is generated from the workload seed in memory; nothing is read
from ``benchmarks/.corpus_cache`` or from what an earlier run left behind.
Run state (checkpoints, sinks, feature stores, corpus blobs) lives in a
fresh directory under ``.ledger_state/`` at the root of the checkout and is
removed when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Root of the checkout the benchmark runs in (the parent of ``ledger/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

class LedgerError(RuntimeError):
    """The benchmark cannot run here (no sources, a server that died, ...)."""


def require_sources() -> None:
    """Make ``repro`` importable from the checkout, or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise LedgerError(f"no program sources at {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# sizes and inputs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Size:
    """Input sizes of one run; ``tiny`` keeps the smoke test fast."""

    name: str
    train_phishing: int
    train_benign: int
    train_target: int
    warm_contracts: int
    cold_contracts: int
    chain_blocks: int
    deploys_per_block: float
    corpus_contracts: int
    setup_repeats: int
    server_spawns: int
    warm_reopens: int


SIZES = {
    "full": Size(
        name="full", train_phishing=320, train_benign=200, train_target=260,
        warm_contracts=256, cold_contracts=4200, chain_blocks=480,
        deploys_per_block=20.0, corpus_contracts=600, setup_repeats=3,
        server_spawns=5, warm_reopens=4,
    ),
    "tiny": Size(
        name="tiny", train_phishing=80, train_benign=60, train_target=100,
        warm_contracts=16, cold_contracts=200, chain_blocks=90,
        deploys_per_block=4.0, corpus_contracts=80, setup_repeats=2,
        server_spawns=2, warm_reopens=2,
    ),
}


def derived_seed(seed: int, purpose: str) -> int:
    """A stable per-purpose seed, so each input stream is independent."""
    digest = hashlib.blake2b(f"{seed}:{purpose}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


#: Seed of the training corpus.  The detector is the deployed artifact, so
#: every run screens its seed's traffic with the same model; a model fitted
#: per seed flags between 18% and 32% of the same chain, which would make
#: the analysis work of a run depend on the seed more than on the code.
TRAINING_SEED = 2025


def training_dataset(size: Size):
    """The labelled training set the detector is fitted on."""
    from repro.chain.generator import CorpusConfig, generate_corpus
    from repro.core.dataset import PhishingDataset

    corpus = generate_corpus(
        CorpusConfig(
            n_phishing=size.train_phishing,
            n_benign=size.train_benign,
            hard_fraction=0.22,
            seed=TRAINING_SEED,
        )
    )
    return PhishingDataset.build(
        corpus.records, target_size=size.train_target, seed=TRAINING_SEED
    )


def fit_detector(size: Size, feature_service=None):
    """Random Forest HSC fitted on the training set.

    ``feature_service=None`` keeps the process-wide shared service, as a
    deployed server does; the reference detector passes a fresh one.
    """
    from repro.models.hsc import make_random_forest_hsc

    dataset = training_dataset(size)
    detector = make_random_forest_hsc(seed=TRAINING_SEED)
    if feature_service is not None:
        detector.feature_service = feature_service
    detector.fit(dataset.bytecodes, dataset.labels)
    return detector, dataset


def unique_contracts(seed: int, count: int, exclude: Iterable[bytes] = ()) -> List[bytes]:
    """``count`` distinct bytecodes (by content) disjoint from ``exclude``."""
    from repro.chain.generator import CorpusConfig, generate_corpus

    seen: Set[bytes] = set(exclude)
    codes: List[bytes] = []
    round_ = 0
    while len(codes) < count:
        half = max(8, (count - len(codes)) * 6 // 10)
        corpus = generate_corpus(
            CorpusConfig(
                n_phishing=half,
                n_benign=half,
                proxy_clone_share=0.0,
                seed=derived_seed(seed, f"unseen-{round_}"),
            )
        )
        for record in corpus.records:
            if record.bytecode not in seen:
                seen.add(record.bytecode)
                codes.append(record.bytecode)
                if len(codes) == count:
                    break
        round_ += 1
    return codes


# ----------------------------------------------------------------------
# run state
# ----------------------------------------------------------------------


class StateDir:
    """A fresh, empty directory for one run's state; removed on exit."""

    def __init__(self) -> None:
        self.path = ROOT / ".ledger_state" / f"{os.getpid()}-{uuid.uuid4().hex[:8]}"

    def __enter__(self) -> Path:
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()  # only when no concurrent run uses it
        except OSError:
            pass


def filesystem_type(path: Path) -> str:
    """Type of the filesystem ``path`` lives on (longest mount prefix)."""
    best, kind = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/self/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def tree_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


# ----------------------------------------------------------------------
# process probes
# ----------------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def process_cpu_s(pid: Optional[int] = None) -> float:
    """User + system CPU seconds of a process (this one by default)."""
    if pid is None:
        return time.process_time()
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process in MiB."""
    with open(f"/proc/{pid or 'self'}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise LedgerError("VmHWM not reported by /proc")


def machine_shape() -> Dict[str, object]:
    """Commit, cores, interpreter and numpy versions of this run."""
    import numpy

    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.blake2b(digest_size=8)
    for source in sorted(SRC.rglob("*.py")):
        digest.update(str(source.relative_to(SRC)).encode())
        digest.update(source.read_bytes())
    return {
        "commit": commit,
        "src_digest": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def interval_self_times(spans: Sequence[Dict[str, float]]) -> List[Tuple[str, float]]:
    """Self time of each span of one flat trace, from interval overlap.

    A span's children are the other spans inside its interval (a span with
    an identical interval counts as a child when it was recorded first,
    since spans are recorded when they end).  Self time is the duration
    minus the length of the union of the children's intervals.
    """
    result = []
    for index, span in enumerate(spans):
        start = span["start_ms"]
        end = start + span["duration_ms"]
        inner = []
        for other_index, other in enumerate(spans):
            if other_index == index:
                continue
            o_start = other["start_ms"]
            o_end = o_start + other["duration_ms"]
            if o_start < start or o_end > end:
                continue
            same = o_start == start and o_end == end
            if same and other_index > index:
                continue
            inner.append((o_start, o_end))
        covered = 0.0
        cursor = start
        for o_start, o_end in sorted(inner):
            o_start = max(o_start, cursor)
            if o_end > o_start:
                covered += o_end - o_start
                cursor = o_end
        result.append((span["name"], max(0.0, span["duration_ms"] - covered)))
    return result


class Timer:
    """Accumulates wall time of named calls (the traced runs' proxies)."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def add(self, name: str, seconds: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + 1

    def take(self) -> Dict[str, float]:
        """Return and reset the accumulated totals."""
        totals, self.totals = self.totals, {}
        return totals


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``end_to_end`` and ``per_layer`` map metric names to ``(value, unit)``;
    ``detail`` holds everything else worth recording (sample counts, the
    tail percentile used, the state filesystem, ...).
    """

    attempted: int
    failed: int
    end_to_end: Dict[str, Tuple[float, str]]
    per_layer: Dict[str, Tuple[float, str]]
    detail: Dict[str, object]


def emit_detail(payload: Dict[str, object]) -> None:
    """Print one detail line (everything but the final result line)."""
    print("ledger-detail " + json.dumps(payload, sort_keys=True), flush=True)


def now() -> float:
    return time.perf_counter()
