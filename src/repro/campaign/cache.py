"""Content-addressed result cache for campaign scenarios.

A scenario's *cache key* is a SHA-256 digest over everything that
determines its outcome:

* the trace content address — for ``synth`` traces the generator
  parameter tuple (seed included; :func:`repro.core.synth.synth_metadata`
  guarantees the tuple ↔ bytes bijection), for ``acquire`` traces the
  acquisition parameters (the pipeline is deterministic per PAPI seed),
  for ``dir`` traces the *bytes* of the trace files themselves;
* the platform — catalog parameters for named platforms, the file bytes
  for platform XML (editing the XML busts the key);
* the calibration parameters (a changed flop rate or network segment
  busts the key);
* the replay options and rank count.

Keys are computed from canonical JSON (sorted keys, fixed separators) —
never from Python's randomised ``hash()`` — so the same scenario hashes
identically in every process and on every run, which is what lets a
re-run campaign skip every unchanged scenario.

The cache itself is a plain directory of JSON records,
``<root>/<key[:2]>/<key>.json``, safe to share between campaigns and to
prune with ``rm``.  Writes go through a same-directory temp file +
``os.replace`` so concurrent writers (campaign workers finishing
together) can never leave a torn record.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Optional

from .spec import Scenario

__all__ = ["CACHE_FORMAT_VERSION", "canonical_json", "digest_of",
           "digest_file", "digest_tree", "scenario_cache_key",
           "ResultCache"]

#: Bump when the record schema or key composition changes; part of every
#: key, so stale-format records can never be served.
#: v2: fault-injection specs joined the key composition.
#: v3: ReplaySpec grew the ``compiled`` driver field.
#: v4: ReplaySpec grew phase batching/shards/shard_halo, and synthetic
#: trace addresses normalise the seed to 0 when jitter is 0 (the seed
#: cannot influence a jitter-free trace, so it must not split the key).
#: v5: TraceSpec grew family/params (AI-workload generators) and the
#: opcode space grew the allToAll/allGather/reduceScatter/allToAllv
#: collectives.
#: v6: the exact driver knobs (compiled, shards, shard_halo, lmm_mode)
#: left the replay address; records carry them as provenance.
CACHE_FORMAT_VERSION = 6


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN surprises."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def digest_of(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def digest_file(path: str) -> str:
    """SHA-256 of a file's bytes (streamed)."""
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_tree(directory: str) -> str:
    """SHA-256 over a directory's (relative name, bytes) pairs, walked in
    sorted order — byte-identical trees digest identically regardless of
    mtime or inode churn."""
    h = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(directory)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".tic"):
                # Compiled-program sidecars are derived artifacts keyed
                # to their source's bytes (repro.core.compile): hashing
                # them would make a warm compile cache change the trace's
                # content address.
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, directory)
            h.update(rel.encode("utf-8"))
            h.update(b"\0")
            with open(path, "rb") as handle:
                for chunk in iter(lambda: handle.read(1 << 20), b""):
                    h.update(chunk)
            h.update(b"\0")
    return h.hexdigest()


def _trace_address(scenario: Scenario) -> Dict[str, Any]:
    trace = scenario.trace
    address = trace.digest_fields()
    if trace.kind == "dir":
        address["content"] = digest_tree(trace.path)
    if trace.kind == "synth":
        # The synth generator needs the rank count too.
        address["n_ranks"] = scenario.ranks
        # A jitter-free trace never draws from its RNG, so the seed
        # cannot influence a single byte of it; leaving it in the
        # address would split identical traces across cache keys
        # (spurious misses when a sweep varies the seed with jitter 0).
        # synth_metadata applies the same normalisation.  The moe family
        # is the exception: its expert-routing splits are a function of
        # the seed even at jitter 0, so its seed always addresses.
        if address.get("jitter") == 0.0 and trace.family != "moe":
            address["seed"] = 0
    return address


def _platform_address(scenario: Scenario) -> Dict[str, Any]:
    platform = scenario.platform
    address = platform.digest_fields()
    if platform.kind == "xml":
        address["content"] = digest_file(platform.xml_path)
    return address


def _faults_address(scenario: Scenario) -> Optional[Dict[str, Any]]:
    if scenario.faults is None:
        return None
    address = scenario.faults.digest_fields()
    if scenario.faults.plan_path:
        address["content"] = digest_file(scenario.faults.plan_path)
    return address


def scenario_cache_key(scenario: Scenario) -> str:
    """The content address of one scenario's result."""
    return digest_of({
        "format": CACHE_FORMAT_VERSION,
        "ranks": scenario.ranks,
        "measure_actual": scenario.measure_actual,
        "trace": _trace_address(scenario),
        "platform": _platform_address(scenario),
        "calibration": scenario.calibration.digest_fields(),
        "replay": scenario.replay.digest_fields(),
        "faults": _faults_address(scenario),
    })


class ResultCache:
    """Directory-backed map from cache key to result record (a dict)."""

    def __init__(self, root: str) -> None:
        self.root = root

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            # A torn/corrupt record is a miss, not a crash.
            return None
        try:
            # Recency signal for size-bounded shared caches (the service
            # artifact store evicts least-recently-*used*, not least-
            # recently-written).  Best-effort: a read-only cache still
            # serves hits.
            os.utime(path, None)
        except OSError:
            pass
        return record

    def put(self, key: str, record: Dict[str, Any]) -> str:
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def __len__(self) -> int:
        count = 0
        if not os.path.isdir(self.root):
            return 0
        for _root, _dirs, files in os.walk(self.root):
            count += sum(1 for f in files if f.endswith(".json"))
        return count
