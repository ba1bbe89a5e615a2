"""JSON-lines campaign checkpoints with atomic writes and hash chaining.

Layout: line 1 is a header identifying the campaign (kind, format
version, a caller-supplied *fingerprint* of the workload), every later
line is one completed work unit's result record.  The format supports
the operations a resilient runner needs:

* **Append-only progress.**  Each completed unit is appended as one
  ``json.dumps`` line and flushed + fsynced before the runner moves on,
  so a kill at any instant loses at most the unit in flight.
* **Corruption detection.**  A partial final line (the classic
  kill-mid-write artefact) or non-JSON garbage raises
  :class:`CheckpointCorruptError` on load; ``load(repair=True)``
  instead truncates back to the last intact record and carries on.
* **Integrity chaining.**  Every record carries a ``chain`` digest over
  its payload and its predecessor's digest, anchored at the header
  (:mod:`repro.runtime.integrity`).  A flipped bit, an edited value, a
  duplicated or reordered line breaks the chain *at that record*, so
  silent corruption that still parses as JSON is detected — and repair
  discards from the first untrusted record instead of resurrecting it.

The header itself is written atomically (temp file + ``os.replace``), so
a checkpoint either exists with a valid header or not at all.  A crash
between writing ``path + ".tmp"`` and the ``os.replace`` can strand the
temp file; both :meth:`create` and :meth:`load` sweep it away.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional, Tuple

from repro.runtime.chaos import inject as _chaos
from repro.runtime.errors import CheckpointCorruptError
from repro.runtime.integrity import chain_digest

HEADER_KIND = "repro-campaign-checkpoint"
#: Version 2 added the per-record integrity chain (PR 4).
FORMAT_VERSION = 2

#: A ``.tmp`` younger than this many seconds is left alone by the sweep:
#: it may belong to a *live* writer mid-``create`` in another local
#: process (two campaigns can run side by side against one checkpoint
#: directory).  A crash orphan, by contrast, only gets older.
TMP_SWEEP_GRACE_SECONDS = 30.0


class CheckpointStore:
    """One campaign's JSONL checkpoint file."""

    def __init__(self, path: str):
        self.path = os.fspath(path)
        self._handle = None
        #: Chain digest of the last durable line (header or record);
        #: ``None`` until :meth:`create` / :meth:`load` establishes it.
        self._tail: Optional[str] = None

    # ------------------------------------------------------------------
    def exists(self) -> bool:
        return os.path.exists(self.path)

    def _sweep_stale_tmp(self) -> None:
        """Remove a ``.tmp`` stranded by a crash mid-:meth:`create`.

        The atomic-replace protocol guarantees the canonical file is
        never half-written, but a kill between writing the temp file and
        ``os.replace`` leaves the orphan behind; it is dead weight (and
        an invariant violation) until someone sweeps it.

        Two local processes may share a checkpoint directory (campaigns
        running side by side), so the sweep must not race a live
        writer: only files older than ``TMP_SWEEP_GRACE_SECONDS`` are swept
        — a writer completes its ``create`` in milliseconds, while a
        crash orphan only ages — and a concurrent sweeper winning the
        unlink (ENOENT) is silently tolerated.
        """
        tmp = self.path + ".tmp"
        try:
            age = time.time() - os.stat(tmp).st_mtime
        except OSError:
            return  # no orphan (or unreadable: nothing useful to do)
        if age < TMP_SWEEP_GRACE_SECONDS:
            return  # possibly a live writer mid-create, not an orphan
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass  # another sweeper won the race
        except OSError:
            pass  # best effort: an unremovable orphan is not fatal here

    def create(self, fingerprint: Optional[Dict] = None) -> Dict:
        """Atomically write a fresh checkpoint containing only the header."""
        self._sweep_stale_tmp()
        header = {
            "kind": HEADER_KIND,
            "version": FORMAT_VERSION,
            "fingerprint": fingerprint or {},
        }
        header["chain"] = chain_digest("", header)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._tail = header["chain"]
        return header

    # ------------------------------------------------------------------
    def load(self, repair: bool = False) -> Tuple[Dict, Dict[str, Dict]]:
        """Parse the checkpoint; returns ``(header, {unit_id: record})``.

        Raises :class:`CheckpointCorruptError` on a missing/invalid
        header, a non-JSON record line, a truncated final line, or a
        record whose ``chain`` digest does not extend its predecessor —
        unless ``repair`` is set, in which case the untrusted tail is
        cut off (on disk too) and every intact record is returned.
        """
        self._sweep_stale_tmp()
        try:
            # errors="replace": a bit flip can produce invalid UTF-8; the
            # mangled line must fail the chain check, not blow up decode.
            with open(self.path, "r", encoding="utf-8",
                      errors="replace") as handle:
                raw = handle.read()
        except OSError as exc:
            raise CheckpointCorruptError(
                f"cannot read checkpoint {self.path}: {exc}"
            ) from exc

        lines = raw.split("\n")
        trailing_ok = lines and lines[-1] == ""
        if trailing_ok:
            lines = lines[:-1]
        if not lines:
            raise CheckpointCorruptError(f"checkpoint {self.path} is empty")

        header = self._parse_header(lines[0])
        records: Dict[str, Dict] = {}
        good_bytes = len(lines[0]) + 1
        tail = header["chain"]
        for i, line in enumerate(lines[1:], start=2):
            is_last = i == len(lines)
            truncated = is_last and not trailing_ok
            record = None
            if not truncated:
                try:
                    record = json.loads(line)
                except ValueError:
                    record = None
            reason = None
            if truncated:
                reason = "truncated mid-write"
            elif record is None or not isinstance(record, dict) \
                    or "unit" not in record:
                reason = "unparseable record"
            elif record.get("chain") != chain_digest(tail, record):
                reason = "integrity chain broken (corrupted, edited, " \
                    "duplicated or reordered record)"
            if reason is not None:
                if repair:
                    self._truncate(good_bytes)
                    break
                raise CheckpointCorruptError(
                    f"checkpoint {self.path} line {i}: {reason}"
                )
            records[record["unit"]] = record
            tail = record["chain"]
            good_bytes += len(line) + 1
        self._tail = tail
        return header, records

    def _parse_header(self, line: str) -> Dict:
        try:
            header = json.loads(line)
        except ValueError:
            header = None
        if not isinstance(header, dict) or \
                header.get("kind") != HEADER_KIND:
            raise CheckpointCorruptError(
                f"checkpoint {self.path} has no valid header"
            )
        if header.get("version") != FORMAT_VERSION:
            raise CheckpointCorruptError(
                f"checkpoint {self.path} is format version "
                f"{header.get('version')!r}, expected {FORMAT_VERSION}"
            )
        if header.get("chain") != chain_digest("", header):
            raise CheckpointCorruptError(
                f"checkpoint {self.path} header fails its own chain "
                "digest (corrupted or hand-edited header)"
            )
        return header

    def _truncate(self, n_bytes: int) -> None:
        self.close()
        with open(self.path, "r+", encoding="utf-8") as handle:
            handle.truncate(n_bytes)

    # ------------------------------------------------------------------
    def _ensure_tail(self) -> str:
        """The chain digest appends must extend; derived from the file
        when this store instance has not created/loaded it yet."""
        if self._tail is None:
            self.load(repair=False)
        assert self._tail is not None
        return self._tail

    def append(self, record: Dict) -> None:
        """Durably append one unit record (flush + fsync per record).

        The record is chained onto the file's current tail; any stale
        ``chain`` field (e.g. a record replayed from a worker shard,
        whose digest belongs to the *shard's* chain) is recomputed.
        """
        tail = self._ensure_tail()
        chained = {k: v for k, v in record.items() if k != "chain"}
        chained["chain"] = chain_digest(tail, chained)
        line = json.dumps(chained) + "\n"
        _chaos("checkpoint.append", store=self, line=line)
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._tail = chained["chain"]

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
