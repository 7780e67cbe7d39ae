"""Golden-fixture store: content-hashed snapshots of oracle outputs.

A fixture entry pins the observation one oracle produced for one case.
Entries are keyed ``SHA-256(canonical-JSON({case-content, oracle}) +
"\\0" + schema salt)`` — the same content-addressing discipline as
``repro.engine.store``, except the salt carries only the *fixture schema*
version, not a digest of the source: fixtures must survive code edits
and break only when the observation payload shape changes.

Comparison is **bitwise** on the canonical JSON of the observation:
floats round-trip exactly through ``repr``, so any numerical drift in an
oracle — a reordered summation, a changed constant, a sign flip — fails
the diff without re-running the expensive reference oracles whose outputs
are already snapshotted.

The committed store lives next to this module (``golden/default.json``)
so it resolves regardless of the working directory.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..engine.jobs import canonical_json
from .cases import VerifyCase
from .oracles import DelayObservation

#: Bump when VerifyCase.content() or DelayObservation.to_dict() changes
#: shape — every fixture must then be re-blessed.
GOLDEN_SCHEMA_VERSION = 1

#: Default committed store location (package data, CWD-independent).
DEFAULT_GOLDEN_PATH = Path(__file__).parent / "golden" / "default.json"


def golden_salt() -> str:
    """Salt tying fixture keys to the fixture schema (not the version)."""
    return f"repro-verify-golden-schema-{GOLDEN_SCHEMA_VERSION}"


def entry_key(case: VerifyCase, oracle: str) -> str:
    """Content hash identifying one (case, oracle) fixture entry."""
    text = canonical_json({"case": case.content(), "oracle": oracle}) \
        + "\0" + golden_salt()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class GoldenMismatch:
    """One divergence between a fresh observation and the stored fixture."""

    case_id: str
    oracle: str
    kind: str                 #: 'missing' | 'changed'
    detail: str

    def to_payload(self) -> Dict[str, Any]:
        return {"case_id": self.case_id, "oracle": self.oracle,
                "kind": self.kind, "detail": self.detail}


class GoldenStore:
    """A JSON file of content-hashed oracle observations."""

    def __init__(self, path: "os.PathLike[str] | str | None" = None) -> None:
        self.path = Path(path) if path is not None else DEFAULT_GOLDEN_PATH

    # ------------------------------------------------------------------
    def load(self) -> Dict[str, Dict[str, Any]]:
        """All entries keyed by content hash ({} for a missing store)."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            return {}
        if data.get("salt") != golden_salt():
            # Schema moved on; every entry is stale by definition.
            return {}
        entries = data.get("entries", {})
        return entries if isinstance(entries, dict) else {}

    def get(self, case: VerifyCase, oracle: str
            ) -> Optional[DelayObservation]:
        """Stored observation for (case, oracle), or None."""
        entry = self.load().get(entry_key(case, oracle))
        if entry is None:
            return None
        return DelayObservation.from_dict(entry["observation"])

    # ------------------------------------------------------------------
    def bless(self, observations: Iterable[
            Tuple[VerifyCase, DelayObservation]]) -> int:
        """Write/update fixtures for the given observations.

        Existing entries for other keys are preserved, so partial blesses
        (e.g. one oracle at a time) compose.  Returns the entry count of
        the resulting store.  The write is atomic (temp + ``os.replace``).
        """
        entries = self.load()
        for case, observation in observations:
            entries[entry_key(case, observation.oracle)] = {
                "case_id": case.case_id,
                "case": case.content(),
                "oracle": observation.oracle,
                "observation": observation.to_dict(),
            }
        payload = {"salt": golden_salt(), "entries": entries}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=1)
            handle.write("\n")
        os.replace(tmp, self.path)
        return len(entries)

    # ------------------------------------------------------------------
    def diff(self, observations: Iterable[
            Tuple[VerifyCase, DelayObservation]]) -> List[GoldenMismatch]:
        """Compare fresh observations bitwise against the stored fixtures.

        Returns one :class:`GoldenMismatch` per missing or changed entry;
        an empty list means every observation matches its fixture
        exactly (canonical-JSON equality).
        """
        entries = self.load()
        mismatches: List[GoldenMismatch] = []
        for case, observation in observations:
            entry = entries.get(entry_key(case, observation.oracle))
            if entry is None:
                mismatches.append(GoldenMismatch(
                    case_id=case.case_id, oracle=observation.oracle,
                    kind="missing",
                    detail="no fixture for this (case, oracle); run "
                           "`repro-verify bless`"))
                continue
            fresh = canonical_json(observation.to_dict())
            stored = canonical_json(entry["observation"])
            if fresh != stored:
                stored_tau = entry["observation"].get("tau")
                mismatches.append(GoldenMismatch(
                    case_id=case.case_id, oracle=observation.oracle,
                    kind="changed",
                    detail=f"tau {stored_tau!r} -> {observation.tau!r} "
                           f"(bitwise canonical-JSON mismatch)"))
        return mismatches
