"""The ``verify`` engine job: one (case, oracle) evaluation.

Running each (case, oracle) pair as an engine job gives the verification
layer everything the batch engine already guarantees — submission-order
determinism, per-job fault isolation, process-pool parallelism and
content-addressed caching — without a parallel execution path.
``repro-verify`` builds these jobs itself; a ``repro-batch`` manifest
has no ``verify`` kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict

from .cases import VerifyCase


@dataclass(frozen=True)
class VerifyJob:
    """Evaluate one verification case with one named oracle."""

    kind: ClassVar[str] = "verify"

    case: VerifyCase
    oracle: str

    def canonical(self) -> Dict[str, Any]:
        return {"kind": self.kind, "case": self.case.canonical(),
                "oracle": self.oracle}

    def run(self) -> Dict[str, Any]:
        from .oracles import evaluate

        return evaluate(self.case, self.oracle).to_dict()

    def summary(self, result: Dict[str, Any]) -> str:
        return (f"{result['oracle']}: tau={result['tau']:.6g}s "
                f"f={result['threshold']:g} ({result['damping']})")
