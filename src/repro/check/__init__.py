"""repro.check — artifact integrity and invariant verification.

Three layers of defense for every artifact the toolflow produces:

* :mod:`repro.check.artifacts` — one versioned, checksummed JSON
  envelope shared by strategy files, partition plans and the codegen
  strategy blob, with atomic saves, a pre-envelope reader for bare
  payloads and load errors that always name an error code plus the JSON
  path of the offending field.
* :mod:`repro.check.invariants` — structural validators
  (:func:`verify_strategy`, :func:`verify_plan`,
  :func:`verify_fleet_config`) returning structured violation reports;
  the toolflow runs them at admission time before serving traffic.
* :mod:`repro.check.consistency` — cross-model checks (analytic cost vs
  simulator, simulator vs the functional reference, DP vs the
  exhaustive oracle) behind ``repro check`` / ``repro doctor``.
* :mod:`repro.check.durability` — the kill-point torture harness:
  forked children hard-killed at every registered crash point, then
  verified, recovered and digest-compared against an uninterrupted run
  (``repro torture``; see ``docs/durability.md``).
"""

from repro.check.artifacts import (
    ENVELOPE_VERSION,
    Envelope,
    atomic_write_text,
    device_digest,
    load_envelope,
    network_digest,
    parse_envelope,
    payload_sha256,
    save_artifact,
    wrap_payload,
)
from repro.check.durability import (
    TortureReport,
    durability_probe,
    run_chaos_sweep,
    run_kill_point_matrix,
)
from repro.check.invariants import (
    VerificationReport,
    Violation,
    verify_fleet_config,
    verify_graph_strategy,
    verify_plan,
    verify_strategy,
)

__all__ = [
    "ENVELOPE_VERSION",
    "Envelope",
    "TortureReport",
    "VerificationReport",
    "Violation",
    "atomic_write_text",
    "device_digest",
    "durability_probe",
    "load_envelope",
    "network_digest",
    "parse_envelope",
    "payload_sha256",
    "run_chaos_sweep",
    "run_kill_point_matrix",
    "save_artifact",
    "verify_fleet_config",
    "verify_graph_strategy",
    "verify_plan",
    "verify_strategy",
    "wrap_payload",
]
