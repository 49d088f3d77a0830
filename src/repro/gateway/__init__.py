"""Front-door gateway tier: admission, rate limiting and batching in
front of a system's run driver, and the end-to-end latency report over
its per-transaction records (experiment family E22)."""

from repro.gateway.core import (
    RETRYABLE_REASONS,
    SHED_REASONS,
    AdmissionDecision,
    Gateway,
    GatewayConfig,
    TokenBucket,
)
from repro.gateway.ledger import LatencyReport, fingerprint, latency_report
from repro.gateway.run import GatewayReport, GatewayRun

__all__ = [
    "RETRYABLE_REASONS",
    "SHED_REASONS",
    "AdmissionDecision",
    "Gateway",
    "GatewayConfig",
    "GatewayReport",
    "GatewayRun",
    "LatencyReport",
    "TokenBucket",
    "fingerprint",
    "latency_report",
]
