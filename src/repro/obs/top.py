"""``repro top``: a one-screen text dashboard over a running server.

Fetches one consistent snapshot over HTTP — ``/api/v1/metrics`` from an
inference server, falling back to ``/api/v1/stats`` for a coordinator —
and renders the numbers an operator reaches for first: pool occupancy,
request rate, latency percentiles and reuse fraction for the serving
tier; queue depths and per-owner worker throughput for the coordinator.
``repro top --watch`` redraws in place.

Both scrapes go over one kept-alive connection (the servers' own
:class:`~repro.runner.transport.http_common.KeepAliveClient`).
Percentiles are interpolated from the scraped histogram buckets rather
than fetched, since the servers only export bucket counts, and capped at
the observed max.
"""

from __future__ import annotations

import math
from http.client import HTTPException
from typing import Dict, Optional

from repro.runner.transport.http_common import CorruptReply, KeepAliveClient

DEFAULT_TIMEOUT = 10.0


class TopError(RuntimeError):
    """The target server could not be scraped or was not recognised."""


def _num(mapping, key: str, default: float = 0.0) -> float:
    """A *finite* float plucked from a scraped payload.

    ``json.loads`` accepts ``NaN``/``Infinity``, and a NaN from a
    hostile or half-written reply would poison bar widths, sort orders
    and rate math silently (every NaN comparison is False) — clamp
    anything non-finite or non-numeric to ``default``.
    """
    try:
        value = float(mapping.get(key, default))
    except (TypeError, ValueError):
        return default
    return value if math.isfinite(value) else default


def _fetch_json(client: KeepAliveClient, path: str) -> Dict[str, object]:
    url = client.url + path
    try:
        reply = client.request("GET", path)
    except (OSError, HTTPException) as exc:
        raise TopError(f"cannot reach {url}: {exc}") from exc
    if reply.status == 404:
        raise FileNotFoundError(url)
    if reply.status >= 400:
        raise TopError(f"HTTP {reply.status} from {url}: {reply.error_message()}")
    try:
        return reply.json()
    except (ValueError, CorruptReply) as exc:
        raise TopError(f"non-JSON reply from {url}") from exc


def percentile_from_buckets(
    snapshot: Dict[str, object], quantile: float
) -> float:
    """Estimate a quantile from a cumulative-bucket histogram snapshot.

    Linear interpolation inside the winning bucket (lower edge 0 for the
    first).  Observations past the last bound carry no upper edge, so a
    quantile landing in the overflow region reports the observed max.
    No estimate exceeds the observed ``max_ms``: interpolation runs up
    to the bucket's upper bound, which the bucket's observations may
    all sit well below.
    """
    count = int(snapshot.get("count", 0))
    if count <= 0:
        return 0.0
    peak = _num(snapshot, "max_ms", math.inf)
    target = quantile * count
    previous_bound = 0.0
    previous_cumulative = 0
    for bucket in snapshot.get("buckets", ()):
        cumulative = int(bucket["count"])
        bound = _num(bucket, "le_ms")
        if cumulative >= target:
            in_bucket = cumulative - previous_cumulative
            if in_bucket <= 0:
                return min(bound, peak)
            fraction = (target - previous_cumulative) / in_bucket
            return min(previous_bound + fraction * (bound - previous_bound), peak)
        previous_bound = bound
        previous_cumulative = cumulative
    return _num(snapshot, "max_ms", previous_bound)


def _bar(fraction: float, width: int = 20) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def _fmt_uptime(seconds: float) -> str:
    seconds = int(seconds)
    hours, rem = divmod(seconds, 3600)
    minutes, secs = divmod(rem, 60)
    if hours:
        return f"{hours}h{minutes:02d}m{secs:02d}s"
    if minutes:
        return f"{minutes}m{secs:02d}s"
    return f"{secs}s"


def render_serve(metrics: Dict[str, object]) -> str:
    """The serving-tier dashboard from an ``/api/v1/metrics`` payload."""
    model = metrics.get("model", {})
    scheme = metrics.get("scheme", {})
    inference = metrics.get("inference", {})
    latency = inference.get("latency_ms", {})
    pool = metrics.get("pool", {})
    coalesce = metrics.get("coalesce", {})
    reuse = metrics.get("reuse", {})
    sessions = metrics.get("sessions", {})
    uptime = _num(metrics, "uptime_s")
    requests = int(inference.get("requests", 0))
    rate = requests / uptime if uptime > 0 else 0.0
    replicas = int(pool.get("replicas", 0)) or 1
    busy = int(pool.get("busy", 0))
    reuse_fraction = _num(reuse, "overall_fraction")
    lines = [
        (
            f"serve  {model.get('name', '?')}/{model.get('scale', '?')}"
            f"  scheme v{scheme.get('scheme_version', '?')}"
            f"  theta={scheme.get('theta', '?')}"
            f"  predictor={scheme.get('predictor', '?')}"
            f"  up {_fmt_uptime(uptime)}"
        ),
        (
            f"requests  {requests}  ({rate:.1f} req/s)"
            f"   rows {int(inference.get('rows', 0))}"
        ),
        (
            "latency   "
            f"p50 {percentile_from_buckets(latency, 0.50):.2f} ms"
            f"   p95 {percentile_from_buckets(latency, 0.95):.2f} ms"
            f"   p99 {percentile_from_buckets(latency, 0.99):.2f} ms"
            f"   max {_num(latency, 'max_ms'):.2f} ms"
        ),
        (
            f"pool      {_bar(busy / replicas)} {busy}/{replicas} busy"
            f"   coalesced {int(coalesce.get('coalesced_batches', 0))}"
            f"/{int(coalesce.get('batches', 0))} batches"
        ),
        (
            f"reuse     {_bar(reuse_fraction)} {100.0 * reuse_fraction:.1f}%"
            f"  ({int(reuse.get('total_reused', 0))}"
            f"/{int(reuse.get('total_evaluations', 0))} evals)"
        ),
        (
            f"sessions  open {int(sessions.get('open', 0))}"
            f"   opened {int(sessions.get('opened', 0))}"
            f"   evicted {int(sessions.get('evicted', 0))}"
        ),
    ]
    per_replica = pool.get("per_replica") or []
    if per_replica:
        cells = "  ".join(
            f"r{entry.get('replica')}:{entry.get('requests', 0)}req"
            f"/{100.0 * _num(entry, 'reuse_fraction'):.0f}%"
            for entry in per_replica
        )
        lines.append(f"replicas  {cells}")
    return "\n".join(lines)


def render_coordinator(stats: Dict[str, object]) -> str:
    """The coordinator dashboard from an ``/api/v1/stats`` payload."""
    owners = stats.get("owners") or []
    lines = [
        (
            f"coordinator  pending {int(stats.get('pending', 0))}"
            f"   active {int(stats.get('active', 0))}"
            f"   failed {int(stats.get('failed', 0))}"
            f"   results {int(stats.get('results', 0))}"
            f"   lease_ttl {_num(stats, 'lease_ttl'):.0f}s"
        ),
        f"workers      {len(owners)} active owner(s)",
    ]
    throughput = stats.get("throughput") or {}
    if throughput:
        lines.append("owner                     done  fail   rate/s")
        for owner in sorted(throughput):
            entry = throughput[owner]
            lines.append(
                f"{owner[:24]:<24} {int(entry.get('completed', 0)):>6}"
                f" {int(entry.get('failed', 0)):>5}"
                f" {_num(entry, 'rate_per_s'):>8.2f}"
            )
    elif owners:
        lines.extend(f"  {owner}" for owner in owners)
    return "\n".join(lines)


def run_top(
    url: str, token: Optional[str] = None, timeout: float = DEFAULT_TIMEOUT
) -> str:
    """Scrape ``url`` and render the matching dashboard.

    Tries the serving tier's ``/api/v1/metrics`` first and falls back to
    the coordinator's ``/api/v1/stats`` on 404, so one command works
    against either server.
    """
    client = KeepAliveClient(url, token=token or None, timeout=timeout)
    try:
        try:
            return render_serve(_fetch_json(client, "/api/v1/metrics"))
        except FileNotFoundError:
            pass
        try:
            return render_coordinator(_fetch_json(client, "/api/v1/stats"))
        except FileNotFoundError:
            raise TopError(
                f"{url} answers neither /api/v1/metrics nor /api/v1/stats"
            ) from None
    finally:
        client.close()
