"""Thin client for the sweep service (see :mod:`repro.service.server`).

Speaks the service's JSON API over :mod:`urllib.request`, so any consumer
(CI, a notebook, another service) can submit sweeps::

    from repro.service.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8731", token="s3cret")
    result = client.run("examples/specs/fig3_quick.json")  # submit + wait
    print(result["rendered"])            # byte-identical to `runner --spec`
    print(client.stats()["coalesced"])   # service-side observability

A 429 (queue full) from :meth:`~ServiceClient.submit` is retried
automatically, honoring the server's ``Retry-After`` hint, until
``busy_timeout`` runs out — backpressure slows a client down instead of
failing it.

Transport failures are *classified*, not treated uniformly: connection
reset/refused/aborted, timeouts, and HTTP 429/503 mark the resulting
:class:`ServiceError` ``retryable`` (and retryable non-429 errors are
retried in-client under a bounded :class:`repro.chaos.RetryPolicy`,
honoring ``Retry-After``); everything else — bad requests, auth failures,
DNS errors, job errors — is fatal and surfaces immediately.
When a :mod:`repro.obs` tracer is armed, every request carries the current
span as an ``X-Repro-Trace`` header, so a server-side job is parented into
the caller's trace and its spans come back on the result payload.
"""

from __future__ import annotations

import http.client
import json
import os
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.api.spec import spec_kind_of
from repro.chaos.engine import chaos_hook
from repro.chaos.errors import InjectedFault, is_retryable
from repro.chaos.retry import RetryPolicy
from repro.obs.trace import TRACE_HEADER, format_trace_header, trace_wire

__all__ = ["ServiceClient", "ServiceError"]

# Client-side transport retries: small and bounded — the coordinator and
# submit()'s busy_timeout loop layer their own policies on top.
DEFAULT_CLIENT_RETRY = RetryPolicy(attempts=3, backoff=0.1, max_backoff=2.0)


class ServiceError(RuntimeError):
    """An HTTP-level or job-level failure, carrying the server's payload.

    ``retry_after`` is set (seconds) when the server sent a ``Retry-After``
    hint, i.e. on 429 queue-full responses. ``retryable`` classifies the
    failure: transient transport faults (connection reset/refused, timeouts)
    and backpressure statuses (429, 503) are retryable; everything else —
    bad requests, auth failures, job errors — is fatal.
    """

    def __init__(self, message: str, status: int | None = None, payload=None,
                 retry_after: float | None = None, retryable: bool = False):
        super().__init__(message)
        self.status = status
        self.payload = payload
        self.retry_after = retry_after
        self.retryable = retryable


# HTTP statuses that signal a transient server condition.
_RETRYABLE_STATUSES = (429, 503)


def _as_spec_dict(spec) -> dict:
    """A request body from a spec object, dict, JSON string, or file path."""
    if hasattr(spec, "to_dict"):
        return spec.to_dict()
    if isinstance(spec, dict):
        return spec
    if isinstance(spec, (str, Path)):
        text = str(spec)
        if text.lstrip()[:1] != "{":
            text = Path(spec).read_text()
        return json.loads(text)
    raise TypeError(f"cannot build a spec body from {type(spec).__name__}")


class ServiceClient:
    """See module docstring.

    ``timeout`` bounds each HTTP round trip (long-poll requests add their
    wait on top); job-completion timeouts are per call (:meth:`result`).
    ``token`` (default: the ``REPRO_SERVICE_TOKEN`` environment variable)
    is sent as ``Authorization: Bearer <token>`` on every request.
    """

    def __init__(self, url: str, timeout: float = 30.0,
                 token: str | None = None, retry: RetryPolicy | None = None):
        self.url = url.rstrip("/")
        self.timeout = timeout
        if token is None:
            token = os.environ.get("REPRO_SERVICE_TOKEN") or None
        self.token = token
        self.retry = DEFAULT_CLIENT_RETRY if retry is None else retry

    # -- transport ---------------------------------------------------------

    def _request_once(self, method: str, path: str, payload=None,
                      timeout: float | None = None) -> dict:
        """One HTTP round trip, with the failure classified (see
        :class:`ServiceError`). The ``client.request`` chaos hook fires
        before the wire so injected resets exercise the real retry path."""
        try:
            chaos_hook("client.request", method=method, path=path)
        except InjectedFault as exc:
            raise ServiceError(f"{method} {path} to {self.url} failed: {exc}",
                               retryable=True) from exc
        body = None if payload is None else (json.dumps(payload) + "\n").encode()
        headers = {"Content-Type": "application/json"} if body else {}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        wire = trace_wire()  # None unless a tracer is armed with an open span
        if wire is not None:
            # re-read per attempt, so a retried request still carries the
            # caller's current span as the remote parent
            headers[TRACE_HEADER] = format_trace_header(wire)
        req = urllib.request.Request(
            self.url + path, data=body, method=method, headers=headers,
        )
        try:
            with urllib.request.urlopen(req, timeout=timeout or self.timeout) as resp:
                return json.loads(resp.read().decode())
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode())
            except Exception:
                detail = None
            message = (detail or {}).get("error", str(exc))
            try:
                retry_after = float(exc.headers.get("Retry-After"))
            except (TypeError, ValueError):
                retry_after = None
            raise ServiceError(message, status=exc.code, payload=detail,
                               retry_after=retry_after,
                               retryable=exc.code in _RETRYABLE_STATUSES) from exc
        except urllib.error.URLError as exc:
            # classify on the underlying reason: reset/refused/timeout are
            # transient; DNS failures, bad schemes etc. are fatal
            reason = exc.reason
            retryable = isinstance(reason, BaseException) and is_retryable(reason)
            raise ServiceError(f"cannot reach service at {self.url}: "
                               f"{reason}", retryable=retryable) from exc
        except (OSError, http.client.HTTPException) as exc:
            # a connection die mid-request (e.g. the server was killed)
            # surfaces as RemoteDisconnected/ConnectionResetError, not
            # URLError — same transport failure, same exception type here
            raise ServiceError(f"connection to {self.url} failed: {exc!r}",
                               retryable=is_retryable(exc)) from exc

    def _request(self, method: str, path: str, payload=None,
                 timeout: float | None = None, retry: bool = True) -> dict:
        """:meth:`_request_once` under the client's :class:`RetryPolicy`.

        Only *retryable* failures are retried (a ``Retry-After`` hint
        stretches the backoff delay). 429 is deliberately excluded — queue
        backpressure belongs to :meth:`submit`'s ``busy_timeout`` loop, so
        retrying it here would double-count the wait.
        """
        delays = self.retry.delays() if retry else iter(())
        while True:
            try:
                return self._request_once(method, path, payload, timeout)
            except ServiceError as exc:
                if not exc.retryable or exc.status == 429:
                    raise
                delay = next(delays, None)
                if delay is None:
                    raise
                if exc.retry_after is not None:
                    delay = max(delay, exc.retry_after)
                time.sleep(delay)

    # -- the API -----------------------------------------------------------

    def submit(self, spec, kind: str | None = None,
               busy_timeout: float = 60.0) -> dict:
        """POST a spec; returns the job ticket (``job``/``status``/
        ``coalesced``/``fingerprint``). ``kind`` is auto-detected from the
        spec body unless given.

        A 429 (queue full) is retried after the server's ``Retry-After``
        hint until ``busy_timeout`` elapses, then re-raised.
        """
        spec_dict = _as_spec_dict(spec)
        kind = kind or spec_kind_of(spec_dict)
        deadline = time.monotonic() + busy_timeout
        while True:
            try:
                return self._request("POST", f"/v1/{kind}", spec_dict)
            except ServiceError as exc:
                if exc.status != 429:
                    raise
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise
                time.sleep(min(max(exc.retry_after or 1.0, 0.05), remaining))

    def job(self, job_id: str, wait: float = 0.0) -> dict:
        """GET one job's status (``wait`` long-polls server-side)."""
        suffix = f"?wait={wait:g}" if wait > 0 else ""
        return self._request("GET", f"/v1/jobs/{job_id}{suffix}",
                             timeout=self.timeout + wait)

    def result(self, job_id: str, timeout: float = 600.0) -> dict:
        """Long-poll a job to completion and return its ``result`` payload
        (raises :class:`ServiceError` on job failure or timeout)."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(f"job {job_id!r} did not finish in {timeout}s")
            job = self.job(job_id, wait=min(remaining, 10.0))
            if job["status"] == "done":
                return job["result"]
            if job["status"] == "error":
                raise ServiceError(f"job {job_id!r} failed: {job.get('error')}",
                                   payload=job)

    def run(self, spec, kind: str | None = None, timeout: float = 600.0) -> dict:
        """Submit + wait: the one-call client path (``runner --submit``)."""
        ticket = self.submit(spec, kind=kind)
        return self.result(ticket["job"], timeout=timeout)

    def health(self) -> dict:
        """GET /v1/healthz — liveness without auth (the one open endpoint).

        Single attempt, no retries: health probes want an honest answer
        *now* (the fleet's circuit breaker owns the when-to-retry logic).
        """
        return self._request("GET", "/v1/healthz", retry=False)

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def shutdown(self) -> dict:
        """Ask the service to stop; returns its final stats snapshot.

        Single attempt: re-POSTing a shutdown whose response was lost would
        just hammer an already-dying server.
        """
        return self._request("POST", "/v1/shutdown", retry=False)
