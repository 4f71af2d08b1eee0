"""Thin urllib client for the serving HTTP API.

Used by the tests, the serving benchmark, and scripts that want to query a
running ``repro serve`` without hand-rolling HTTP.  Single dependency-free
file; the only non-stdlib import is NumPy for the array convenience.

Reliability: the client can carry a per-request deadline (sent as the
``X-Deadline-Ms`` header, honoured server-side all the way into the
micro-batcher wait) and an optional
:class:`~repro.reliability.policies.RetryPolicy` that retries transient
failures — connection errors and 503s, honouring the server's
``Retry-After`` hint — without ever outliving the deadline.  ``/predict``
is a pure function of its body, so retrying the POST is safe — but only
when the failure struck *before* any response bytes arrived.  A
connection that dies mid-response (the server was killed while writing)
raises :class:`TruncatedResponseError` instead, which is never retried:
the server demonstrably accepted and processed the request, so replaying
it would double-count observations and metrics on whatever replaces it.
"""

from __future__ import annotations

import json
import uuid
from typing import Dict, List, Optional, Sequence, Union
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

import numpy as np

from ..observability.trace import NOOP_SPAN, REQUEST_ID_HEADER, Tracer
from ..reliability.policies import Deadline, RetryPolicy
from ..workload.service import INPUT_NAMES, OUTPUT_NAMES

__all__ = ["ServingError", "TruncatedResponseError", "ServingClient"]

#: HTTP statuses worth retrying: the server said "try again later".
_RETRYABLE_STATUSES = frozenset({503})


class ServingError(Exception):
    """An HTTP-level failure reported by the server."""

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[float] = None,
        request_id: Optional[str] = None,
    ):
        text = f"HTTP {status}: {message}"
        if request_id:
            text += f" (request {request_id})"
        super().__init__(text)
        self.status = status
        self.message = message
        #: Server-suggested backoff (seconds) from the Retry-After header.
        self.retry_after = retry_after
        #: The ``X-Request-Id`` of the failed request — quote it when
        #: filing a report; the server logged the same id.
        self.request_id = request_id


class TruncatedResponseError(OSError):
    """The connection died *after* response bytes had been received.

    Distinct from a plain connection error on purpose: the server got the
    request, executed it, and started answering — only the tail of the
    response was lost.  Retrying would re-execute a request the server
    already served, so the retry policy must not treat this as transient.
    """

    def __init__(self, message: str, request_id: Optional[str] = None):
        if request_id:
            message += f" (request {request_id})"
        super().__init__(message)
        self.request_id = request_id


def _is_retryable(exc: BaseException) -> bool:
    if isinstance(exc, ServingError):
        return exc.status in _RETRYABLE_STATUSES
    if isinstance(exc, TruncatedResponseError):
        # Response bytes arrived: the server side effects already
        # happened, so this failure is not safely replayable.
        return False
    return isinstance(exc, (URLError, ConnectionError, TimeoutError))


class ServingClient:
    """Talk to one ``repro serve`` endpoint.

    Parameters
    ----------
    base_url:
        e.g. ``"http://127.0.0.1:8700"`` (no trailing slash needed).
    timeout:
        Socket timeout (seconds) for every call; also the default
        per-request deadline budget.
    retry:
        Optional :class:`~repro.reliability.policies.RetryPolicy` applied
        to every request (503s and connection errors are retried; 4xx
        never are).
    send_deadline:
        Attach ``X-Deadline-Ms`` to ``/predict`` calls so the server can
        abandon work the client has already given up on.
    tracer:
        Optional :class:`~repro.observability.trace.Tracer`.  Each
        logical request then opens a ``client.request`` span, each retry
        attempt a ``client.attempt`` child, and the trace context rides
        the ``X-Trace-Id`` / ``X-Parent-Span-Id`` headers so the server's
        spans join the same trace.  Every request also carries a fresh
        ``X-Request-Id`` (tracer or not), echoed by the server and
        attached to any raised :class:`ServingError`.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        retry: Optional[RetryPolicy] = None,
        send_deadline: bool = True,
        tracer: Optional[Tracer] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.retry = retry
        self.send_deadline = bool(send_deadline)
        self.tracer = tracer

    # ------------------------------------------------------------------

    def predict(
        self,
        model: str,
        config: Union[Dict[str, float], Sequence[float]],
        deadline_s: Optional[float] = None,
    ) -> Dict[str, float]:
        """Predict one configuration; returns ``{indicator: value}``."""
        body = {"model": model, "config": self._as_config(config)}
        return self._post_json("/predict", body, deadline_s)["prediction"]

    def predict_detailed(
        self,
        model: str,
        config: Union[Dict[str, float], Sequence[float]],
        deadline_s: Optional[float] = None,
    ) -> dict:
        """Like :meth:`predict` but returns the full response body —
        including the ``degraded`` flag and answer ``source``."""
        body = {"model": model, "config": self._as_config(config)}
        return self._post_json("/predict", body, deadline_s)

    def predict_many(
        self,
        model: str,
        configs: Sequence[Union[Dict[str, float], Sequence[float]]],
        deadline_s: Optional[float] = None,
    ) -> np.ndarray:
        """Predict many configurations; returns an ``(n, 5)`` array."""
        body = {
            "model": model,
            "configs": [self._as_config(c) for c in configs],
        }
        payload = self._post_json("/predict", body, deadline_s)
        return np.array(
            [[p[name] for name in OUTPUT_NAMES] for p in payload["predictions"]],
            dtype=float,
        )

    def recommend(
        self,
        model: str,
        objective: Optional[dict] = None,
        budget: Optional[int] = None,
        seed: int = 0,
        deadline_s: Optional[float] = None,
    ) -> dict:
        """Ask ``POST /recommend`` for the best configuration.

        ``objective`` is the :class:`~repro.tuning.objectives.Objective`
        wire form (``None`` means maximize ``effective_tps``).  Returns
        the full recommendation body: ``config``, ``predicted``,
        ``score``, ``feasible``, ``rationale``, and search accounting.
        Like ``/predict``, the call is a pure function of its body, so
        the retry policy applies safely.
        """
        body: dict = {"model": model, "seed": int(seed)}
        if objective is not None:
            body["objective"] = objective
        if budget is not None:
            body["budget"] = int(budget)
        return self._post_json("/recommend", body, deadline_s)

    def recommendations(self, limit: int = 20) -> dict:
        """Recent recommendations, standing objectives, cache stats."""
        return self._get_json(f"/recommendations?limit={int(limit)}")

    def models(self) -> List[str]:
        """Model names the server can answer for."""
        return self._get_json("/models")["models"]

    def healthz(self) -> bool:
        """Whether the server can still answer (healthy *or* degraded)."""
        try:
            return self._get_json("/healthz").get("status") in (
                "ok", "healthy", "degraded",
            )
        except (ServingError, URLError, OSError):
            return False

    def health(self) -> dict:
        """The full ``/healthz`` payload (status, breakers, fallbacks)."""
        try:
            return self._get_json("/healthz")
        except ServingError as exc:
            try:
                return json.loads(exc.message)
            except (json.JSONDecodeError, TypeError):
                raise exc from None

    def metrics(self) -> dict:
        """The metrics snapshot as a dict."""
        return self._get_json("/metrics?format=json")

    def metrics_text(self) -> str:
        """The Prometheus text exposition."""
        return self._request("GET", "/metrics").decode()

    # ------------------------------------------------------------------

    @staticmethod
    def _as_config(
        config: Union[Dict[str, float], Sequence[float]]
    ) -> Dict[str, float]:
        if isinstance(config, dict):
            # Pass through untouched: field validation is the server's job,
            # and coercing here would mask its 400 messages.
            return dict(config)
        values = list(config)
        if len(values) != len(INPUT_NAMES):
            raise ValueError(
                f"expected {len(INPUT_NAMES)} values in {INPUT_NAMES} "
                f"order, got {len(values)}"
            )
        return {name: float(v) for name, v in zip(INPUT_NAMES, values)}

    def _get_json(self, path: str) -> dict:
        return json.loads(self._request("GET", path))

    def _post_json(
        self, path: str, body: dict, deadline_s: Optional[float] = None
    ) -> dict:
        data = json.dumps(body).encode()
        deadline = None
        if self.send_deadline:
            budget = self.timeout if deadline_s is None else float(deadline_s)
            deadline = Deadline(budget)
        return json.loads(
            self._request(
                "POST", path, data=data,
                headers={"Content-Type": "application/json"},
                deadline=deadline,
            )
        )

    def _request(
        self,
        method: str,
        path: str,
        data: Optional[bytes] = None,
        headers: Optional[dict] = None,
        deadline: Optional[Deadline] = None,
    ) -> bytes:
        # One id per *logical* request: every retry attempt resends it, so
        # the server logs N entries joinable to this one client call.
        request_id = uuid.uuid4().hex[:16]

        def attempt() -> bytes:
            request_headers = dict(headers or {})
            request_headers[REQUEST_ID_HEADER] = request_id
            if self.tracer is not None:
                # The active span here is the per-attempt span (when a
                # retry policy opened one) or the outer request span.
                active = self.tracer.current_span()
                if active is None or not active.trace_id:
                    active = outer
                self.tracer.inject_context(active, request_headers)
            timeout = self.timeout
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= 0:
                    raise ServingError(
                        504, "client deadline exhausted",
                        request_id=request_id,
                    )
                request_headers["X-Deadline-Ms"] = str(
                    max(1, int(remaining * 1000))
                )
                timeout = deadline.clamp(timeout)
            request = Request(
                self.base_url + path,
                data=data,
                headers=request_headers,
                method=method,
            )
            response_started = False
            try:
                with urlopen(request, timeout=timeout) as response:
                    # urlopen returning means the status line and headers
                    # were received — from here on, a dead connection is a
                    # truncated response, not a failed request.
                    response_started = True
                    return response.read()
            except HTTPError as exc:
                raw = exc.read()
                try:
                    message = json.loads(raw).get("error", raw.decode())
                except (json.JSONDecodeError, UnicodeDecodeError):
                    message = raw.decode(errors="replace")
                retry_after = None
                raw_hint = exc.headers.get("Retry-After")
                if raw_hint is not None:
                    try:
                        retry_after = float(raw_hint)
                    except ValueError:
                        retry_after = None
                raise ServingError(
                    exc.code, message, retry_after, request_id=request_id
                ) from None
            except Exception as exc:
                if response_started:
                    raise TruncatedResponseError(
                        f"connection lost mid-response on {method} {path}: "
                        f"{type(exc).__name__}: {exc}",
                        request_id=request_id,
                    ) from exc
                if deadline is not None and deadline.expired:
                    # The socket timeout was the rest of the deadline, so
                    # the server's own 504 can lose the race to it.
                    raise ServingError(
                        504, "client deadline exhausted",
                        request_id=request_id,
                    ) from exc
                raise

        outer = (
            self.tracer.start_span(
                "client.request",
                attributes={
                    "method": method,
                    "path": path,
                    "request_id": request_id,
                },
            )
            if self.tracer is not None
            else NOOP_SPAN
        )
        with outer:
            if self.retry is None:
                return attempt()
            return self.retry.call(
                attempt,
                deadline=deadline,
                retry_on=_is_retryable,
                tracer=self.tracer,
                span_name="client.attempt",
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServingClient({self.base_url!r})"
