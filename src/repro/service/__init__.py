"""Multi-tenant query service over the MVCC snapshot layer.

``python -m repro serve`` hosts one corpus (a named multi-model query
instance, see :func:`~repro.service.corpus.corpus_query`) behind a
line-JSON protocol (one JSON object per ``\\n``-terminated line, over
TCP or stdin). The moving parts:

* :class:`~repro.service.server.ReproService` — the asyncio server. One
  *master* :class:`~repro.updates.session.QuerySession` is the only
  copy of the corpus; a client session is a tenant-scoped set of
  snapshots pinned on it. Each update batch is applied to the master
  inside its own request, in one synchronous step — so a pin always
  lands on a batch boundary and no snapshot ever observes a torn batch.
* :class:`~repro.service.tenancy.SessionManager` — per-tenant session
  and snapshot accounting against a :class:`~repro.service.tenancy.
  TenantQuota` (``quota`` errors, never silent eviction of another
  tenant's state).
* **the held plan** — the adaptive planner's one plan, shared by every
  tenant and re-planned only when the planner's drift epoch moves;
  beside it, while the version is current, its prepared read.
* **snapshot reads** — ``pin`` takes an MVCC snapshot
  (:mod:`repro.mvcc`) of the corpus; ``query`` against it is answered at
  the pinned version vector no matter how many batches have landed
  since (a ``query`` naming no snapshot pins one for the request). Pins
  of several tenants on one version share its one document clone. Every
  query is evaluated on the event loop over the pinned inputs: the live
  objects while the version is current, the retained clone once a
  batch has superseded it — a read never copies the corpus.

See ``docs/service.md`` for the protocol reference and lifecycle rules.
"""

from repro.service.client import ServiceClient
from repro.service.corpus import available_corpora, corpus_query
from repro.service.server import ReproService
from repro.service.tenancy import SessionManager, TenantQuota

__all__ = [
    "ReproService",
    "ServiceClient",
    "SessionManager",
    "TenantQuota",
    "available_corpora",
    "corpus_query",
]
