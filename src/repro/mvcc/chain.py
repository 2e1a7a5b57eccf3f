"""Per-resource version chains: pin counts + retained artifacts.

A :class:`VersionChain` tracks one versioned resource (one relational
input, or one document). Snapshots pin the resource at its current
version; the writer, before superseding a pinned version, *retains* the
frozen artifact for that version in the chain. Retained artifacts stay
resident while any pin at their version is live and are reclaimed —
through an optional ``reclaim`` hook, for what reference counting
alone would not free — as soon as the last pin goes (the chain's
watermark advancing past them).

Pins only ever land on the resource's *current* version, so a retained
version whose pin count hits zero can never be pinned again: reclaiming
every unpinned retained entry is exactly "reclaim below the watermark".
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import SnapshotError


class VersionChain:
    """Pin counts and retained artifacts for one versioned resource."""

    __slots__ = ("label", "_reclaim", "_pins", "_retained")

    def __init__(self, label: str, *,
                 reclaim: Callable[[Any], None] | None = None):
        self.label = label
        self._reclaim = reclaim
        #: version -> live pin count.
        self._pins: dict[int, int] = {}
        #: version -> frozen artifact (present only once superseded
        #: while pinned; the live object serves unsuperseded pins).
        self._retained: dict[int, Any] = {}

    # -- pinning -----------------------------------------------------------

    def pin(self, version: int) -> int:
        """Add one pin at *version*; returns the new pin count there."""
        count = self._pins.get(version, 0) + 1
        self._pins[version] = count
        return count

    def release(self, version: int) -> None:
        """Drop one pin at *version* and reclaim newly-unpinned artifacts."""
        count = self._pins.get(version)
        if count is None:
            raise SnapshotError(
                f"version chain {self.label!r}: release of version "
                f"{version} which holds no pin")
        if count == 1:
            del self._pins[version]
        else:
            self._pins[version] = count - 1
        self.reclaim_unpinned()

    def pinned(self, version: int) -> bool:
        """True while at least one snapshot pins *version*."""
        return version in self._pins

    def pin_count(self) -> int:
        """Total live pins across all versions of this resource."""
        return sum(self._pins.values())

    def watermark(self) -> int | None:
        """The oldest pinned version (None when nothing is pinned).

        Everything below the watermark is reclaimable; the chain
        reclaims eagerly on :meth:`release`, so retained versions are
        always >= the watermark.
        """
        return min(self._pins) if self._pins else None

    # -- retention ---------------------------------------------------------

    def retain(self, version: int, artifact: Any) -> Any:
        """Preserve *artifact* as the frozen state at *version*.

        Called by the write path immediately before it supersedes a
        pinned version. The first retention wins — a second writer-side
        preservation of the same version is a no-op, so double hooks
        never clone twice.
        """
        return self._retained.setdefault(version, artifact)

    def artifact(self, version: int) -> Any | None:
        """The retained artifact at *version* (None if never preserved —
        either the version is still live or it was never pinned)."""
        return self._retained.get(version)

    def retained_versions(self) -> tuple[int, ...]:
        """The versions currently holding retained artifacts (sorted)."""
        return tuple(sorted(self._retained))

    def reclaim_unpinned(self) -> None:
        """Drop every retained artifact whose version holds no pin.

        Runs the ``reclaim`` hook per dropped artifact, so what it holds
        is released now rather than at the next collection.
        """
        for version in sorted(self._retained):
            if version not in self._pins:
                artifact = self._retained.pop(version)
                if self._reclaim is not None:
                    self._reclaim(artifact)

    def __repr__(self) -> str:
        return (f"VersionChain({self.label!r}, {self.pin_count()} pins, "
                f"{len(self._retained)} retained)")
