"""“Special Apps” detection (paper Section IV-C2, Fig. 5).

A Special App is one "used at least once along with network activities".
Tracking only these apps lets the real-time adjustment layer detect
meaningful user interactions cheaply: in the paper's traces just 8 of the
23 installed apps qualify, and the top one (weChat) covers 59% of usage.

Newly-installed (never-before-seen) apps are conservatively treated as
special to avoid false radio denials — the registry therefore remembers
which apps it has *seen* at all, not just which qualified.

A fitted :class:`~repro.habits.prediction.HabitModel` carries the
registry of its history (``HabitModel.fit(history).special_apps``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.traces.store import TraceStore


@dataclass
class SpecialAppRegistry:
    """Registry of Special Apps with conservative unknown-app handling."""

    special: set[str] = field(default_factory=set)
    seen: set[str] = field(default_factory=set)
    usage_counts: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    @classmethod
    def from_store(cls, store: TraceStore) -> "SpecialAppRegistry":
        """Fit from the monitoring component's database."""
        used = set(store.app_usage_counts())
        networked = set(store.app_network_counts())
        return cls(
            special=used & networked,
            seen=store.apps_seen(),
            usage_counts=store.app_usage_counts(),
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_special(self, app: str) -> bool:
        """Whether ``app`` gets the radio on demand.

        Known non-special apps are denied; unknown (newly installed) apps
        are allowed, per the paper's "recognize it as Special Apps to
        avoid making false operation" rule.
        """
        if app not in self.seen:
            return True
        return app in self.special

    def usage_share(self) -> dict[str, float]:
        """Fraction of all foreground usage per special app (Fig. 5)."""
        total = sum(
            count for app, count in self.usage_counts.items() if app in self.special
        )
        if total == 0:
            return {}
        return {
            app: self.usage_counts.get(app, 0) / total
            for app in sorted(self.special)
        }

    def dominant_app(self) -> tuple[str, float] | None:
        """The most-used special app and its usage share, if any."""
        share = self.usage_share()
        if not share:
            return None
        app = max(share, key=share.__getitem__)
        return app, share[app]
