"""single-ingest-path: only the user manager writes fixes to the tracking store.

The streaming engine is the one source of mobility models, and it learns
of a fix only through the fix listeners ``UserManager`` runs on ingest.
A direct ``TrackingStore.add_fix``/``add_fixes`` call anywhere else stores
a fix the engine never sees: the served model silently misses that drive
while compaction prunes it from the raw history.  So those calls may
appear in ``users/management.py`` only.

The check is syntactic.  A call to a method named ``add_fix`` or
``add_fixes`` counts as a tracking-store write unless its receiver is
provably something else:

* a receiver whose last name mentions ``sessionizer`` (the streaming
  engine feeding ``TripSessionizer.add_fix``);
* ``self`` inside a class that defines the method itself (the store's own
  ``add_fixes`` looping over ``add_fix``, the sessionizer's batch form).

A bare ``add_fix(...)`` call (a bound method bound to a local name) is
reported too: the alias hides the receiver.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import SEVERITY_ERROR, Finding, Rule

#: The one module allowed to write fixes (relpath suffix).
INGEST_MODULE = "users/management.py"

#: The tracking-store write methods.
WRITE_METHODS = ("add_fix", "add_fixes")


def _own_method(module, scope: str, method: str) -> bool:
    owner = module.classes.get(scope.split(".", 1)[0])
    return owner is not None and method in owner.methods


def check(project) -> Iterator[Finding]:
    for module in project.modules:
        if module.relpath.endswith(INGEST_MODULE):
            continue
        for call in module.calls:
            receiver, _, method = call.callee.rpartition(".")
            if method not in WRITE_METHODS:
                continue
            if "sessionizer" in receiver.rsplit(".", 1)[-1].lower():
                continue
            if receiver == "self" and _own_method(module, call.scope, method):
                continue
            yield RULE.finding(
                path=module.relpath,
                line=call.line,
                message=(
                    f"{call.callee}(...) in {call.scope} writes fixes outside "
                    f"{INGEST_MODULE} — ingest through UserManager.ingest_fix"
                    f"/ingest_fixes so the streaming engine sees every fix"
                ),
                key=f"direct-write:{call.scope}:{method}",
            )


RULE = Rule(
    name="single-ingest-path",
    severity=SEVERITY_ERROR,
    summary=(
        "TrackingStore.add_fix/add_fixes are called from users/management.py "
        "only, so every stored fix reaches the streaming engine"
    ),
    check=check,
)
