"""Reference VM: the executable semantics of Céu (§2), exposed through the
paper's `ceu_go_*` API (§4.5) plus a high-level `Program` facade.

Public names resolve on first access, so ``import repro.runtime`` loads
neither the farm nor checkpoints until they are used."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".program": ("Program", "parse_time"),
    ".scheduler": ("Scheduler", "RUNNING", "TERMINATED"),
    ".cenv": ("CEnv", "CAssertionError", "Rand"),
    ".trace": ("Trace", "Reaction", "Step"),
    ".values": ("Ref", "CellRef", "ItemRef", "FuncRef"),
    ".farm": ("Farm", "Instance"),
    ".checkpoint": ("Checkpoint", "CheckpointError", "PostmortemBundle",
                    "snapshot", "snapshot_crash", "restore",
                    "write_postmortem", "load_postmortem",
                    "list_postmortems"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
