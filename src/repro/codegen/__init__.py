"""Code generation: static memory layout (§4.2), gate allocation (§4.3),
C emission (§4.4-4.5) and the ROM/RAM footprint model (§4.6).

Public names resolve on first access, so the layout and gate table do
not load the C emitter."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".cemit": ("compile_to_c", "CompiledC", "UnsupportedForC"),
    ".gates": ("build_gates", "GateTable", "Gate"),
    ".memlayout": ("build_layout", "MemLayout", "TargetABI", "TARGET16",
                   "HOST"),
    ".report": ("ceu_footprint", "Footprint", "CEU_ROM_KERNEL",
                "CEU_RAM_KERNEL"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
