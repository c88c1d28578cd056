"""Table 1 (`tab:eval`): memory usage, Céu vs nesC (§4.6 experiment 1).

Four applications in both languages; ROM/RAM from the structural footprint
models.  The Céu binding runs *on top of* the TinyOS stacks (the paper:
"Céu already runs on top of nesC"), so both sides carry the same
platform-stack costs and the difference isolates the language runtimes —
the mechanism behind the paper's observation that the Céu−nesC gap shrinks
as applications grow.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps import load
from ..baselines.nesc import (NESC_RAM_RADIO, NESC_RAM_SENSOR,
                              NESC_RAM_SERIAL, NESC_ROM_RADIO_STACK,
                              NESC_ROM_SENSOR_STACK, NESC_ROM_SERIAL_STACK,
                              NESC_ROM_TIMER_STACK, BlinkApp, ClientApp,
                              NescApp, SenseApp, ServerApp, nesc_footprint)
from ..codegen.cemit import compile_to_c
from ..codegen.memlayout import TARGET16
from ..codegen.report import ceu_footprint
from ..lang import parse
from ..sema import bind

#: the paper's measured rows (bytes)
PAPER = {
    "Blink":  {"nesc_rom": 2048,  "nesc_ram": 51,
               "ceu_rom": 5882,   "ceu_ram": 168},
    "Sense":  {"nesc_rom": 4366,  "nesc_ram": 84,
               "ceu_rom": 8086,   "ceu_ram": 195},
    "Client": {"nesc_rom": 11838, "nesc_ram": 329,
               "ceu_rom": 15328,  "ceu_ram": 482},
    "Server": {"nesc_rom": 14648, "nesc_ram": 373,
               "ceu_rom": 15686,  "ceu_ram": 443},
}

APPS = ("Blink", "Sense", "Client", "Server")

_NESC_APPS = {"Blink": BlinkApp, "Sense": SenseApp,
              "Client": ClientApp, "Server": ServerApp}
_CEU_SOURCES = {"Blink": "blink", "Sense": "sense",
                "Client": "client", "Server": "server"}


@dataclass(frozen=True, slots=True)
class Row:
    app: str
    nesc_rom: int
    nesc_ram: int
    ceu_rom: int
    ceu_ram: int

    @property
    def diff_rom(self) -> int:
        return self.ceu_rom - self.nesc_rom

    @property
    def diff_ram(self) -> int:
        return self.ceu_ram - self.nesc_ram

    @property
    def rel_rom_overhead(self) -> float:
        return self.diff_rom / self.nesc_rom


def measure_app(name: str) -> Row:
    nesc_app: NescApp = _NESC_APPS[name]()
    nesc_fp = nesc_footprint(nesc_app)

    bound = bind(parse(load(_CEU_SOURCES[name])))
    compiled = compile_to_c(bound, abi=TARGET16, with_main=False, name=name)
    ceu_fp = ceu_footprint(bound, compiled)
    ceu_rom, ceu_ram = ceu_fp.rom, ceu_fp.ram
    # the Céu binding sits on the same TinyOS device stacks
    ceu_rom += NESC_ROM_TIMER_STACK
    if nesc_app.uses_sensor:
        ceu_rom += NESC_ROM_SENSOR_STACK
        ceu_ram += NESC_RAM_SENSOR
    if nesc_app.uses_radio:
        ceu_rom += NESC_ROM_RADIO_STACK
        ceu_ram += NESC_RAM_RADIO
    if nesc_app.uses_serial:
        ceu_rom += NESC_ROM_SERIAL_STACK
        ceu_ram += NESC_RAM_SERIAL
    return Row(name, nesc_fp.rom, nesc_fp.ram, ceu_rom, ceu_ram)


def table1() -> list[Row]:
    return [measure_app(name) for name in APPS]


def render(rows: list[Row]) -> str:
    """The table in the paper's layout, with the paper's numbers inline."""
    lines = [f"{'app':8} {'':6} {'ROM':>12} {'RAM':>10}"]
    for row in rows:
        paper = PAPER[row.app]
        lines.append(f"{row.app:8} nesC   {row.nesc_rom:6d} bytes "
                     f"{row.nesc_ram:4d} bytes   "
                     f"(paper: {paper['nesc_rom']}/{paper['nesc_ram']})")
        lines.append(f"{'':8} Céu    {row.ceu_rom:6d} bytes "
                     f"{row.ceu_ram:4d} bytes   "
                     f"(paper: {paper['ceu_rom']}/{paper['ceu_ram']})")
        lines.append(f"{'':8} diff   {row.diff_rom:6d}       "
                     f"{row.diff_ram:4d}         "
                     f"(paper: {paper['ceu_rom'] - paper['nesc_rom']}/"
                     f"{paper['ceu_ram'] - paper['nesc_ram']})")
    return "\n".join(lines)
