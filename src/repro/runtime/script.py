"""Event scripts: the stimulus format shared by ``repro run --inputs``,
``why``, ``debug``, ``farm --workload``, lint witnesses, the fuzz driver
and the generated C driver.

One stimulus per line — ``E NAME [VALUE]`` delivers an external event,
``T US`` advances absolute time to ``US`` microseconds.  In memory a
script is a list of ``("E", name, value)`` and ``("T", us)`` tuples.
"""

from __future__ import annotations


class ScriptError(ValueError):
    """A malformed script line; renders as ``file:line: message``."""

    def __init__(self, message: str, line: int, filename: str = "<script>"):
        self.line = line
        self.filename = filename
        super().__init__(f"{filename}:{line}: {message}")


def script_text(script: list[tuple]) -> str:
    """Render a script in the C driver's ``E name val`` / ``T us`` form."""
    out = []
    for item in script:
        if item[0] == "E":
            if item[2] is None:      # void event: no payload column
                out.append(f"E {item[1]}")
            else:
                out.append(f"E {item[1]} {item[2]}")
        else:
            out.append(f"T {item[1]}")
    return "\n".join(out) + "\n"


def parse_script_text(text: str, filename: str = "<script>") -> list[tuple]:
    """Inverse of :func:`script_text`; blank lines and ``#`` comments are
    skipped.  Raises :class:`ScriptError` naming the first bad line."""
    script: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "E" and len(parts) in (2, 3):
            value = _int(parts[2], "event value", lineno, filename) \
                if len(parts) == 3 else 0
            script.append(("E", parts[1], value))
        elif parts[0] == "T" and len(parts) == 2:
            script.append(("T", _int(parts[1], "time", lineno, filename)))
        else:
            raise ScriptError(f"expected 'E NAME [VALUE]' or 'T US', "
                              f"got {line!r}", lineno, filename)
    return script


def _int(word: str, what: str, lineno: int, filename: str) -> int:
    try:
        return int(word)
    except ValueError:
        raise ScriptError(f"{what} must be an integer, got {word!r}",
                          lineno, filename) from None
