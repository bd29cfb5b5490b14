"""The rp4bc load-script language (paper Fig. 5(b)/(c)).

Commands::

    load <snippet.rp4> --func_name <name>
    unload --func_name <name>
    add_link <pre_stage> <next_stage>
    del_link <pre_stage> <next_stage>
    link_header --pre <header> --next <header> --tag <int>
    unlink_header --pre <header> --tag <int>

``//`` and ``#`` start comments; blank lines are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union


class ScriptError(Exception):
    """Raised on malformed script lines."""


@dataclass(frozen=True)
class LoadCmd:
    source: str
    func_name: str


@dataclass(frozen=True)
class UnloadCmd:
    func_name: str


@dataclass(frozen=True)
class AddLinkCmd:
    pre: str
    next: str


@dataclass(frozen=True)
class DelLinkCmd:
    pre: str
    next: str


@dataclass(frozen=True)
class LinkHeaderCmd:
    pre: str
    next: str
    tag: int


@dataclass(frozen=True)
class UnlinkHeaderCmd:
    pre: str
    tag: int


Command = Union[
    LoadCmd, UnloadCmd, AddLinkCmd, DelLinkCmd, LinkHeaderCmd, UnlinkHeaderCmd
]


def _options(tokens: List[str], line_no: int) -> dict:
    """Parse ``--key value`` pairs."""
    options = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("--"):
            raise ScriptError(f"line {line_no}: expected an option, got {token!r}")
        if i + 1 >= len(tokens):
            raise ScriptError(f"line {line_no}: option {token!r} missing a value")
        options[token[2:]] = tokens[i + 1]
        i += 2
    return options


def _require(options: dict, keys: List[str], line_no: int, command: str) -> None:
    missing = [k for k in keys if k not in options]
    if missing:
        raise ScriptError(
            f"line {line_no}: {command} requires options {missing}"
        )


def _tag(options: dict, line_no: int) -> int:
    try:
        return int(options["tag"], 0)
    except ValueError:
        raise ScriptError(
            f"line {line_no}: --tag needs an integer, got {options['tag']!r}"
        ) from None


def parse_script(text: str) -> List[Command]:
    """Parse a load script into a command list."""
    commands: List[Command] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//")[0].split("#")[0].strip()
        if not line:
            continue
        tokens = line.split()
        verb, rest = tokens[0], tokens[1:]
        if verb == "load":
            if not rest or rest[0].startswith("--"):
                raise ScriptError(f"line {line_no}: load needs a source name")
            options = _options(rest[1:], line_no)
            _require(options, ["func_name"], line_no, "load")
            commands.append(LoadCmd(rest[0], options["func_name"]))
        elif verb == "unload":
            options = _options(rest, line_no)
            _require(options, ["func_name"], line_no, "unload")
            commands.append(UnloadCmd(options["func_name"]))
        elif verb in ("add_link", "del_link"):
            if len(rest) != 2:
                raise ScriptError(
                    f"line {line_no}: {verb} takes exactly two stage names"
                )
            cls = AddLinkCmd if verb == "add_link" else DelLinkCmd
            commands.append(cls(rest[0], rest[1]))
        elif verb == "link_header":
            options = _options(rest, line_no)
            _require(options, ["pre", "next", "tag"], line_no, "link_header")
            commands.append(
                LinkHeaderCmd(
                    options["pre"], options["next"], _tag(options, line_no)
                )
            )
        elif verb == "unlink_header":
            options = _options(rest, line_no)
            _require(options, ["pre", "tag"], line_no, "unlink_header")
            commands.append(
                UnlinkHeaderCmd(options["pre"], _tag(options, line_no))
            )
        else:
            raise ScriptError(f"line {line_no}: unknown command {verb!r}")
    return commands
