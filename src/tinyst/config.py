"""Settings as text: flat `key = value` config files, and the conversion of
a setting's text to its dataclass field's type.

A config file holds one `key = value` per line; `#` starts a comment.
`read_config` returns each value as the text that was written.  Flags
convert that text with `converter(field type)`; config files and checkpoint
metadata go through `parse_settings`, which does the same per key.  So
`hidden = 2.5` is rejected as an int the same way everywhere and a digest
that looks like a number stays text.  CLI flags override file values; that
merge happens in the CLI layer.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from typing import get_type_hints


def boolean(text: str) -> bool:
    """true/false, yes/no or 1/0, in any case."""
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def converter(typ):
    """The function that turns a setting's text into a value of `typ`."""
    return boolean if typ is bool else typ


def parse_settings(texts: dict, types: dict, source: str, prefix: str = "",
                   kind: str = "config") -> dict:
    """{field name: value} for the keys of `texts` that start with `prefix`,
    each converted by the type `types` gives the rest of the key.  A key
    that names no field is rejected; every error begins with `source`."""
    named = {key[len(prefix):]: text for key, text in texts.items()
             if key.startswith(prefix)}
    unknown = sorted(set(named) - set(types))
    if unknown:
        raise ValueError(f"{source}: unknown {kind} keys {unknown}")
    values = {}
    for name, text in named.items():
        try:
            values[name] = converter(types[name])(text)
        except ValueError:
            raise ValueError(f"{source}: {prefix}{name} = {text} is not a valid "
                             f"{types[name].__name__}") from None
    return values


def settings(cls) -> list:
    """(field, type) for each field of a config dataclass a user sets.  A
    field without a default (ModelConfig.vocab_size) is filled in by the
    command."""
    hints = get_type_hints(cls)
    return [(f, hints[f.name]) for f in fields(cls) if f.default is not MISSING]


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def read_config(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ValueError(f"{path}:{n}: expected 'key = value', got {line!r}")
            key, _, raw = body.partition("=")
            key = key.strip()
            if not key:
                raise ValueError(f"{path}:{n}: empty key")
            if key in out:
                raise ValueError(f"{path}:{n}: repeated key {key!r}")
            out[key] = raw.strip()
    return out


def write_config(path, mapping: dict):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in mapping.items():
            fh.write(f"{key} = {format_value(value)}\n")
