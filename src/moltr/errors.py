"""Exception types shared across the toolkit, the config JSON codec, the
file readers and the atomic file writer.

Every config dataclass inherits Config, whose to_dict/from_dict are driven
by the dataclass fields and their annotations: from_dict rejects a
non-object, an unknown key, a missing required field and a value of the
wrong type with a ConfigError naming the section and key. Value ranges are
checked by each class's __post_init__.

Every file the toolkit writes goes through write_atomic, so an interrupted
write leaves any previous file whole. Every file it reads goes through
read_json (one JSON document: a config or a checkpoint) or read_jsonl (one
document per line: a dataset or soft labels), which check UTF-8 with
decode_utf8 and parse with parse_json, so a ParseError names the file and line.
A missing file is a ParseError naming it too.
"""

import hashlib
import json
import os
import typing
from contextlib import contextmanager
from dataclasses import MISSING, fields


class MoltrError(Exception):
    """Base class for all toolkit errors."""


class InputError(MoltrError, ValueError):
    """Bad runtime input: shape mismatch, non-finite values, misalignment."""


class ConfigError(MoltrError, ValueError):
    """Invalid configuration value."""


class TrainingError(MoltrError, RuntimeError):
    """Training cannot proceed (empty data, divergence, zero coverage)."""


class ParseError(MoltrError, ValueError):
    """Malformed or missing persisted file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CalibrationError(MoltrError, RuntimeError):
    """Boost calibration failed to converge or violated monotonicity."""


class Config:
    """JSON codec for a config dataclass; subclasses name their section,
    as in ``class MlpConfig(Config, section="mlp")``."""

    def __init_subclass__(cls, section: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.section = section

    def to_dict(self) -> dict:
        """Every field; nested configs become dicts and tuples become lists."""
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d):
        """The config built from dict d, or a ConfigError naming the bad key."""
        if not isinstance(d, dict):
            raise ConfigError(f"{cls.section} config must be a JSON object")
        known = {f.name: f for f in fields(cls)}
        for name, f in known.items():
            if name not in d and f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{cls.section} config requires {name!r}")
        for key in d:
            if key not in known:
                raise ConfigError(f"unknown {cls.section} config key {key!r}")
        hints = typing.get_type_hints(cls)
        return cls(
            **{k: _decode(v, hints[k], f"{cls.section} config key {k!r}") for k, v in d.items()}
        )


def _encode(value):
    if isinstance(value, Config):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _decode(value, hint, where: str):
    """value checked against annotation hint; lists become tuples for tuple
    fields, and nothing else is converted (an int stays an int)."""
    if type(None) in typing.get_args(hint):  # X | None
        if value is None:
            return None
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
    origin = typing.get_origin(hint)
    if origin is None and issubclass(hint, Config):
        return hint.from_dict(value)
    if not _fits(value, hint):
        name = hint.__name__ if origin is None else str(hint)
        raise ConfigError(f"{where} must be {name}, got {json.dumps(value, default=repr)}")
    return tuple(value) if origin is tuple else value


def _fits(value, hint) -> bool:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            return False
        if origin is tuple and args[-1] is not Ellipsis:
            return len(value) == len(args) and all(map(_fits, value, args))
        return all(_fits(v, args[0]) for v in value)
    return isinstance(value, hint)


def decode_utf8(raw: bytes, name: str, line: int = 1) -> str:
    """raw decoded as UTF-8, or a ParseError naming the file (name) and the
    line of its first bad byte, raw's first line being line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line += raw.count(b"\n", 0, e.start)
        raise ParseError(f"{name}: not UTF-8 text", line=line) from e


def parse_json(text, name: str, line: int | None = None):
    """json.loads(text). Text that is not JSON, or a document nested deeper
    than the parser can recurse, raises a ParseError naming the file (name)
    and the line: the given one, else the line of the error in text."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        message = f"{name}: invalid JSON at column {e.colno}: {e.msg}"
        raise ParseError(message, line=e.lineno if line is None else line) from e
    except RecursionError as e:
        raise ParseError(f"{name}: JSON nested too deeply", line=line) from e


def _open(path, name: str):
    """File path opened for reading bytes; a missing file raises a
    ParseError naming it (name)."""
    try:
        return open(path, "rb")
    except FileNotFoundError as e:
        raise ParseError(f"{name}: no such file") from e


def read_json(path, name: str, sha256: str | None = None):
    """The one JSON document in file path, named name in errors. A
    content-addressed file passes its sha256 hex digest, which the raw
    bytes must match before they are parsed."""
    with _open(path, name) as f:
        raw = f.read()
    if sha256 is not None and hashlib.sha256(raw).hexdigest() != sha256:
        raise ParseError(f"{name}: sha256 of the file is not its name")
    return parse_json(decode_utf8(raw, name), name)


def read_jsonl(path, name: str):
    """(line number, document) for each non-blank line of JSONL file path,
    named name in errors. Lines end at LF only and are read one at a time;
    the file is closed when the caller stops early."""
    with _open(path, name) as f:
        for lineno, raw in enumerate(f, start=1):
            text = decode_utf8(raw.rstrip(b"\n"), name, lineno)
            if text.strip():
                yield lineno, parse_json(text, name, lineno)


@contextmanager
def write_atomic(path):
    """A text file to stream into; on success it replaces path with
    os.replace, and on any error it is deleted and path is left as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as f:
            yield f
        os.replace(tmp, path)
    except BaseException as e:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(e, OSError) and e.filename == tmp:  # name the file asked for
            raise OSError(e.errno, e.strerror, path) from e
        raise
