"""Exception types shared across the toolkit, and the config-key check."""

import dataclasses


class MoltrError(Exception):
    """Base class for all toolkit errors."""


class InputError(MoltrError, ValueError):
    """Bad runtime input: shape mismatch, non-finite values, misalignment."""


class ConfigError(MoltrError, ValueError):
    """Invalid configuration value."""


class TrainingError(MoltrError, RuntimeError):
    """Training cannot proceed (empty data, divergence, zero coverage)."""


class ParseError(MoltrError, ValueError):
    """Malformed persisted file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CalibrationError(MoltrError, RuntimeError):
    """Boost calibration failed to converge or violated monotonicity."""


def config_keys(d, cls, section: str, required=()) -> dict:
    """A copy of config dict d, or a ConfigError naming the missing required
    key or the key that is not one of dataclass cls's fields."""
    if not isinstance(d, dict):
        raise ConfigError(f"{section} config must be a JSON object")
    for key in required:
        if key not in d:
            raise ConfigError(f"{section} config requires {key!r}")
    known = {f.name for f in dataclasses.fields(cls)}
    for key in d:
        if key not in known:
            raise ConfigError(f"unknown {section} config key {key!r}")
    return dict(d)
