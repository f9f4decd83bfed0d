"""Run configuration: flat key=value files, overrides, and atomic writes.

The config grammar is one `key = value` pair per line; blank lines and
`#` comments are ignored.  Values are in the model's user-facing units
(MHz, gauss, us).  alpha and beta accept Python complex literals.  Unknown
keys are rejected.
"""

from __future__ import annotations

import cmath
import math
import os

from ._record import FrozenRecord
from .srmodel import TWO_PI, ModelParams, hamiltonian_mhz

__all__ = ["ConfigError", "RunConfig", "parse_config_text", "load_run_config",
           "config_hash", "atomic_write_text"]


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


_MODEL_KEYS = ModelParams._fields

_RUN_KEYS = ("alpha", "beta", "t_final", "samples")


class RunConfig(FrozenRecord):
    """Fully resolved inputs of one simulation run."""

    __slots__ = _fields = ("params", "alpha", "beta", "t_final", "samples")

    # ModelParams is immutable, so every default config can share one instance
    def __init__(self, params: ModelParams = ModelParams(), alpha: complex = 1.0 + 0.0j,
                 beta: complex = 1.0 + 0.0j, t_final: float = 20.0, samples: int = 401):
        self._assign(locals())
        if not (math.isfinite(t_final) and t_final > 0):
            raise ValueError(f"t_final must be finite and > 0, got {t_final!r}")
        if samples < 2:
            raise ValueError(f"samples must be >= 2 (t=0 and t_final), got {samples}")
        if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
            raise ValueError(f"alpha and beta must be finite, got {alpha!r}, {beta!r}")
        if alpha == 0 and beta == 0:
            raise ValueError("alpha and beta must not both be zero")

    def to_flat_dict(self) -> dict[str, str]:
        out = {k: repr(getattr(self.params, k)) for k in _MODEL_KEYS}
        out.update({k: repr(getattr(self, k)) for k in _RUN_KEYS})
        return out


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        if key in ("alpha", "beta"):
            return complex(raw)
        if key == "samples":
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse flat key=value text into a {key: parsed value} dict."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _MODEL_KEYS and key not in _RUN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = _parse_value(key, raw)
    return out


def load_run_config(path: str | None = None,
                    overrides: list[str] | None = None) -> RunConfig:
    """Build a RunConfig from an optional file plus repeatable key=value overrides."""
    values: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                values.update(parse_config_text(fh.read(), source=path))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        values.update(parse_config_text(item, source="--set"))

    model_kwargs = {k: v for k, v in values.items() if k in _MODEL_KEYS}
    run_kwargs = {k: v for k, v in values.items() if k in _RUN_KEYS}
    try:
        params = ModelParams(**model_kwargs)
        cfg = RunConfig(params=params, **run_kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    # every value is finite on its own, but a sum of them can still overflow,
    # also in the delta = 0 Hamiltonian of the dressed-pair analysis; these are
    # the entries that srmodel.hamiltonian scales by 2 pi
    if not all(math.isfinite(TWO_PI * x) for q in (params, params.replace(delta=0.0))
               for row in hamiltonian_mhz(q) for x in row):
        raise ConfigError("the model Hamiltonian is not finite")
    return cfg


def config_hash(cfg: RunConfig) -> str:
    """Stable hash of the fully resolved configuration.

    The first 16 hex digits of the SHA-256 of its sorted `key=value` lines.
    SHA-256 comes from CPython's builtin module (`_sha2` on 3.12+, `_sha256`
    on 3.10-3.11), the one `hashlib` itself falls back to without OpenSSL,
    so hashing about 300 bytes does not load libcrypto (3.5 MB of RSS).
    `hashlib` is used only where neither module exists; the digest is the
    same either way.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

    canon = "\n".join(f"{k}={v}" for k, v in sorted(cfg.to_flat_dict().items()))
    return sha256(canon.encode()).hexdigest()[:16]


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file and rename, so failures leave no partial output."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
