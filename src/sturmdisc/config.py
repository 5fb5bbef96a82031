"""JSON run configurations for the command-line front-end.

A config is a single JSON document with a ``problems`` map plus the
parameters of one command.  Validation errors carry the JSON path of the
offending field so a bad config points at itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .expr import PotentialExpr
from .problem import Problem


class ConfigError(Exception):
    """A validation failure, with the JSON path of the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def _is_real(value) -> bool:
    # JSON true/false arrive as bool, which Python counts as an int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_complex(value, path: str) -> complex:
    if _is_real(value):
        return complex(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(_is_real(v) for v in value)
    ):
        return complex(value[0], value[1])
    raise ConfigError(path, "expected a number or [re, im] pair")


def problem_from_config(spec, path: str) -> Problem:
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected an object")
    if "q" not in spec:
        raise ConfigError(path + ".q", "missing potential expression")
    try:
        q = PotentialExpr.from_spec(spec["q"])
    except (TypeError, ValueError) as exc:  # ExprError is a ValueError
        raise ConfigError(path + ".q", str(exc)) from exc
    kwargs = {"q": q}
    if "h" in spec:
        kwargs["h"] = _as_complex(spec["h"], path + ".h")
    if "H" in spec:
        if spec["H"] == "dirichlet":
            kwargs["H"] = None
        else:
            kwargs["H"] = _as_complex(spec["H"], path + ".H")
    if "gamma" in spec:
        kwargs["gamma"] = _as_complex(spec["gamma"], path + ".gamma")
    for name in ("beta", "d"):
        if name in spec:
            if not _is_real(spec[name]):
                raise ConfigError(path + "." + name, "expected a real number")
            kwargs[name] = float(spec[name])
    known = {"q", "h", "H", "beta", "gamma", "d"}
    for key in spec:
        if key not in known:
            raise ConfigError(path + "." + key, "unknown field")
    try:
        return Problem(**kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


@dataclass
class RunConfig:
    command: str
    problems: dict  # name -> Problem
    params: dict  # command-specific, already validated for shape
    raw: dict  # the resolved document, embedded in reports

    def problem(self, key: str, path: str) -> Problem:
        name = self.params.get(key)
        if not isinstance(name, str):
            raise ConfigError(path, "expected a problem name")
        if name not in self.problems:
            raise ConfigError(path, f"unknown problem {name!r}")
        return self.problems[name]


def load_config(path: str, command: str, fields) -> RunConfig:
    """The config at ``path``; the ``command`` section may hold only ``fields``."""

    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("$", f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("$", "top level must be an object")
    problems_spec = doc.get("problems", {})
    if not isinstance(problems_spec, dict):
        raise ConfigError("$.problems", "expected an object")
    problems = {
        name: problem_from_config(spec, f"$.problems.{name}")
        for name, spec in problems_spec.items()
    }
    params = doc.get(command, {})
    if not isinstance(params, dict):
        raise ConfigError(f"$.{command}", "expected an object")
    for key in params:
        if key not in fields:
            raise ConfigError(f"$.{command}.{key}", "unknown field")
    return RunConfig(command=command, problems=problems, params=params, raw=doc)


def _field(params: dict, key: str, path: str, default=None):
    """``params[key]``; ``default`` when it is absent, unless that is ``None``."""

    if key in params:
        return params[key]
    if default is None:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return default


def get_real(params: dict, key: str, path: str, default=None) -> float:
    value = _field(params, key, path, default)
    if not _is_real(value):
        raise ConfigError(f"{path}.{key}", "expected a real number")
    return float(value)


def get_int(params: dict, key: str, path: str, default=None) -> int:
    value = _field(params, key, path, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}", "expected an integer")
    return value


def get_complex_list(params: dict, key: str, path: str) -> list:
    raw = _field(params, key, path)
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}.{key}", "expected a non-empty list")
    return [_as_complex(z, f"{path}.{key}[{k}]") for k, z in enumerate(raw)]
