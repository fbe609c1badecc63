"""Flat key-value experiment configuration with dotted section keys.

Format: one `key = value` per line, `#` comments, unknown keys rejected.
Lists are comma-separated.  All defaults are echoed into reports so a
run's report round-trips to the exact configuration that produced it.
"""
from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from .models import BUILTIN_MODELS

EXPERIMENTS = ("simulate", "estimate", "predict-covariance", "poisson-solve",
               "verify-rate", "verify-clt", "regime-sweep")


class ConfigError(ValueError):
    pass


def _float_list(raw: str):
    return [float(p) for p in raw.split(",") if p.strip() != ""]


# key -> (parser, default, validator or None)
_SCHEMA: Dict[str, tuple] = {
    "experiment": (str, None, lambda v: v in EXPERIMENTS),
    "model.name": (str, "scalar_ou", None),
    "model.theta_star": (float, 1.0, None),
    "model.rate_star": (float, 1.0, lambda v: v > 0),
    "model.level_star": (float, 0.5, None),
    "model.dim": (int, 2, lambda v: v >= 1),
    "model.sigma": (float, 1.0, lambda v: v > 0),
    "model.theta_eval": (_float_list, None, None),
    "schedule.c_alpha": (float, 4.0, lambda v: v > 0),
    "schedule.c0": (float, 1.0, lambda v: v >= 0),
    "integrator.dt": (float, 0.005, lambda v: 0 < v <= 1),
    "integrator.burn_in_steps": (int, 2000, lambda v: v >= 0),
    "integrator.x0": (_float_list, None, None),
    "theta0.lo": (_float_list, None, None),
    "theta0.hi": (_float_list, None, None),
    "horizon": (float, 2000.0, lambda v: v > 1),
    "n_reps": (int, 100, lambda v: v >= 2),
    "master_seed": (int, 0, lambda v: 0 <= v < 2 ** 64),
    # no effect: kept so existing configs parse and reports keep their bytes
    "parallelism": (int, 1, lambda v: v >= 1),
    "checkpoints.n": (int, 60, lambda v: v >= 2),
    "t_eval": (float, None, lambda v: v >= 1),
    "grid.lo": (float, None, None),
    "grid.hi": (float, None, None),
    "grid.n": (int, 4001, lambda v: v >= 3),
    "slope.window_lo": (float, None, lambda v: v >= 1),
    "slope.window_hi": (float, None, lambda v: v > 1),
    "data.path_csv": (str, None, None),
    "output.stride": (int, 100, lambda v: v >= 1),
}

_REQUIRED = ("experiment",)


@dataclasses.dataclass
class ExperimentConfig:
    values: Dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def get(self, key: str, default=None) -> Any:
        v = self.values.get(key)
        return default if v is None else v

    def echo(self) -> Dict[str, Any]:
        return {k: v for k, v in sorted(self.values.items()) if v is not None}


def from_dict(raw: Dict[str, str], source: str = "<dict>") -> ExperimentConfig:
    values: Dict[str, Any] = {k: default for k, (_, default, _) in _SCHEMA.items()}
    for key, raw_val in raw.items():
        if key not in _SCHEMA:
            raise ConfigError("%s: unknown key %r" % (source, key))
        parser, _, validator = _SCHEMA[key]
        if isinstance(raw_val, str):
            try:
                val = parser(raw_val)
            except ValueError as exc:
                raise ConfigError("%s: key %r: cannot parse %r as %s"
                                  % (source, key, raw_val, parser.__name__)) from exc
        else:
            val = raw_val
        if validator is not None and not validator(val):
            raise ConfigError("%s: key %r: value %r out of range"
                              % (source, key, val))
        values[key] = val
    for key in _REQUIRED:
        if values.get(key) is None:
            raise ConfigError("%s: missing required key %r" % (source, key))
    _check_combinations(values, source)
    return ExperimentConfig(values)


def _check_combinations(values: Dict[str, Any], source: str) -> None:
    """Reject keys that are each valid but together would be ignored or
    cut a run short."""
    name = values["model.name"]
    if name not in BUILTIN_MODELS:
        raise ConfigError("%s: unknown model %r (available: %s)"
                          % (source, name, ", ".join(sorted(BUILTIN_MODELS))))
    reads = BUILTIN_MODELS[name].keys
    for key, val in values.items():
        # an unread key may hold only its default, which echo() writes for it
        if (key.startswith("model.") and key not in ("model.name", "model.theta_eval")
                and key[len("model."):] not in reads and val != _SCHEMA[key][1]):
            raise ConfigError("%s: key %r is not read by model %r, which reads %s"
                              % (source, key, name,
                                 ", ".join("model." + k for k in reads)))
    if (values["grid.lo"] is None) != (values["grid.hi"] is None):
        raise ConfigError("%s: keys 'grid.lo' and 'grid.hi' must be given together"
                          % source)
    if values["experiment"] == "simulate" and values["data.path_csv"] is None:
        steps = round((values["horizon"] - 1.0) / values["integrator.dt"])
        if steps % values["output.stride"]:
            raise ConfigError("%s: output.stride %d does not divide the %d steps "
                              "of (horizon - 1) / dt; path.csv would end early"
                              % (source, values["output.stride"], steps))


def parse_config(path, overrides: Optional[Dict[str, str]] = None) -> ExperimentConfig:
    raw: Dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError("%s:%d: expected 'key = value', got %r"
                                  % (path, lineno, line.rstrip()))
            key, _, val = stripped.partition("=")
            key, val = key.strip(), val.strip()
            if key in raw:
                raise ConfigError("%s:%d: duplicate key %r" % (path, lineno, key))
            raw[key] = val
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    return from_dict(raw, source=str(path))
