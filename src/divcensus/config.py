"""Runtime knobs shared by the library and the CLI.

One knob exists, the oracle ceiling, resolved with precedence: explicit
argument > environment variable (DIVCENSUS_ORACLE_CEILING) > built-in default.
"""

import os
from dataclasses import dataclass

ENV_PREFIX = "DIVCENSUS_"

DEFAULT_ORACLE_CEILING = 10_000


class ResourceLimitError(Exception):
    """A computation was refused to keep time or memory bounded.

    The message always names the limit that was hit and the knob or
    alternative code path that lifts it.
    """


@dataclass(frozen=True)
class Config:
    oracle_ceiling: int = DEFAULT_ORACLE_CEILING

    def __post_init__(self):
        value = self.oracle_ceiling
        if not isinstance(value, int) or value < 1:
            raise ValueError(f"oracle_ceiling must be a positive integer, got {value!r}")

    @classmethod
    def from_env(cls, environ=None) -> "Config":
        """Build a Config from DIVCENSUS_* environment variables."""
        env = os.environ if environ is None else environ

        def read(suffix: str, default: int) -> int:
            raw = env.get(ENV_PREFIX + suffix)
            if raw is None:
                return default
            try:
                return int(raw)
            except ValueError:
                raise ValueError(
                    f"{ENV_PREFIX + suffix} must be an integer, got {raw!r}"
                ) from None

        return cls(oracle_ceiling=read("ORACLE_CEILING", DEFAULT_ORACLE_CEILING))
