"""Names shared by the library and the CLI.

One knob exists, the oracle ceiling, the largest N the brute-force census
takes.  The CLI resolves it with precedence: --oracle-ceiling >
DIVCENSUS_ORACLE_CEILING > DEFAULT_ORACLE_CEILING (cli.resolve_oracle_ceiling).
"""

ENV_PREFIX = "DIVCENSUS_"

DEFAULT_ORACLE_CEILING = 10_000


class ResourceLimitError(Exception):
    """A computation was refused to keep time or memory bounded.

    The message always names the limit that was hit and the knob or
    alternative code path that lifts it.
    """
