from wimax_il.config import InterleaverConfig

# Acceptance set: every exhaustive criterion runs over these.
ACCEPTANCE_CONFIGS = [
    InterleaverConfig(32, 16, 1),
    InterleaverConfig(192, 16, 1),
    InterleaverConfig(384, 16, 2),
    InterleaverConfig(576, 16, 3),
    InterleaverConfig(768, 16, 2),
    InterleaverConfig(1152, 16, 3),
]


def all_valid_configs(max_n: int = 2048) -> list[InterleaverConfig]:
    """Every (n_cbps, d, s) accepted by validation with n_cbps <= max_n."""
    out = []
    for d in (12, 16):
        for n in range(2 * d, max_n + 1, d):
            for s in (1, 2, 3):
                if (n // d) % s == 0:
                    out.append(InterleaverConfig(n, d, s))
    return out
