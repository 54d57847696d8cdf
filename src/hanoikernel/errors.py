"""Exception types shared across the package."""


class DepthError(ValueError):
    """A vertex or level lies below the depth of the portrait it is used with."""


class ShapeError(ValueError):
    """Mismatched arities, depths, or permutation degrees."""


class NotASubgroupError(ValueError):
    """A claimed subgroup has a generator outside the ambient group."""


class NotInStabilizerError(ValueError):
    """A word does not fix the first level, so it has no stabilizer vector."""


class ResourceLimitError(RuntimeError):
    """The request exceeds the configured degree or size caps."""
