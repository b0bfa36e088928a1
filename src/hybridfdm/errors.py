"""Exception hierarchy, which the CLI maps onto exit codes, and
``per_node``, which pins a failure to its entry of a batch."""


class HybridFdmError(Exception):
    """Base class for all solver errors.

    A routine that works on a batch sets ``index`` to the entry that failed,
    so the caller can name the grid node.
    """

    index: int | None = None


class ReductionError(HybridFdmError):
    """Invalid inputs to the derivative-reduction recursion."""


class MlsError(HybridFdmError):
    """Degenerate sample geometry or over-ambitious derivative request."""


class StencilError(HybridFdmError):
    """Recursive stencil solve failed (residual or feasibility)."""


class GeometryError(HybridFdmError):
    """Interface geometry inconsistent with the grid."""


class AssemblyError(HybridFdmError):
    """Global system assembly failed."""


class ConfigError(HybridFdmError):
    """Malformed problem configuration."""


def per_node(items, fn) -> list:
    """``fn`` of every item; a HybridFdmError records the failing position
    in its ``index``, so the caller can name the node."""
    out = []
    for k, item in enumerate(items):
        try:
            out.append(fn(item))
        except HybridFdmError as exc:
            exc.index = k
            raise
    return out
