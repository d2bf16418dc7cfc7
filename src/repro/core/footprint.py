"""Input footprints: what an operator application *reads* (paper §5).

Because prompts are first-class, versioned data, the runtime can know
exactly which inputs fed an operator application: the operator's own
parameters, the referenced prompt keys at their current versions, the
context slots the rendered template actually interpolates, and the model
profile.  A :class:`Footprint` captures that input set as plain data; its
:attr:`~Footprint.digest` is the content fingerprint the operator-level
result cache (:mod:`repro.runtime.result_cache`) is keyed by.

Operators declare their footprint via :meth:`Operator.footprint
<repro.core.algebra.Operator.footprint>`; returning ``None`` marks the
application as uncacheable (the default — only operators whose outputs
are a pure function of their declared inputs opt in).

Transitivity falls out of value fingerprints: a downstream GEN reads the
*values* an upstream GEN wrote into C, so when a refinement changes the
upstream output, every transitively dependent fingerprint changes too.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any

__all__ = ["ABSENT", "Footprint", "immutable_by_type", "stable_digest"]

#: placeholder digest for a context slot the template references but the
#: context does not (yet) hold — absence is part of the input set, because
#: an unbound placeholder renders literally.
ABSENT = "<absent>"

#: the C encoder ``json.dumps(value, sort_keys=True, default=repr)`` builds
#: per call, built once.  It keeps no circular-reference markers (a shared
#: table would be unsafe across threads): a self-containing value exceeds
#: the recursion limit instead and takes the same ``repr`` fallback.
_ENCODER = c_make_encoder and c_make_encoder(
    None, repr, encode_basestring_ascii, None, ": ", ", ", True, False, True
)
_STABLE_JSON = json.JSONEncoder(sort_keys=True, default=repr)


def stable_digest(value: Any) -> str:
    """A short, stable content digest of an arbitrary value.

    Values are JSON-serialized with sorted keys (``repr`` fallback for
    arbitrary objects, which is deterministic for the package's frozen
    dataclasses), then SHA-256 hashed.  16 hex chars keep fingerprints
    readable in event payloads while leaving collisions negligible.
    """
    try:
        if _ENCODER:
            payload = "".join(_ENCODER(value, 0))
        else:  # pragma: no cover - a Python without the C accelerator
            payload = _STABLE_JSON.encode(value)
    except (TypeError, ValueError, RecursionError):
        payload = repr(value)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


_SCALARS = frozenset({str, int, float, bool, type(None)})


def immutable_by_type(value: Any) -> bool:
    """True when no in-place mutation can change ``stable_digest(value)``:
    a str, number, bool or None, a tuple of such values, or a frozen
    dataclass instance (whose fields cannot be rebound).  Only these
    values may keep a digest once computed; anything else is re-hashed
    on every use."""
    kind = type(value)
    if kind in _SCALARS:
        return True
    if kind is tuple:
        return all(map(immutable_by_type, value))
    params = getattr(kind, "__dataclass_params__", None)
    return params is not None and params.frozen


@dataclass(frozen=True)
class Footprint:
    """The declared input set of one operator application.

    Fields:

    - ``operator``: the printable operator label (``GEN["answer"]``).
    - ``identity``: digest of the operator's own parameters (label key,
      prompt key, literal extras, max_tokens, …).
    - ``model_key``: identity of the model backend the operator will call
      (None for model-free operators such as pure RET).
    - ``prompt_deps``: one ``(key, version, text_digest, params_digest)``
      tuple per referenced prompt.  The version makes invalidation
      precise; the text digest keeps hits correct even across cloned
      stores whose histories diverged at the same version number.
    - ``context_reads``: ``(key, value_digest)`` per context slot the
      operator reads (``ABSENT`` when the slot is missing).
    - ``context_writes``: context keys the operator will write — not part
      of the fingerprint (writes are outputs), but recorded so the cache
      can chain dependency edges writer → reader at insert time.
    """

    operator: str
    identity: str
    model_key: str | None
    prompt_deps: tuple[tuple[str, int, str, str], ...] = ()
    context_reads: tuple[tuple[str, str], ...] = ()
    context_writes: tuple[str, ...] = ()

    @cached_property
    def digest(self) -> str:
        """The content fingerprint cache entries are keyed by (hashed once:
        every field is immutable)."""
        return stable_digest(
            {
                "operator": self.operator,
                "identity": self.identity,
                "model": self.model_key,
                "prompts": self.prompt_deps,
                "reads": self.context_reads,
            }
        )

    @cached_property
    def prompt_keys(self) -> tuple[str, ...]:
        """The referenced prompt keys (for dependency indexing)."""
        return tuple(dep[0] for dep in self.prompt_deps)
