"""Canonical structural hashing of evaluation plans.

The plan compiler's shape registry: two plans that describe the *same
shape* of Bayesian network — identical op kinds, arities, distribution
parameters and sharing topology, regardless of which session built the
node objects — get the same **structural hash**.  They share one entry of
the process-wide :class:`StructuralCache` (a bounded LRU alongside the
per-root cache of :mod:`repro.core.plan`), so many sessions compiling
the paper's ``(y + x) + x``-shaped GPS plan share, once the shape is
hot, one generated kernel.

Canonical form
--------------

A plan's fingerprint is the sequence of per-step tokens in slot (topo)
order.  Each token records the node kind, its operation identity
(``module.qualname`` for named functions, the ufunc name for ufuncs),
the point-mass value for constants, and the *parent slot indices* —
which is what makes the fingerprint capture sharing: ``x + x`` (one leaf
read twice) and ``x1 + x2`` (two leaves) produce different parent-index
sequences even though the node kinds agree.

A leaf of a :data:`TRUSTED_BULK_FAMILIES` class (Gaussian, Uniform,
Exponential) is a *parameter* of its plan: its token keeps the class and
one value class, whether the leaf draws (``bulk_draw_spec()`` is not
``None``) or is fixed (a Gaussian with σ = 0), and none of its values.
So each new reading of a fixed program reuses one shape, one entry and
one kernel; every graph binds its own values (the fused kernel's
``_binding_args``).  Any other leaf's token carries its distribution's
:meth:`~repro.dists.base.Distribution.structural_params`.

The shape key is therefore a *topology* key.  What draws the same rows
is the plan's ``structural_hash``: the shape key plus a digest of its
parametric leaves' values in slot order (:func:`binding_digest`), which
keys the sample ledger, the coalescer's groups and the parallel
workers' plan cache.

Anything whose behaviour cannot be proven equal from structure alone —
lambdas, closures, bound methods, ``FunctionDistribution``, hardened
``ResilientSource`` wrappers, unknown node kinds — makes the plan
**opaque**: :func:`plan_fingerprint` returns ``None``, the plan never
enters the structural cache, and downstream consumers (fused codegen,
worker-side payload sharing) fall back to per-plan behaviour.

Shape entries
-------------

Each registered shape owns one :class:`ShapeEntry`, and every plan of
that shape holds a reference to it (never its own copy of the
fingerprint).  The entry carries the shape's structural key and the
shape's fused kernel with its certification record (see
:mod:`repro.core.fused`); a plan keeps no copy of either.  Node objects are
never shared: each graph executes its own nodes.

The cache stores each distinct fingerprint *token* once.  When a new
shape registers, each of its tokens is replaced by the equal token the
cache already holds, so shapes of one program that differ only in a few
readings (Fig 14's sensor sums, one per neighbour pattern) share every
token they have in common.  The cache counts each token's occurrences
over the live entries; evicting or clearing a shape releases its
tokens, and a token whose count reaches 0 leaves the table.  Equal
tokens have equal ``repr``s, so sharing them moves no structural key.

Collisions
----------

The cache is keyed by the fingerprint tuple itself, so a hit is one dict
lookup with full structural equality and never trusts a hash.  The
128-bit BLAKE2b digest of the fingerprint's canonical repr is computed
only when a new shape registers; it becomes the shape's key.  If a live
shape already holds that key (a true hash collision), the newcomer gets
a salted variant (``<digest>#1``, ``#2``, ...) so colliding shapes never
share kernels or ledger entries.
"""

from __future__ import annotations

import hashlib
import threading
import types
from collections import OrderedDict

import numpy as np

from repro.core.graph import (
    ApplyNode,
    BinaryOpNode,
    LeafNode,
    Node,
    PointMassNode,
    UnaryOpNode,
)
from repro.dists.base import Distribution, Support
from repro.runtime import metrics as _metrics


class StructuralOpaque(Exception):
    """Raised while fingerprinting when a value has no canonical form."""


# ---------------------------------------------------------------------------
# The stream-trust table, read by the shape keys, the kernel generator and
# the certifier (:mod:`repro.analysis.certify` re-exports it).
# ---------------------------------------------------------------------------

#: ``(module, qualname)`` of distribution classes whose ``sample_n`` is
#: *known* (by reading both sources) to be the exact affine reduction of
#: the named base-generator family, making coalesced draws value- and
#: stream-identical.  Exact type match only: a subclass may override
#: ``sample_n`` arbitrarily while inheriting ``bulk_draw_spec``.  Their
#: leaves are plan parameters (see the module docstring), and the fused
#: kernel coalesces their draws.
TRUSTED_BULK_FAMILIES = {
    ("repro.dists.gaussian", "Gaussian"): "standard_normal",
    ("repro.dists.uniform", "Uniform"): "random",
    ("repro.dists.exponential", "Exponential"): "standard_exponential",
}

def trusted_family(dist) -> str | None:
    """The base-generator family ``dist``'s exact class is a trusted
    reduction of (:data:`TRUSTED_BULK_FAMILIES`), else ``None``."""
    kind = type(dist)
    return TRUSTED_BULK_FAMILIES.get((kind.__module__, kind.__qualname__))


# ---------------------------------------------------------------------------
# Canonicalisation of parameter values.
# ---------------------------------------------------------------------------


def _scalar_type(value) -> str:
    """``"py"`` for a Python scalar, else the NumPy scalar's dtype name.

    The type is structural: a shape fixes each constant's value and
    type, so every plan of a shape binds its kernel constants as the same
    NumPy scalar type (``np.full(n, 2)`` is int64, ``np.full(n,
    np.int32(2))`` int32).
    """
    return value.dtype.name if isinstance(value, np.generic) else "py"


def canonical_value(value):
    """A hashable, repr-stable token for ``value``, or ``StructuralOpaque``.

    Scalars keep their type (``2.0``, ``np.float64(2.0)`` and
    ``np.float32(2.0)`` differ); floats canonicalise through ``repr``
    (exact round-trip, stable across processes); arrays through a content
    digest; nested distributions recurse.  Callables and unknown objects
    are opaque — equality of behaviour cannot be derived from structure.
    """
    if type(value) is float:  # the common case (distribution parameters)
        return ("f", "py", repr(value))
    if value is None:
        return ("none",)
    if isinstance(value, (bool, np.bool_)):
        return ("b", _scalar_type(value), bool(value))
    if isinstance(value, (int, np.integer)):
        return ("i", _scalar_type(value), int(value))
    if isinstance(value, (float, np.floating)):
        return ("f", _scalar_type(value), repr(float(value)))
    if isinstance(value, str):
        return ("s", value)
    if isinstance(value, (tuple, list)):
        return ("t", tuple(canonical_value(v) for v in value))
    if isinstance(value, dict):
        return (
            "d",
            tuple(
                (str(k), canonical_value(v)) for k, v in sorted(value.items())
            ),
        )
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            return ("t", tuple(canonical_value(v) for v in value.ravel().tolist()))
        data = np.ascontiguousarray(value)
        digest = hashlib.blake2b(data.tobytes(), digest_size=16).hexdigest()
        return ("a", value.shape, str(value.dtype), digest)
    if isinstance(value, Support):
        return ("sup", repr(float(value.lower)), repr(float(value.upper)))
    if isinstance(value, Distribution):
        return dist_token(value)
    raise StructuralOpaque(
        f"no canonical form for {type(value).__name__} value {value!r}"
    )


def callable_token(fn) -> tuple:
    """Identity token for an operation: ``module.qualname`` or ufunc name.

    Only *named, closure-free, module-level* callables are shareable —
    two sessions resolving ``operator.add`` or ``numpy.sqrt`` get the
    same behaviour from the same token.  Lambdas, local functions,
    closures and bound methods are opaque.
    """
    if isinstance(fn, np.ufunc):
        return ("ufunc", fn.__name__)
    if isinstance(fn, (types.FunctionType, types.BuiltinFunctionType)):
        module = getattr(fn, "__module__", None)
        qualname = getattr(fn, "__qualname__", "")
        if (
            not module
            or not qualname
            or "<lambda>" in qualname
            or "<locals>" in qualname
            or getattr(fn, "__closure__", None)
        ):
            raise StructuralOpaque(f"callable {fn!r} has no stable identity")
        return ("fn", module, qualname)
    raise StructuralOpaque(f"callable {fn!r} has no stable identity")


def dist_token(dist: Distribution) -> tuple:
    """Structural token for a leaf distribution (kind + canonical params)."""
    params = dist.structural_params()
    if params is None:
        raise StructuralOpaque(
            f"{type(dist).__name__} declares itself structurally opaque"
        )
    items = tuple(
        (str(k), canonical_value(v)) for k, v in sorted(params.items())
    )
    return ("dist", type(dist).__module__, type(dist).__qualname__, items)


# ---------------------------------------------------------------------------
# Plan fingerprints.
# ---------------------------------------------------------------------------

_COMPONENT_NODE = None


def _component_node_type():
    global _COMPONENT_NODE
    if _COMPONENT_NODE is None:
        from repro.core.joint import ComponentNode

        _COMPONENT_NODE = ComponentNode
    return _COMPONENT_NODE


#: Per distribution class: its ``(draws, fixed)`` leaf tokens when it is
#: a :data:`TRUSTED_BULK_FAMILIES` class, else ``()`` (value-keyed).
_LEAF_TOKENS: dict[type, tuple] = {}

#: Per ``(node kind, label or vectorized flag, callable)``: the token
#: without its parent slots.  Only named module-level callables get here
#: (anything else is opaque), so the table is bounded by the code.
_OP_TOKENS: dict[tuple, tuple] = {}


def _leaf_tokens(kind: type) -> tuple:
    tokens = _LEAF_TOKENS.get(kind)
    if tokens is None:
        name = (kind.__module__, kind.__qualname__)
        tokens = _LEAF_TOKENS[kind] = (
            tuple(("leaf", ("param",) + name + (value_class,))
                  for value_class in ("draws", "fixed"))
            if name in TRUSTED_BULK_FAMILIES else ()
        )
    return tokens


def node_token(node: Node, parent_slots: tuple[int, ...]) -> tuple:
    """Canonical token for one plan step (raises ``StructuralOpaque``).

    A parametric leaf's token is its class and value class only (the
    module docstring); op tokens are built once per op and label.
    """
    kind = type(node)
    if kind is LeafNode:
        dist = node.dist
        tokens = _LEAF_TOKENS.get(type(dist))
        if tokens is None:
            tokens = _leaf_tokens(type(dist))
        if tokens:
            return tokens[dist.bulk_draw_spec() is None]
        return ("leaf", dist_token(dist))
    if kind is BinaryOpNode:
        key = ("bin", node.label, node.op)
    elif kind is PointMassNode:
        return ("pm", canonical_value(node.value))
    elif kind is UnaryOpNode:
        key = ("un", node.label, node.op)
    elif kind is ApplyNode:
        key = ("apply", bool(node.vectorized), node.fn)
    elif kind is _component_node_type():
        return ("comp", int(node.index), parent_slots)
    else:
        raise StructuralOpaque(f"unknown node kind {kind.__name__}")
    try:
        token = _OP_TOKENS.get(key)
    except TypeError:  # an unhashable callable object
        raise StructuralOpaque(f"callable {key[2]!r} has no stable identity") from None
    if token is None:
        token = _OP_TOKENS[key] = key[:2] + (callable_token(key[2]),)
    return token + (parent_slots,)


def binding_digest(plan) -> str | None:
    """Digest of the values ``plan``'s parametric leaves bind, in slot
    order, or ``None`` when it has none.

    With the shape key it names the rows a plan draws; see
    ``EvaluationPlan.structural_hash``.  The shape fixes each slot's
    class, and these classes keep their parameters as Python floats,
    whose ``repr`` round-trips exactly, so the ``repr`` of their
    :meth:`~repro.dists.base.Distribution.structural_params` is canonical.
    """
    values = [
        step.node.dist.structural_params() for step in plan.steps
        if type(step.node) is LeafNode and _LEAF_TOKENS.get(type(step.node.dist))
    ]
    if not values:
        return None
    return hashlib.blake2b(repr(values).encode("utf-8"), digest_size=16).hexdigest()


def plan_fingerprint(plan) -> tuple | None:
    """Canonical fingerprint of ``plan``, or ``None`` when opaque.

    Isomorphic DAGs — same shape built from fresh node objects — produce
    equal fingerprints, whatever values their parametric leaves bind;
    differing value classes, other distributions' parameters, op
    identities, point-mass values or sharing topology produce different
    ones.
    """
    try:
        tokens = tuple(
            node_token(step.node, step.parent_slots) for step in plan.steps
        )
    except StructuralOpaque:
        return None
    return tokens + (("root", plan.root_slot),)


def fingerprint_digest(fingerprint: tuple) -> str:
    """128-bit BLAKE2b hex digest of a fingerprint's canonical repr."""
    return hashlib.blake2b(
        repr(fingerprint).encode("utf-8"), digest_size=16
    ).hexdigest()


# ---------------------------------------------------------------------------
# The structural cache.
# ---------------------------------------------------------------------------


class ShapeEntry:
    """One registered plan shape, shared by every plan of that shape.

    ``key`` is the shape's structural key and ``fingerprint`` the cache's
    own key object (a reference, not a copy, built of the cache's shared
    tokens).  ``runs`` counts the fused engine's runs of the shape before
    it has a kernel, and ``kernel`` is the fused engine's kernel spec once
    built: ``kernel.verified`` is its accept/reject verdict and
    ``kernel.certification`` the certifier's record, the certificate of
    every plan of the shape.
    """

    __slots__ = ("key", "fingerprint", "runs", "kernel")

    def __init__(self, key: str, fingerprint: tuple) -> None:
        self.key = key
        self.fingerprint = fingerprint
        self.runs = 0
        self.kernel = None


class StructuralCache:
    """Bounded LRU of plan shapes keyed by fingerprint.

    ``register(fingerprint)`` returns ``(entry, hit)``: the shape's
    :class:`ShapeEntry` (``None`` for an opaque plan's ``None``
    fingerprint; opaque plans are never cached) and whether a
    structurally *equal* plan was already registered.  Evicting or
    clearing a shape drops its kernel: the next plan of that shape
    registers a fresh entry.  ``compile_plan`` counts the lookups;
    :meth:`state` reports the contents.
    """

    def __init__(self, limit: int = 512) -> None:
        self.limit = int(limit)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, ShapeEntry] = OrderedDict()
        # Keys of the live entries, for salting colliding digests.
        self._keys: set[str] = set()
        # Each distinct token of the live fingerprints, held once, and its
        # number of occurrences in them (by ``id``: the table keeps the
        # token alive while it is counted).
        self._tokens: dict[tuple, tuple] = {}
        self._token_refs: dict[int, int] = {}
        self.collisions = 0

    def register(self, fingerprint: tuple | None) -> tuple[ShapeEntry | None, bool]:
        if fingerprint is None:
            return None, False
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                return entry, True
            fingerprint = self._intern(fingerprint)
            digest = fingerprint_digest(fingerprint)
            key, salt = digest, 0
            while key in self._keys:
                # True digest collision: same digest, different structure.
                salt += 1
                key = f"{digest}#{salt}"
            if salt:
                self.collisions += 1
            entry = self._entries[fingerprint] = ShapeEntry(key, fingerprint)
            self._keys.add(key)
            while len(self._entries) > self.limit:
                old, evicted = self._entries.popitem(last=False)
                self._keys.discard(evicted.key)
                self._release(old)
            return entry, False

    def _intern(self, fingerprint: tuple) -> tuple:
        """``fingerprint`` rebuilt from the table's tokens, counted."""
        tokens, refs = self._tokens, self._token_refs
        shared = []
        for token in fingerprint:
            token = tokens.setdefault(token, token)
            refs[id(token)] = refs.get(id(token), 0) + 1
            shared.append(token)
        return tuple(shared)

    def _release(self, fingerprint: tuple) -> None:
        """Uncount an evicted fingerprint's tokens; drop those at 0."""
        refs = self._token_refs
        for token in fingerprint:
            count = refs[id(token)] - 1
            if count:
                refs[id(token)] = count
            else:
                del refs[id(token)]
                del self._tokens[token]

    def state(self) -> dict:
        with self._lock:
            kernels = [
                e.kernel for e in self._entries.values()
                if e.kernel is not None
            ]
            return {
                "entries": len(self._entries),
                "collisions": self.collisions,
                "limit": self.limit,
                "kernels": len(kernels),
                "kernels_verified": sum(k.verified for k in kernels),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._keys.clear()
            self._tokens.clear()
            self._token_refs.clear()
            self.collisions = 0


#: Process-global structural cache consulted by ``compile_plan``.
STRUCTURAL_CACHE = StructuralCache()
_metrics.register_gauges("structural", STRUCTURAL_CACHE.state)


def clear_structural_cache() -> None:
    """Drop every registered shape with its kernel."""
    STRUCTURAL_CACHE.clear()


__all__ = [
    "STRUCTURAL_CACHE",
    "ShapeEntry",
    "StructuralCache",
    "StructuralOpaque",
    "TRUSTED_BULK_FAMILIES",
    "binding_digest",
    "callable_token",
    "canonical_value",
    "clear_structural_cache",
    "dist_token",
    "fingerprint_digest",
    "node_token",
    "plan_fingerprint",
    "trusted_family",
]
