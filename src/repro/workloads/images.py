"""Per-process memo of compiled suite kernels.

Sweeps compile the same kernel for the same hardware many times: every core
count and arbiter of one explore design point, and every RTOS task set over
the same bodies.  :func:`compiled_kernel` builds, compiles and links a kernel
once per content key (kernel, kernel parameters, processor config, compile
options) and hands out the same :class:`~repro.program.linker.Image` after
that, so its pre-decoded program, WCET layout and co-simulation recording
are shared too.  Configs that differ only in the method cache
(:func:`image_group`) compile to separate images; when such an image's
content equals that of one already in the memo, the two share one trace
cache (:func:`~repro.cmp.replay.share_traces`), so
:func:`~repro.cmp.replay.recorded_trace` can reuse a recording across
method caches that change no fill.  Images are read-only once linked.

The memo keeps at most :data:`_IMAGE_MEMO_SIZE` images and drops the least
recently used first.  It is per process: forked sweep workers inherit the
parent's entries.  Clear :data:`_images` for cold cells.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Optional

from ..cmp.replay import share_traces
from ..compiler.passes import CompileOptions, compile_and_link
from ..config import DEFAULT_CONFIG, MethodCacheConfig, PatmosConfig
from ..program.linker import Image
from .suite import build_kernel

#: Most images one process keeps in :data:`_images`; the least recently
#: used is dropped first.
_IMAGE_MEMO_SIZE = 16

#: :func:`image_key` -> (image, expected output), least recently used first.
_images: dict[tuple, tuple[Image, list[int]]] = {}


def image_key(kernel: str, kernel_params: tuple = (),
              config: PatmosConfig = DEFAULT_CONFIG,
              options: CompileOptions = CompileOptions()) -> tuple:
    """The content key of a compiled kernel: (kernel, kernel parameters as
    JSON, config, compile options)."""
    return (kernel, json.dumps(sorted(kernel_params), sort_keys=True),
            config, options)


def image_group(key: tuple) -> tuple:
    """``key`` (:func:`image_key`) with the default method cache in place
    of its own: what the keys of images that may share a co-simulation
    recording have in common."""
    kernel, params, config, options = key
    return (kernel, params, replace(config, method_cache=MethodCacheConfig()),
            options)


def compiled_kernel(kernel: str, kernel_params: tuple = (),
                    config: PatmosConfig = DEFAULT_CONFIG,
                    options: CompileOptions = CompileOptions()
                    ) -> tuple[Image, list[int]]:
    """The linked image of a suite kernel and the kernel's expected output.

    ``kernel_params`` are ``(name, value)`` pairs passed to the kernel's
    builder.  The first call per key compiles; later calls return the
    memoised pair.
    """
    key = image_key(kernel, kernel_params, config, options)
    entry = _images.pop(key, None)
    if entry is None:
        built = build_kernel(kernel, **dict(kernel_params))
        image, _ = compile_and_link(built.program, config, options)
        twin = _twin(key, image)
        if twin is not None:
            share_traces(image, twin)
        entry = (image, built.expected_output)
        if len(_images) >= _IMAGE_MEMO_SIZE:
            del _images[next(iter(_images))]
    _images[key] = entry
    return entry


def _twin(key: tuple, image: Image) -> Optional[Image]:
    """A memoised image of ``key``'s group whose content equals
    ``image``'s, or ``None``.  Bundle count and code size rule most
    candidates out before any content is hashed."""
    group = image_group(key)
    size = _code_size(image)
    for other_key, (other, _) in _images.items():
        if other_key[:2] == key[:2] and image_group(other_key) == group \
                and _code_size(other) == size \
                and other.content_hash() == image.content_hash():
            return other
    return None


def _code_size(image: Image) -> tuple[int, int]:
    return len(image.bundles), sum(f.size_bytes for f in image.functions)
