"""Per-process memo of compiled suite kernels.

Sweeps compile the same kernel for the same hardware many times: every core
count and arbiter of one explore design point, and every RTOS task set over
the same bodies.  :func:`compiled_kernel` builds, compiles and links a kernel
once per content key (kernel, kernel parameters, processor config, compile
options) and hands out the same :class:`~repro.program.linker.Image` after
that, so its pre-decoded program, WCET layout and co-simulation recording
are shared too.  Images are read-only once linked.

The memo keeps at most :data:`_IMAGE_MEMO_SIZE` images and drops the least
recently used first.  It is per process: forked sweep workers inherit the
parent's entries.  Clear :data:`_images` for cold cells.
"""

from __future__ import annotations

import json

from ..compiler.passes import CompileOptions, compile_and_link
from ..config import DEFAULT_CONFIG, PatmosConfig
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
        entry = (image, built.expected_output)
        if len(_images) >= _IMAGE_MEMO_SIZE:
            del _images[next(iter(_images))]
    _images[key] = entry
    return entry
