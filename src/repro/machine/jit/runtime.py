"""JIT runtime: content-keyed code caches, hook hoisting, invalidation.

Blocks are compiled lazily with a hotness threshold (an entry PC must be
dispatched twice before it is compiled) and cached in two layers:

* a **shared** block table per image *content*: compilation depends
  only on the linked code, so every MCU running the same binary — the
  fleet's devices, the eval grid's cells, baseline and naive-mtb (which
  run one unmodified image) — shares compiled code, even when each
  links its own :class:`Image`;
* a **local** per-runtime cache of blocks validated against this MCU's
  memory map (every PC in the block must be fetch-legal for this
  world/memmap, because the generated code hoists the per-instruction
  MPU fetch check to registration time).

The content key (:func:`content_key`) is a SHA-256 over every
instruction's address, mnemonic, condition, full operand values and
label-resolved canonical text, computed once per :class:`Image` object.
It is deliberately not ``H_MEM``/``code_bytes()``: that encoding keeps
only 2-4 bytes of a per-instruction digest, so ``mov r0, #36`` and
``mov r0, #84`` encode alike and would run each other's code.  The
content map keeps the ``SHARED_CACHE_IMAGES`` most recently linked
contents (eviction only costs recompiles).  Invalidation detaches the
image from the map: its runtimes continue on a private table, so an
image patched in place never serves its code to another image.

Hook hoisting: the run loop may execute a compiled block only if every
registered CPU hook opts into batch observation.  An observer opts in by
declaring which of its bound methods is its per-instruction hook
(``JIT_PRE_HOOK`` / ``JIT_RETIRE_HOOK`` class attributes naming the
method) and providing the batch counterpart (``jit_block_pre(pcs)`` /
``jit_block_retire(pcs)``).  Any unrecognized hook — a test lambda, an
experiment's closure — disables block dispatch entirely until the hook
lists change, and execution falls back to per-instruction stepping.
``jit_block_pre`` returns False (with no side effects) to refuse a
batch, and must be idempotent under repetition: for a loop-resident
block the run loop calls it once with the whole loop's PCs and then
runs every iteration without pre-hooks, while the retire hooks still
run per iteration.  Batch handlers must not change the hook lists.

A counted loop-resident block advances whole runs of taken iterations
in one closed-form step when every retire hook also provides the bulk
loop retire: ``jit_loop_cap(count)`` returns how many of ``count``
iterations the observer takes now (no side effects; 0 runs the next
iteration per iteration), then ``jit_loop_retire(pcs, event, count)``
observes ``count`` iterations of the body ``pcs`` followed by the
terminator's taken ``event``.  A bulk retire must run no foreign code
(callbacks, handlers): an observer whose next retire would do so caps
the chunk short of it, as the MTB does for its watermark packet.  A
hook without the pair keeps its loops on the per-iteration path.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from typing import Dict, Optional, Union

from repro.asm.program import Image
from repro.isa.encoding import _canonical_text
from repro.machine.faults import MemFault
from repro.machine.jit.compiler import CompiledBlock, compile_superblock
from repro.machine.jit.superblock import discover_superblock
from repro.machine.memmap import MemoryMap, World

#: dispatches of an entry PC before it is compiled
HOT_THRESHOLD = 2

#: distinct image contents whose block tables are kept (LRU); one eval
#: sweep links 41 distinct images
SHARED_CACHE_IMAGES = 64


class _NoJit:
    """Sentinel: this address must be interpreted."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NOJIT"


NOJIT = _NoJit()


def hoisted_handlers(hooks, attr: str, batch_name: str) -> Optional[list]:
    """Map per-instruction hooks to their batch counterparts.

    Returns a list (possibly empty) of batch callables in hook order, or
    None if any hook does not implement the block-observation protocol.
    """
    out = []
    for hook in hooks:
        obj = getattr(hook, "__self__", None)
        if obj is None:
            return None
        if getattr(hook, "__name__", None) != getattr(type(obj), attr, None):
            return None
        batch = getattr(obj, batch_name, None)
        if batch is None:
            return None
        out.append(batch)
    return out


#: entry pc -> compiled block, or NOJIT for "interpret this address"
_Table = Dict[int, Union[CompiledBlock, _NoJit]]


class _SharedCache:
    """One image's JIT state: warmth, attached runtimes, block table.

    ``blocks`` is shared with every image of equal content until this
    image is invalidated.
    """

    def __init__(self, key: bytes, blocks: _Table):
        self.key = key
        self.blocks = blocks
        self.hot: Dict[int, int] = {}
        self.runtimes: "weakref.WeakSet[JITRuntime]" = weakref.WeakSet()


_IMAGE_CACHES: "weakref.WeakKeyDictionary[Image, _SharedCache]" = (
    weakref.WeakKeyDictionary()
)

#: content key -> block table, least recently used first
_CONTENT_BLOCKS: "OrderedDict[bytes, _Table]" = OrderedDict()


def content_key(image: Image) -> bytes:
    """Injective digest of everything compilation reads from ``image``.

    ``str(instr)`` alone is not enough (it drops a memory operand's
    offset when an index register is present), so the operands go in
    by ``repr``; label operands go in resolved, through the canonical
    text ``H_MEM`` encodes.  An unresolvable label never compiles, and
    is keyed as such.  ``Instr.meta`` is left out: it never affects
    execution.
    """
    digest = hashlib.sha256()
    resolve = image.resolve
    for address in sorted(image.instr_at):
        instr = image.instr_at[address]
        text: Optional[str]
        try:
            text = _canonical_text(instr, resolve)
        except KeyError:
            text = None
        digest.update(repr((address, instr.mnemonic, instr.cond,
                            instr.operands, text)).encode())
    return digest.digest()


def shared_cache_for(image: Image) -> _SharedCache:
    cache = _IMAGE_CACHES.get(image)
    if cache is None:
        key = content_key(image)
        blocks = _CONTENT_BLOCKS.pop(key, None)
        if blocks is None:
            blocks = {}
        _CONTENT_BLOCKS[key] = blocks
        while len(_CONTENT_BLOCKS) > SHARED_CACHE_IMAGES:
            _CONTENT_BLOCKS.popitem(last=False)
        cache = _SharedCache(key, blocks)
        _IMAGE_CACHES[image] = cache
    return cache


def clear_shared_caches() -> None:
    """Forget every content-keyed block table (a reset for tests).

    Images linked afterwards compile from cold; images already attached
    keep their tables.
    """
    _CONTENT_BLOCKS.clear()


class JITRuntime:
    """One MCU's view of the JIT: validated blocks plus statistics."""

    def __init__(self, image: Image, memmap: MemoryMap, world: World):
        self.image = image
        self.memmap = memmap
        self.world = world
        self._shared = shared_cache_for(image)
        self._shared.runtimes.add(self)
        #: entry pc -> CompiledBlock | NOJIT; read directly by MCU.run
        self.blocks: _Table = {}
        self.compiles = 0
        self.invalidations = 0
        #: closed-form chunks taken by counted loop-resident blocks
        self.closed_form_chunks = 0

    # -- dispatch side -----------------------------------------------------

    def consider(self, pc: int) -> Union[CompiledBlock, _NoJit]:
        """Called by the run loop on a local-cache miss.

        Counts warmth, compiles when hot, validates fetch legality for
        this runtime, and caches the decision locally.  Returns NOJIT
        (without caching) while the address is still warming up.
        """
        shared = self._shared
        blk = shared.blocks.get(pc)
        if blk is None:
            count = shared.hot.get(pc, 0) + 1
            if count < HOT_THRESHOLD:
                shared.hot[pc] = count
                return NOJIT
            shared.hot.pop(pc, None)
            blk = self._compile(pc)
            shared.blocks[pc] = blk
        if blk is not NOJIT and not self._fetch_ok(blk):
            blk = NOJIT
        self.blocks[pc] = blk
        return blk

    def _compile(self, pc: int) -> Union[CompiledBlock, _NoJit]:
        block = discover_superblock(self.image, pc)
        if block is None:
            return NOJIT
        try:
            compiled = compile_superblock(self.image, block)
        except Exception:
            # anything the compiler declines is interpreted forever;
            # genuine faults (bad labels, undefined ops) then surface at
            # the architecturally correct instruction via step()
            return NOJIT
        self.compiles += 1
        return compiled

    def _fetch_ok(self, blk: CompiledBlock) -> bool:
        """All of the block's PCs must be fetchable under this memmap."""
        try:
            for pc in blk.pcs:
                self.memmap.check_access(
                    pc, world=self.world, is_write=False, is_fetch=True)
        except MemFault:
            return False
        return True

    # -- invalidation ------------------------------------------------------

    def invalidate(self, address: Optional[int] = None) -> int:
        """Drop cached blocks after the code at ``address`` changed.

        With an address, drops every compiled block whose range covers
        it; NOJIT decisions and warmth counters are always dropped (a
        rewrite can make a previously unprofitable address compilable).
        With no address, drops everything.  Local caches of *all*
        runtimes sharing the image are cleared in place (the run loop
        aliases the dict).  The image leaves the content map: the
        surviving blocks move to a table private to it, so code it
        compiles from now on never reaches another image.  Returns the
        number of compiled blocks dropped.
        """
        shared = self._shared
        compiled = sum(1 for b in shared.blocks.values() if b is not NOJIT)
        survivors: _Table = {}
        if address is not None:
            survivors = {entry: b for entry, b in shared.blocks.items()
                         if b is not NOJIT
                         and not b.entry <= address < b.end}
        if _CONTENT_BLOCKS.get(shared.key) is shared.blocks:
            del _CONTENT_BLOCKS[shared.key]
        shared.blocks = survivors
        shared.hot.clear()
        for runtime in shared.runtimes:
            runtime.blocks.clear()
        self.invalidations += 1
        return compiled - len(survivors)

    def on_code_write(self, address: int) -> None:
        """Memory observer: a checked write landed in executable code."""
        self.invalidate(address)
