// Machine substrate tests: paged memory, traps, runtime builtins, global
// layout.
#include <gtest/gtest.h>

#include "frontend/sema.h"
#include "machine/memory.h"
#include "machine/runtime.h"
#include "support/bitutil.h"
#include "support/rng.h"

namespace faultlab::machine {
namespace {

std::uint64_t low_mask_for(unsigned size) {
  return size >= 8 ? ~0ull : ((1ull << (size * 8)) - 1);
}

TEST(Memory, UnmappedAccessTraps) {
  Memory mem;
  EXPECT_THROW(mem.read(0x5000, 4), TrapException);
  EXPECT_THROW(mem.write(0x5000, 4, 1), TrapException);
  try {
    mem.read(0x1234, 1);
    FAIL();
  } catch (const TrapException& e) {
    EXPECT_EQ(e.kind(), TrapKind::UnmappedAccess);
    EXPECT_EQ(e.address(), 0x1234u);
  }
}

TEST(Memory, NullPageNeverMapped) {
  Memory mem;
  mem.map_range(Layout::kGlobalBase, 4096);
  EXPECT_THROW(mem.read(0, 8), TrapException);
  EXPECT_THROW(mem.read(8, 8), TrapException);
}

TEST(Memory, ReadWriteRoundTripAllWidths) {
  Memory mem;
  mem.map_range(0x10000, 4096);
  for (unsigned size : {1u, 2u, 4u, 8u}) {
    const std::uint64_t value = 0x1122334455667788ull & low_mask_for(size);
    mem.write(0x10040, size, value);
    EXPECT_EQ(mem.read(0x10040, size), value) << "size " << size;
  }
}

TEST(Memory, LittleEndianLayout) {
  Memory mem;
  mem.map_range(0x10000, 4096);
  mem.write(0x10000, 4, 0x0A0B0C0D);
  EXPECT_EQ(mem.read(0x10000, 1), 0x0Du);
  EXPECT_EQ(mem.read(0x10003, 1), 0x0Au);
}

TEST(Memory, PageStraddlingAccess) {
  Memory mem;
  mem.map_range(0x10000, 2 * Memory::kPageSize);
  const std::uint64_t addr = 0x10000 + Memory::kPageSize - 3;
  mem.write(addr, 8, 0x1122334455667788ull);
  EXPECT_EQ(mem.read(addr, 8), 0x1122334455667788ull);
}

TEST(Memory, PartiallyUnmappedStraddleTraps) {
  Memory mem;
  mem.map_range(0x10000, Memory::kPageSize);  // only the first page
  const std::uint64_t addr = 0x10000 + Memory::kPageSize - 3;
  EXPECT_THROW(mem.write(addr, 8, 1), TrapException);
}

TEST(Memory, BulkBytes) {
  Memory mem;
  mem.map_range(0x20000, 8192);
  std::vector<std::uint8_t> data(5000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 7);
  mem.write_bytes(0x20000, data.data(), data.size());
  std::vector<std::uint8_t> back(5000);
  mem.read_bytes(0x20000, back.data(), back.size());
  EXPECT_EQ(data, back);
}

TEST(Memory, PageStraddlingAllWidthsAndOffsets) {
  // Every (width, offset) combination that crosses the page boundary must
  // round-trip — these are exactly the accesses the single-entry page cache
  // cannot serve from one page.
  Memory mem;
  mem.map_range(0x10000, 2 * Memory::kPageSize);
  const std::uint64_t boundary = 0x10000 + Memory::kPageSize;
  for (unsigned size : {2u, 4u, 8u}) {
    for (unsigned before = 1; before < size; ++before) {
      const std::uint64_t addr = boundary - before;
      const std::uint64_t value = 0xF1E2D3C4B5A69788ull & low_mask_for(size);
      mem.write(addr, size, value);
      EXPECT_EQ(mem.read(addr, size), value)
          << "size " << size << " offset -" << before;
      // Byte-level check: the write must land little-endian across pages.
      for (unsigned i = 0; i < size; ++i)
        EXPECT_EQ(mem.read(addr + i, 1), (value >> (8 * i)) & 0xff)
            << "size " << size << " offset -" << before << " byte " << i;
    }
  }
}

TEST(Memory, StraddlingWriteThenSameLocationCachedRead) {
  // A straddling access touches two pages; the cache must not serve stale
  // data for either afterwards.
  Memory mem;
  mem.map_range(0x10000, 2 * Memory::kPageSize);
  const std::uint64_t boundary = 0x10000 + Memory::kPageSize;
  mem.write(boundary - 8, 8, 0xAAAAAAAAAAAAAAAAull);  // first page only
  mem.write(boundary, 8, 0xBBBBBBBBBBBBBBBBull);      // second page only
  mem.write(boundary - 4, 8, 0x1111222233334444ull);  // straddles both
  EXPECT_EQ(mem.read(boundary - 8, 4), 0xAAAAAAAAu);  // untouched prefix
  EXPECT_EQ(mem.read(boundary - 4, 4), 0x33334444u);  // straddle low half
  EXPECT_EQ(mem.read(boundary, 4), 0x11112222u);      // straddle high half
  EXPECT_EQ(mem.read(boundary + 4, 4), 0xBBBBBBBBu);  // untouched suffix
}

TEST(Memory, SnapshotIsolatedFromLaterWrites) {
  Memory mem;
  mem.map_range(0x10000, 4096);
  mem.write(0x10000, 8, 111);
  Memory::Snapshot snap = mem.snapshot();
  EXPECT_EQ(snap.mapped_pages(), 1u);

  // Writes after the snapshot must not leak into it (copy-on-write).
  mem.write(0x10000, 8, 222);
  mem.map_range(0x20000, 4096);
  mem.write(0x20000, 8, 333);

  mem.restore(snap);
  EXPECT_EQ(mem.read(0x10000, 8), 111u);
  EXPECT_FALSE(mem.is_mapped(0x20000));
  EXPECT_THROW(mem.read(0x20000, 8), TrapException);
}

TEST(Memory, WritesAfterRestoreDoNotCorruptSnapshot) {
  // The other CoW direction: a restored image shares pages with the
  // snapshot, and writing through it must clone, not mutate the original.
  Memory mem;
  mem.map_range(0x10000, 4096);
  mem.write(0x10000, 8, 111);
  Memory::Snapshot snap = mem.snapshot();

  mem.restore(snap);
  mem.write(0x10000, 8, 999);
  EXPECT_EQ(mem.read(0x10000, 8), 999u);

  mem.restore(snap);  // snapshot still pristine
  EXPECT_EQ(mem.read(0x10000, 8), 111u);
}

TEST(Memory, SnapshotSharedAcrossTwoRestores) {
  // Two memories restored from one snapshot must diverge independently —
  // the checkpoint layer does exactly this from concurrent trial workers.
  Memory a;
  a.map_range(0x10000, 4096);
  a.write(0x10000, 8, 7);
  Memory::Snapshot snap = a.snapshot();

  Memory b;
  b.restore(snap);
  a.restore(snap);
  a.write(0x10000, 8, 100);
  b.write(0x10008, 8, 200);
  EXPECT_EQ(a.read(0x10000, 8), 100u);
  EXPECT_EQ(a.read(0x10008, 8), 0u);
  EXPECT_EQ(b.read(0x10000, 8), 7u);
  EXPECT_EQ(b.read(0x10008, 8), 200u);
}

TEST(Memory, SnapshotSurvivesSourceReset) {
  Memory mem;
  mem.map_range(0x10000, 4096);
  mem.write(0x10000, 8, 42);
  Memory::Snapshot snap = mem.snapshot();
  mem.reset();
  EXPECT_EQ(mem.mapped_pages(), 0u);
  mem.restore(snap);
  EXPECT_EQ(mem.read(0x10000, 8), 42u);
}

TEST(Memory, CacheInvalidatedByRestore) {
  // Prime the read cache on a page, restore an older image of that page,
  // and make sure the next read sees the restored bytes, not the cache.
  Memory mem;
  mem.map_range(0x10000, 4096);
  mem.write(0x10000, 8, 1);
  Memory::Snapshot snap = mem.snapshot();
  mem.write(0x10000, 8, 2);
  EXPECT_EQ(mem.read(0x10000, 8), 2u);  // cache hot with the new page
  mem.restore(snap);
  EXPECT_EQ(mem.read(0x10000, 8), 1u);
}

TEST(Memory, ResetClearsMappings) {
  Memory mem;
  mem.map_range(0x10000, 4096);
  mem.write(0x10000, 8, 42);
  mem.reset();
  EXPECT_EQ(mem.mapped_pages(), 0u);
  EXPECT_THROW(mem.read(0x10000, 8), TrapException);
}

TEST(Memory, SameAsSharedPages) {
  Memory mem;
  mem.map_range(0x10000, 2 * Memory::kPageSize);
  mem.write(0x10000, 8, 5);
  const Memory::Snapshot snap = mem.snapshot();
  EXPECT_TRUE(mem.same_as(snap));  // every page still pointer-shared
  Memory other;
  other.restore(snap);
  EXPECT_TRUE(other.same_as(snap));
}

TEST(Memory, SameAsClonedButEqualPage) {
  Memory mem;
  mem.map_range(0x10000, 4096);
  mem.write(0x10000, 8, 5);
  const Memory::Snapshot snap = mem.snapshot();
  mem.write(0x10000, 8, 6);  // CoW clone, then the golden value again
  mem.write(0x10000, 8, 5);
  EXPECT_TRUE(mem.same_as(snap));
}

TEST(Memory, SameAsDetectsOneDifferingByte) {
  Memory mem;
  mem.map_range(0x10000, 2 * Memory::kPageSize);
  const Memory::Snapshot snap = mem.snapshot();
  mem.write(0x10000 + Memory::kPageSize + 4095, 1, 1);  // last byte
  EXPECT_FALSE(mem.same_as(snap));
  mem.write(0x10000 + Memory::kPageSize + 4095, 1, 0);
  EXPECT_TRUE(mem.same_as(snap));
}

TEST(Memory, SameAsComparesPageNumbersNotJustCounts) {
  Memory a;
  a.map_range(0x10000, 4096);
  const Memory::Snapshot snap = a.snapshot();
  Memory b;
  b.map_range(0x20000, 4096);  // one zero page too, at another address
  EXPECT_EQ(b.mapped_pages(), snap.mapped_pages());
  EXPECT_FALSE(b.same_as(snap));
  b.map_range(0x10000, 4096);
  EXPECT_FALSE(b.same_as(snap));  // a superset is not equal either
}

TEST(Memory, DeltaRestoreWalksOnlyDirtyPages) {
  Memory mem;
  mem.map_range(0x10000, 8 * Memory::kPageSize);
  for (std::uint64_t p = 0; p < 8; ++p)
    mem.write(0x10000 + p * Memory::kPageSize, 8, p + 1);
  Memory::Snapshot snap = mem.snapshot();

  mem.restore(snap);  // arms dirty tracking against `snap`
  mem.write(0x10000, 8, 100);
  mem.write(0x10000 + 3 * Memory::kPageSize, 8, 300);
  const Memory::RestoreStats r = mem.restore_delta(snap);
  EXPECT_TRUE(r.delta);
  EXPECT_EQ(r.pages, 2u);  // only the two cloned pages, not all eight
  for (std::uint64_t p = 0; p < 8; ++p)
    EXPECT_EQ(mem.read(0x10000 + p * Memory::kPageSize, 8), p + 1);
}

TEST(Memory, DeltaRestoreFallsBackToFullWithoutABase) {
  Memory mem;
  mem.map_range(0x10000, 4096);
  mem.write(0x10000, 8, 1);
  Memory::Snapshot snap = mem.snapshot();
  // No restore(snap) has happened yet: the image does not derive from the
  // snapshot, so the delta path must not be taken.
  mem.write(0x10000, 8, 2);
  const Memory::RestoreStats r = mem.restore_delta(snap);
  EXPECT_FALSE(r.delta);
  EXPECT_EQ(mem.read(0x10000, 8), 1u);
  // reset() disarms tracking: the next restore_delta is full again.
  mem.reset();
  EXPECT_FALSE(mem.restore_delta(snap).delta);
  EXPECT_EQ(mem.read(0x10000, 8), 1u);
}

TEST(Memory, DeltaRestoreAgainstDifferentSnapshotFallsBack) {
  Memory mem;
  mem.map_range(0x10000, 4096);
  mem.write(0x10000, 8, 1);
  Memory::Snapshot a = mem.snapshot();
  mem.write(0x10000, 8, 2);
  Memory::Snapshot b = mem.snapshot();

  mem.restore(a);
  mem.write(0x10000, 8, 3);
  // Delta base is `a`; resetting to `b` must detect the mismatch.
  EXPECT_FALSE(mem.restore_delta(b).delta);
  EXPECT_EQ(mem.read(0x10000, 8), 2u);
  // ...and that full fallback re-arms tracking against `b`.
  mem.write(0x10000, 8, 4);
  const Memory::RestoreStats r = mem.restore_delta(b);
  EXPECT_TRUE(r.delta);
  EXPECT_EQ(mem.read(0x10000, 8), 2u);
}

TEST(Memory, DeltaRestoreUnmapsPagesMappedSinceTheSnapshot) {
  Memory mem;
  mem.map_range(0x10000, 4096);
  Memory::Snapshot snap = mem.snapshot();
  mem.restore(snap);
  mem.map_range(0x20000, 2 * Memory::kPageSize);  // absent from the snapshot
  mem.write(0x20000, 8, 7);
  const Memory::RestoreStats r = mem.restore_delta(snap);
  EXPECT_TRUE(r.delta);
  EXPECT_EQ(mem.mapped_pages(), snap.mapped_pages());
  EXPECT_FALSE(mem.is_mapped(0x20000));
  EXPECT_THROW(mem.read(0x20000, 8), TrapException);
}

TEST(Memory, DeltaRestoreUnderCowPageAliasing) {
  // Snapshot pages are aliased by the snapshot, the restored image, and a
  // second memory restored from the same snapshot. Dirty writes through one
  // image must never leak into the snapshot or the other image, and a delta
  // reset must bring back the exact shared page.
  Memory a;
  a.map_range(0x10000, 2 * Memory::kPageSize);
  a.write(0x10000, 8, 11);
  a.write(0x10000 + Memory::kPageSize, 8, 22);
  Memory::Snapshot snap = a.snapshot();

  Memory b;
  b.restore(snap);
  a.restore(snap);
  a.write(0x10000, 8, 1111);                      // clone in a only
  b.write(0x10000 + Memory::kPageSize, 8, 2222);  // clone in b only

  const Memory::RestoreStats ra = a.restore_delta(snap);
  EXPECT_TRUE(ra.delta);
  EXPECT_EQ(ra.pages, 1u);
  EXPECT_EQ(a.read(0x10000, 8), 11u);
  EXPECT_EQ(b.read(0x10000 + Memory::kPageSize, 8), 2222u);  // b untouched

  const Memory::RestoreStats rb = b.restore_delta(snap);
  EXPECT_TRUE(rb.delta);
  EXPECT_EQ(rb.pages, 1u);
  EXPECT_EQ(b.read(0x10000 + Memory::kPageSize, 8), 22u);
}

TEST(Memory, DeltaRestoreInvalidatesCachePrecisely) {
  // The last-page cache holds a writable pointer to a dirty page; the delta
  // walk must demote/invalidate it so the next read sees snapshot bytes.
  Memory mem;
  mem.map_range(0x10000, 4096);
  mem.write(0x10000, 8, 1);
  Memory::Snapshot snap = mem.snapshot();
  mem.restore(snap);
  mem.write(0x10000, 8, 2);             // cache hot and writable
  EXPECT_EQ(mem.read(0x10000, 8), 2u);  // served from the cache
  EXPECT_TRUE(mem.restore_delta(snap).delta);
  EXPECT_EQ(mem.read(0x10000, 8), 1u);
  // A snapshot also demotes the cache: writing after it must still clone.
  mem.write(0x10000, 8, 3);
  EXPECT_TRUE(mem.restore_delta(snap).delta);
  EXPECT_EQ(mem.read(0x10000, 8), 1u);
}

TEST(Memory, DeltaRestoreEquivalenceFuzz) {
  // Random write/map/restore workload executed twice — once with full
  // restores, once with delta restores — must produce byte-identical
  // images at every reset.
  constexpr std::uint64_t kBase = 0x10000;
  constexpr std::uint64_t kPages = 32;
  Memory full;
  Memory delta;
  for (Memory* m : {&full, &delta}) m->map_range(kBase, kPages * Memory::kPageSize);

  Rng rng(0xF00D);
  Memory::Snapshot snap_full = full.snapshot();
  Memory::Snapshot snap_delta = delta.snapshot();
  full.restore(snap_full);
  delta.restore(snap_delta);

  for (int round = 0; round < 200; ++round) {
    const int writes = static_cast<int>(rng.below(8));
    for (int w = 0; w < writes; ++w) {
      const std::uint64_t page = rng.below(kPages);
      const std::uint64_t offset = rng.below(Memory::kPageSize - 8);
      const std::uint64_t value = rng();
      full.write(kBase + page * Memory::kPageSize + offset, 8, value);
      delta.write(kBase + page * Memory::kPageSize + offset, 8, value);
    }
    switch (rng.below(4)) {
      case 0:  // reset both images to the snapshot
        full.restore(snap_full);
        delta.restore_delta(snap_delta);
        break;
      case 1: {  // re-snapshot: later resets target the new image
        snap_full = full.snapshot();
        snap_delta = delta.snapshot();
        full.restore(snap_full);
        delta.restore_delta(snap_delta);
        break;
      }
      default:
        break;  // keep writing
    }
    for (int probe = 0; probe < 8; ++probe) {
      const std::uint64_t page = rng.below(kPages);
      const std::uint64_t offset = rng.below(Memory::kPageSize - 8);
      const std::uint64_t addr = kBase + page * Memory::kPageSize + offset;
      ASSERT_EQ(full.read(addr, 8), delta.read(addr, 8))
          << "round " << round << " addr " << addr;
    }
    ASSERT_EQ(full.mapped_pages(), delta.mapped_pages());
  }
}

TEST(Runtime, HeapAllocAlignmentAndGrowth) {
  Memory mem;
  Runtime rt(mem);
  const std::uint64_t a = rt.heap_alloc(10);
  const std::uint64_t b = rt.heap_alloc(1);
  EXPECT_EQ(a % 16, 0u);
  EXPECT_EQ(b % 16, 0u);
  EXPECT_GT(b, a);
  mem.write(a, 8, 7);  // allocation is mapped
  EXPECT_EQ(mem.read(a, 8), 7u);
}

TEST(Runtime, HeapExhaustionReturnsNull) {
  Memory mem;
  Runtime rt(mem);
  EXPECT_EQ(rt.heap_alloc(1ull << 40), 0u);
}

TEST(Runtime, DoubleFreeAndBadFreeTrap) {
  Memory mem;
  Runtime rt(mem);
  const std::uint64_t a = rt.heap_alloc(16);
  rt.heap_free(a);
  EXPECT_THROW(rt.heap_free(a), TrapException);
  EXPECT_THROW(rt.heap_free(0x123456), TrapException);
  rt.heap_free(0);  // free(NULL) is a no-op
}

TEST(Runtime, PrintBuiltinsFormat) {
  Memory mem;
  Runtime rt(mem);
  rt.call_builtin("print_int", {static_cast<std::uint64_t>(-42)});
  rt.call_builtin("print_double", {bits_of(2.5)});
  rt.call_builtin("print_char", {'x'});
  EXPECT_EQ(rt.output(), "-42\n2.5\nx");
}

TEST(Runtime, PrintStrReadsSimulatedMemoryAndTraps) {
  Memory mem;
  Runtime rt(mem);
  const std::uint64_t a = rt.heap_alloc(8);
  const char* s = "hey";
  mem.write_bytes(a, reinterpret_cast<const std::uint8_t*>(s), 4);
  rt.call_builtin("print_str", {a});
  EXPECT_EQ(rt.output(), "hey");
  EXPECT_THROW(rt.call_builtin("print_str", {0x40}), TrapException);
}

TEST(Runtime, MathBuiltins) {
  Memory mem;
  Runtime rt(mem);
  EXPECT_DOUBLE_EQ(double_of(rt.call_builtin("sqrt", {bits_of(9.0)})), 3.0);
  EXPECT_DOUBLE_EQ(double_of(rt.call_builtin("fabs", {bits_of(-2.5)})), 2.5);
  EXPECT_DOUBLE_EQ(double_of(rt.call_builtin("floor", {bits_of(2.9)})), 2.0);
}

TEST(Runtime, IsBuiltinMatchesSemaList) {
  for (const auto& spec : mc::builtin_specs())
    EXPECT_TRUE(Runtime::is_builtin(spec.name)) << spec.name;
  EXPECT_FALSE(Runtime::is_builtin("nonsense"));
}

TEST(GlobalLayout, AssignsAlignedNonOverlappingAddresses) {
  ir::Module m("t");
  auto& t = m.types();
  auto* a = m.create_global(t.i8(), "a");
  auto* b = m.create_global(t.double_type(), "b");
  auto* c = m.create_global(t.array_of(t.i32(), 10), "c");
  GlobalLayout layout(m);
  EXPECT_EQ(layout.address_of(a), Layout::kGlobalBase);
  EXPECT_EQ(layout.address_of(b) % 8, 0u);
  EXPECT_GE(layout.address_of(c), layout.address_of(b) + 8);
  EXPECT_GE(layout.total_size(), 1u + 8u + 40u);
}

TEST(GlobalLayout, MaterializesInitializers) {
  ir::Module m("t");
  auto& t = m.types();
  m.create_global(t.i32(), "x", {0x78, 0x56, 0x34, 0x12});
  GlobalLayout layout(m);
  Memory mem;
  layout.materialize(mem);
  EXPECT_EQ(mem.read(Layout::kGlobalBase, 4), 0x12345678u);
}

TEST(Trap, NamesAreStable) {
  EXPECT_STREQ(trap_kind_name(TrapKind::UnmappedAccess), "unmapped-access");
  EXPECT_STREQ(trap_kind_name(TrapKind::DivideByZero), "divide-by-zero");
  EXPECT_STREQ(trap_kind_name(TrapKind::InvalidJump), "invalid-jump");
}

}  // namespace
}  // namespace faultlab::machine
