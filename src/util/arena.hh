/**
 * @file
 * Page-aligned table storage with cache-collision prevention.
 *
 * Per the paper's §IV: table base addresses are page aligned to exploit
 * TLB entries, but since the number of L1 sets divides the page size, a
 * naive page alignment maps the same offsets of every table onto the same
 * cache sets (only associativity-many tables could then be co-accessed).
 * The allocator therefore shifts each successive table's base by one
 * additional cache line (mod page size), so up to sets x associativity
 * tables can be scanned concurrently without inter-table conflict misses.
 */

#ifndef DVP_UTIL_ARENA_HH
#define DVP_UTIL_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>

namespace dvp
{

/** Geometry constants shared by the allocator and the perf simulator. */
constexpr size_t kCacheLineSize = 64;
constexpr size_t kPageSize = 4096;

/**
 * An owning, shifted, page-aligned byte buffer.
 *
 * The usable region starts @c shift bytes past a page boundary, where
 * @c shift is a multiple of the cache line size chosen by the Arena.
 */
class AlignedBuffer
{
  public:
    AlignedBuffer() = default;
    AlignedBuffer(size_t bytes, size_t shift);
    ~AlignedBuffer();

    AlignedBuffer(AlignedBuffer &&other) noexcept;
    AlignedBuffer &operator=(AlignedBuffer &&other) noexcept;
    AlignedBuffer(const AlignedBuffer &) = delete;
    AlignedBuffer &operator=(const AlignedBuffer &) = delete;

    /** True when the buffer is (simulated-)huge-page backed. */
    bool hugePaged() const { return huge; }

    /** Start of the usable (shifted) region. */
    uint8_t *data() { return usable; }
    const uint8_t *data() const { return usable; }

    /** Usable size in bytes. */
    size_t size() const { return bytes_; }

    /** Cache-line shift past the page boundary, in bytes. */
    size_t shift() const { return shift_; }

    bool valid() const { return usable != nullptr; }

  private:
    void release();

    std::unique_ptr<uint8_t[]> raw;
    uint8_t *usable = nullptr;
    size_t bytes_ = 0;
    size_t shift_ = 0;
    bool huge = false;
};

/**
 * Allocator for table storage implementing the cache-line shift policy.
 * Not thread-safe; each Database owns one Arena.
 */
class Arena
{
  public:
    /**
     * Allocate @p bytes with the next shift in the rotation.
     * @param bytes usable capacity requested (may be zero).
     */
    AlignedBuffer allocate(size_t bytes);

    /**
     * Allocate @p bytes at a fixed @p shift_bytes past the page
     * boundary, without consuming a rotation slot.  Used when a table
     * regrows: the replacement buffer must keep the table's original
     * shift, or regrowth would both re-collide tables onto shared
     * cache sets and burn rotation positions the next new table was
     * entitled to.
     */
    AlignedBuffer reallocate(size_t bytes, size_t shift_bytes);

    /** Total usable bytes handed out so far. */
    size_t allocatedBytes() const { return total; }

  private:
    size_t next_shift = 0;
    size_t total = 0;
};

} // namespace dvp

#endif // DVP_UTIL_ARENA_HH
