/**
 * @file
 * Small POSIX file helpers for crash-safe persistence, shared by the
 * snapshot writer (src/persist) and the durability subsystem
 * (src/durability).  Every byte written funnels through the global
 * FaultInjector, so crash-injection tests can kill a write at any
 * offset of any durable artifact.
 *
 * The core primitive is atomicWriteFile(): write to "<path>.tmp",
 * fsync the data, rename over the target, fsync the directory.  A
 * crash at any point leaves either the complete old file or the
 * complete new file — never a torn mixture — because rename(2) is
 * atomic on POSIX filesystems.
 */

#ifndef DVP_UTIL_DURABLE_FILE_HH
#define DVP_UTIL_DURABLE_FILE_HH

#include <cstdint>
#include <string>

#include "util/codec.hh"

namespace dvp
{

/**
 * Write @p n bytes to @p fd, retrying short writes and EINTR, asking
 * the FaultInjector before every chunk.  @return bytes actually
 * written; < n means the write failed (fault or I/O error, errno
 * preserved for the latter).
 */
size_t writeFully(int fd, const void *data, size_t n);

/**
 * Atomically replace @p path with @p bytes (temp + rename; see the
 * file comment).  @p do_fsync false skips the fsyncs (callers that
 * only need atomicity, not durability).
 * @return empty string on success, error message otherwise.
 */
std::string atomicWriteFile(const std::string &path,
                            const std::string &bytes,
                            bool do_fsync = true);

/** fsync a directory so renames/creates inside it are durable. */
std::string fsyncDir(const std::string &dir);

/**
 * Read the whole of @p path into @p out.
 * @return empty string on success, error message otherwise.
 */
std::string readWholeFile(const std::string &path, std::string &out);

/**
 * Durable formats open with a magic of a fixed prefix and one version
 * digit ("DVPMAN1", "DVPWAL1", "DVPSNAP2").  @return that digit (1-9)
 * when @p bytes open with @p prefix and a digit, else 0: the bytes are
 * not this format at all.
 */
int formatVersion(const std::string &bytes, const char *prefix);

/**
 * The error for a file written by a newer binary: "<kind> format vN,
 * this binary reads ≤ vM" — named, so it does not read as corruption.
 */
std::string newerFormatError(const char *kind, int found, int reads);

/**
 * The envelope the checkpoint image and the manifest share: an 8-byte
 * magic (prefix, version digit, NUL padding), the body, and a
 * trailing u32 CRC-32 of every byte before it.  Each format keeps its
 * own refusal texts.
 */
struct Envelope
{
    const char *kind;   ///< names a newer format (newerFormatError)
    const char *prefix; ///< the magic up to its version digit
    int version;        ///< the one version written
    const char *badMagic;
    const char *truncated;
    const char *badCrc;

    /** Start an image in @p w: write the magic. */
    void begin(Writer &w) const;

    /** Finish an image: append the CRC-32 of everything in @p w. */
    static void seal(Writer &w);

    /**
     * Check @p bytes: a newer version is named, then the magic, the
     * length and the CRC are checked.  @return error message or
     * empty; on success @p body reads the bytes between the magic and
     * the CRC.
     */
    std::string open(const std::string &bytes, Reader &body) const;

  private:
    /** The 8 magic bytes: prefix, version digit, NUL padding. */
    std::string magic() const;
};

} // namespace dvp

#endif // DVP_UTIL_DURABLE_FILE_HH
