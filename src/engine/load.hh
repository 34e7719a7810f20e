/**
 * @file
 * Bulk NDJSON loading: the tape parser (json/tape.hh) fanned across the
 * shared ThreadPool, with deterministic output.
 *
 * The pipeline is parallel-parse / serial-encode: the input is split at
 * newline boundaries into chunks, each wave of chunks is flattened
 * concurrently (one reusable TapeParser per lane), and the resulting
 * FlatAttr batches are handed to the sink serially in input order.  All
 * order-sensitive state — oid assignment, catalog AttrIds, dictionary
 * StringIds — is touched only by the serial stage, so a parallel load
 * is bit-identical to a serial one by construction, at any thread
 * count.  Waves bound peak memory to O(threads x chunk) regardless of
 * input size.
 *
 * Error semantics match json::parseLines: documents before the first
 * bad line are kept (already sunk), and the returned error reads
 * "line N: <reason>" with a 1-based global line number.
 */

#ifndef DVP_ENGINE_LOAD_HH
#define DVP_ENGINE_LOAD_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "json/tape.hh"

namespace dvp::engine
{

struct DataSet;

/** Which parser the loader runs (Dom exists as oracle and baseline). */
enum class LoadParser : uint8_t { Tape, Dom };

/** Knobs for one bulk load. */
struct LoadOptions
{
    LoadParser parser = LoadParser::Tape;
    /** Structural-index form for the tape parser. */
    json::TapeForm form = json::TapeForm::Auto;
    /** Parse lanes; 1 = serial on the caller, no pool involvement. */
    size_t threads = 1;
    /**
     * Time index/walk per document into LoadStats (two extra clock
     * pairs per doc; leave off except when benching the breakdown).
     */
    bool timeStages = false;
};

/** Aggregate counters for one load (plain values; single-writer). */
struct LoadStats
{
    uint64_t docs = 0;         ///< documents successfully flattened
    uint64_t bytes = 0;        ///< payload bytes of those documents
    uint64_t indexNs = 0;      ///< stage 1 (structural index) time
    uint64_t walkNs = 0;       ///< stage 2 (flatten walk) time
    uint64_t encodeNs = 0;     ///< serial sink/encode time
    uint64_t fallbackDocs = 0; ///< answered via the DOM slow path
};

/**
 * Serial consumer of parsed documents, invoked in input order.  The
 * vector is the loader's reusable buffer: copy/encode, don't keep the
 * reference.
 */
using FlatSink = std::function<void(const std::vector<json::FlatAttr> &)>;

/**
 * Parse NDJSON @p text and feed every document's flattened attributes
 * to @p sink in input order (parallel parse, serial sink).  Blank
 * lines are skipped.  Returns "" on success or "line N: <reason>" on
 * the first bad line; documents before it have already been sunk.
 */
std::string parseNdjsonFlat(std::string_view text, const LoadOptions &opt,
                            LoadStats *stats, const FlatSink &sink);

/**
 * Bulk-load NDJSON into @p data via DataSet::addFlat.  Oids are
 * assigned in input order at every thread count.
 */
std::string loadNdjson(DataSet &data, std::string_view text,
                       const LoadOptions &opt, LoadStats *stats = nullptr);

} // namespace dvp::engine

#endif // DVP_ENGINE_LOAD_HH
