#include "engine/load.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstring>

#include "engine/database.hh"
#include "json/flatten.hh"
#include "json/parser.hh"
#include "util/thread_pool.hh"

namespace dvp::engine
{

namespace
{

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** One newline-aligned slice of the input. */
struct Chunk
{
    size_t begin = 0;
    size_t end = 0;
    size_t firstLine = 1; ///< 1-based global line number of its first line
};

/**
 * Target chunk payload.  Small enough that a wave of lanes x 2 chunks
 * keeps every lane fed even with skewed document sizes; large enough
 * that per-chunk overhead (buffers, dispatch) is noise.
 */
constexpr size_t kChunkTarget = 1u << 18;

std::vector<Chunk>
splitChunks(std::string_view text, size_t threads)
{
    std::vector<Chunk> chunks;
    if (text.empty())
        return chunks;
    // With few lanes prefer fewer, larger chunks (less bookkeeping);
    // never fewer than one chunk per lane so every lane has work.
    size_t target = kChunkTarget;
    if (threads > 1 && text.size() / threads < target)
        target = text.size() / threads + 1;
    size_t pos = 0;
    size_t line = 1;
    while (pos < text.size()) {
        size_t end = pos + target;
        if (end >= text.size()) {
            end = text.size();
        } else {
            const char *nl = static_cast<const char *>(
                std::memchr(text.data() + end, '\n', text.size() - end));
            end = nl != nullptr
                      ? static_cast<size_t>(nl - text.data()) + 1
                      : text.size();
        }
        chunks.push_back({pos, end, line});
        for (size_t i = pos; i < end; ++i)
            if (text[i] == '\n')
                ++line;
        pos = end;
    }
    return chunks;
}

bool
blankLine(std::string_view line)
{
    for (char c : line)
        if (!std::isspace(static_cast<unsigned char>(c)))
            return false;
    return true;
}

/** Parsed output of one chunk; reused across waves (slot per lane). */
struct ChunkResult
{
    std::vector<std::vector<json::FlatAttr>> flats;
    size_t used = 0;       ///< documents parsed into flats this chunk
    std::string error;     ///< first parse error, if any
    size_t errorLine = 0;  ///< its global line number
    LoadStats stats;

    std::vector<json::FlatAttr> &
    next()
    {
        if (used == flats.size())
            flats.emplace_back();
        return flats[used++];
    }
};

/** Flatten every line of @p chunk with the tape parser. */
void
parseChunkTape(std::string_view text, const Chunk &chunk,
               const LoadOptions &opt, json::TapeParser &parser,
               ChunkResult &res)
{
    res.used = 0;
    res.error.clear();
    res.errorLine = 0;
    res.stats = LoadStats{};
    uint64_t fallbacks_before = parser.fallbacks();
    size_t pos = chunk.begin;
    size_t line_no = chunk.firstLine;
    while (pos < chunk.end) {
        const char *nl = static_cast<const char *>(
            std::memchr(text.data() + pos, '\n', chunk.end - pos));
        size_t eol = nl != nullptr ? static_cast<size_t>(nl - text.data())
                                   : chunk.end;
        std::string_view ln = text.substr(pos, eol - pos);
        pos = eol + 1;
        size_t this_line = line_no++;
        if (blankLine(ln))
            continue;
        auto &flat = res.next();
        bool ok;
        if (opt.timeStages) {
            uint64_t t0 = nowNs();
            ok = parser.index(ln);
            uint64_t t1 = nowNs();
            res.stats.indexNs += t1 - t0;
            if (ok) {
                ok = parser.walk(ln, flat);
                res.stats.walkNs += nowNs() - t1;
            }
        } else {
            ok = parser.flatten(ln, flat);
        }
        if (!ok) {
            --res.used;
            res.error = parser.error();
            res.errorLine = this_line;
            return;
        }
        ++res.stats.docs;
        res.stats.bytes += ln.size();
    }
    res.stats.fallbackDocs = parser.fallbacks() - fallbacks_before;
}

/** Flatten every line of @p chunk with the DOM parser (baseline). */
void
parseChunkDom(std::string_view text, const Chunk &chunk,
              const LoadOptions &opt, ChunkResult &res)
{
    res.used = 0;
    res.error.clear();
    res.errorLine = 0;
    res.stats = LoadStats{};
    size_t pos = chunk.begin;
    size_t line_no = chunk.firstLine;
    while (pos < chunk.end) {
        const char *nl = static_cast<const char *>(
            std::memchr(text.data() + pos, '\n', chunk.end - pos));
        size_t eol = nl != nullptr ? static_cast<size_t>(nl - text.data())
                                   : chunk.end;
        std::string_view ln = text.substr(pos, eol - pos);
        pos = eol + 1;
        size_t this_line = line_no++;
        if (blankLine(ln))
            continue;
        uint64_t t0 = opt.timeStages ? nowNs() : 0;
        json::ParseResult pr = json::parse(ln, json::kTapeDefaultMaxDepth);
        std::string err;
        if (!pr.ok) {
            err = pr.error;
        } else if (!pr.value.isObject()) {
            err = "top-level JSON value is not an object";
        }
        if (!err.empty()) {
            res.error = std::move(err);
            res.errorLine = this_line;
            return;
        }
        auto &flat = res.next();
        flat = json::flatten(pr.value);
        if (opt.timeStages)
            res.stats.walkNs += nowNs() - t0;
        ++res.stats.docs;
        res.stats.bytes += ln.size();
    }
}

} // namespace

std::string
parseNdjsonFlat(std::string_view text, const LoadOptions &opt,
                LoadStats *stats, const FlatSink &sink)
{
    size_t threads = opt.threads == 0 ? 1 : opt.threads;
    std::vector<Chunk> chunks = splitChunks(text, threads);
    size_t wave = threads * 2;

    // Lane ids come from the shared pool's full range, not [0,
    // threads), so scratch parsers must cover every possible lane.
    size_t lanes = threads == 1
                       ? 1
                       : std::max(threads, ThreadPool::shared().laneCount());
    std::vector<json::TapeParser> parsers(lanes);
    for (auto &p : parsers)
        p.setForm(opt.form);
    std::vector<ChunkResult> results(wave);

    LoadStats agg;
    bool simd_index =
        opt.form == json::TapeForm::Simd ||
        (opt.form == json::TapeForm::Auto && json::tapeSimdActive());

    for (size_t base = 0; base < chunks.size(); base += wave) {
        size_t count = std::min(wave, chunks.size() - base);
        auto parseOne = [&](size_t i, size_t lane) {
            const Chunk &c = chunks[base + i];
            if (opt.parser == LoadParser::Dom)
                parseChunkDom(text, c, opt, results[i]);
            else
                parseChunkTape(text, c, opt, parsers[lane], results[i]);
        };
        if (threads == 1) {
            for (size_t i = 0; i < count; ++i)
                parseOne(i, 0);
        } else {
            ThreadPool::shared().parallelFor(count, threads, parseOne);
        }

        // Serial stage: sink in input order; all order-sensitive state
        // (oids, catalog, dictionary) changes only here.
        for (size_t i = 0; i < count; ++i) {
            ChunkResult &res = results[i];
            uint64_t t0 = nowNs();
            for (size_t k = 0; k < res.used; ++k)
                sink(res.flats[k]);
            agg.encodeNs += nowNs() - t0;
            agg.docs += res.stats.docs;
            agg.bytes += res.stats.bytes;
            agg.indexNs += res.stats.indexNs;
            agg.walkNs += res.stats.walkNs;
            agg.fallbackDocs += res.stats.fallbackDocs;
            if (!res.error.empty()) {
                json::countParsedDocs(simd_index,
                                      opt.parser == LoadParser::Dom,
                                      agg.docs, agg.bytes,
                                      agg.fallbackDocs);
                if (stats != nullptr)
                    *stats = agg;
                return "line " + std::to_string(res.errorLine) + ": " +
                       res.error;
            }
        }
    }
    json::countParsedDocs(simd_index, opt.parser == LoadParser::Dom,
                          agg.docs, agg.bytes, agg.fallbackDocs);
    if (stats != nullptr)
        *stats = agg;
    return "";
}

std::string
loadNdjson(DataSet &data, std::string_view text, const LoadOptions &opt,
           LoadStats *stats)
{
    return parseNdjsonFlat(text, opt, stats,
                           [&](const std::vector<json::FlatAttr> &flat) {
                               data.addFlat(flat);
                           });
}

} // namespace dvp::engine
