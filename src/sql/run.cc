#include "sql/run.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "json/tape.hh"
#include "obs/metrics.hh"
#include "sql/explain.hh"
#include "sql/parser.hh"
#include "util/timer.hh"

namespace dvp::sql
{

namespace
{

/**
 * LOAD DATA: read @p path, tape-parse it on the engine's lanes, and
 * append the whole file with one ingest call — or nothing, when any
 * line fails to parse.
 */
RunResult
runLoad(adaptive::AdaptiveEngine &eng, const std::string &path)
{
    RunResult res;
    res.errorKind = RunResult::Error::Exec;
    Timer wall;
    std::ifstream in(path);
    if (!in) {
        res.error = "cannot open '" + path + "'";
        return res;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    engine::LoadOptions opt;
    opt.threads = eng.threads();
    opt.timeStages = true;
    engine::LoadStats stats;
    Timer parse;
    std::vector<std::vector<json::FlatAttr>> flats;
    std::string err = engine::parseNdjsonFlat(
        text, opt, &stats,
        [&](const std::vector<json::FlatAttr> &flat) {
            flats.push_back(flat);
        });
    adaptive::IngestAck ack;
    if (err.empty()) {
        Timer encode;
        ack = eng.ingest(flats);
        stats.encodeNs += static_cast<uint64_t>(encode.seconds() * 1e9);
    }
    DVP_HISTOGRAM_OBSERVE("dvp_parse_duration_ns",
                          static_cast<uint64_t>(parse.seconds() * 1e9));
    res.seconds = wall.seconds();
    res.load = stats;
    DVP_COUNTER_ADD("dvp_load_stage_ns_total{stage=\"index\"}",
                    stats.indexNs);
    DVP_COUNTER_ADD("dvp_load_stage_ns_total{stage=\"flatten\"}",
                    stats.walkNs);
    DVP_COUNTER_ADD("dvp_load_stage_ns_total{stage=\"encode\"}",
                    stats.encodeNs);
    if (!err.empty()) {
        res.error = "parse error: " + err + " (nothing loaded)";
        return res;
    }
    if (!ack.walError.empty()) {
        // Log-before-ack, exactly as INSERT.
        res.error = "LOAD not durable: " + ack.walError;
        return res;
    }
    char msg[96];
    std::snprintf(msg, sizeof(msg), "LOAD %zu (%zu docs, epoch %llu)",
                  ack.count, ack.totalDocs,
                  static_cast<unsigned long long>(ack.epoch));
    res.ok = true;
    res.errorKind = RunResult::Error::None;
    res.kind = RunResult::Kind::Message;
    res.message = msg;
    return res;
}

} // namespace

RunResult
runStatement(adaptive::AdaptiveEngine &eng, const std::string &text,
             bool allowLoad, bool allowInsert)
{
    RunResult res;
    // Parsing resolves names against the live catalog and dictionary
    // and samples docs, all of which a concurrent INSERT grows.
    ParseResult parsed = eng.read([&](const engine::Database &db) {
        return parse(text, db.data());
    });
    if (!parsed.ok) {
        res.errorKind = RunResult::Error::Parse;
        res.error = parsed.error;
        return res;
    }

    switch (parsed.kind) {
      case StatementKind::Load: {
        if (!allowLoad) {
            res.errorKind = RunResult::Error::Unsupported;
            res.error = "LOAD DATA is not supported on this connection";
            return res;
        }
        return runLoad(eng, parsed.loadFile);
      }

      case StatementKind::Insert: {
        if (!allowInsert) {
            res.errorKind = RunResult::Error::ReadOnly;
            res.error = "INSERT is not allowed on this connection";
            return res;
        }
        // Flatten each body with the tape parser (DOM-free fast path);
        // thread_local so per-statement calls reuse the tape buffers.
        thread_local json::TapeParser tape;
        std::vector<std::vector<json::FlatAttr>> docs(
            parsed.insertJson.size());
        for (size_t i = 0; i < parsed.insertJson.size(); ++i) {
            if (!tape.flatten(parsed.insertJson[i], docs[i])) {
                res.errorKind = RunResult::Error::Parse;
                res.error = "bad JSON document: " + tape.error();
                return res;
            }
            json::countParsedDoc(json::tapeSimdActive(), false,
                                 parsed.insertJson[i].size());
        }
        adaptive::IngestAck ack = eng.ingest(docs);
        if (!ack.walError.empty()) {
            // Log-before-ack: the durable log refused the batch, so
            // the statement fails instead of acknowledging documents
            // that would not survive a crash.
            res.errorKind = RunResult::Error::Exec;
            res.error = "INSERT not durable: " + ack.walError;
            return res;
        }
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "INSERT %zu (%zu docs, epoch %llu)", ack.count,
                      ack.totalDocs,
                      static_cast<unsigned long long>(ack.epoch));
        res.ok = true;
        res.kind = RunResult::Kind::Message;
        res.message = buf;
        return res;
      }

      case StatementKind::Checkpoint: {
        durability::Manager *dur = eng.durability();
        if (!dur) {
            res.errorKind = RunResult::Error::Unsupported;
            res.error = "no durable storage configured (start with "
                        "--data-dir)";
            return res;
        }
        durability::CheckpointResult ck = dur->checkpointNow();
        if (!ck.ok) {
            res.errorKind = RunResult::Error::Exec;
            res.error = "CHECKPOINT failed: " + ck.error;
            return res;
        }
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "CHECKPOINT (%s, %llu docs, lsn %llu, %zu "
                      "segment(s) removed, %.3f ms)",
                      ck.snapshotFile.c_str(),
                      static_cast<unsigned long long>(ck.docs),
                      static_cast<unsigned long long>(ck.walLsn),
                      ck.segmentsRemoved, ck.seconds * 1e3);
        res.ok = true;
        res.kind = RunResult::Kind::Message;
        res.message = buf;
        return res;
      }

      case StatementKind::Explain: {
        char head[64];
        std::snprintf(head, sizeof(head), "est. selectivity %.4f\n",
                      parsed.query.selectivity);
        res.ok = true;
        res.kind = RunResult::Kind::Message;
        res.query = parsed.query;
        if (parsed.analyze) {
            // Execute for real (workload stats and the plan cache see
            // the query exactly as a plain SELECT would), then render
            // the plan with the measured execution section.
            Timer t;
            engine::ResultSet rows =
                eng.execute(parsed.query, &res.stats);
            res.seconds = t.seconds();
            res.hasStats = true;
            // Render against the live database under the engine's read
            // lock; the header names the epoch that actually ran.
            res.message =
                std::string(head) +
                eng.read([&](const engine::Database &db) {
                    return explainAnalyze(db, parsed.query, res.stats,
                                          rows);
                });
            return res;
        }
        res.message = std::string(head) +
                      eng.read([&](const engine::Database &db) {
                          return explain(db, parsed.query,
                                         &eng.planCache());
                      });
        return res;
      }

      case StatementKind::Query: {
        Timer t;
        res.rows = eng.execute(parsed.query, &res.stats);
        res.seconds = t.seconds();
        res.hasStats = true;
        res.ok = true;
        res.kind = RunResult::Kind::Rows;
        res.query = std::move(parsed.query);
        return res;
      }
    }
    res.errorKind = RunResult::Error::Unsupported;
    res.error = "unhandled statement kind";
    return res;
}

std::vector<std::string>
resultColumns(const engine::DataSet &data, const engine::Query &q)
{
    if (q.kind == engine::QueryKind::Aggregate)
        return {"group", "count"};
    if (q.kind == engine::QueryKind::Join)
        return {"left oid", "right oid"};
    if (q.selectAll)
        return {"oid", "non-null attrs"};
    std::vector<std::string> cols;
    cols.reserve(q.projected.size());
    for (storage::AttrId a : q.projected)
        cols.push_back(a == storage::kNoAttr ? "?"
                                             : data.catalog.name(a));
    return cols;
}

} // namespace dvp::sql
