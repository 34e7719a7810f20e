/**
 * dvpd — the DVP network query server.
 *
 * Seeds an AdaptiveEngine with synthetic NoBench documents (or a
 * JSON-lines file), then serves SQL over the binary wire protocol
 * until SIGINT/SIGTERM, which triggers a graceful drain: in-flight
 * statements finish and deliver their responses, new ones are refused
 * with SHUTTING_DOWN, then the process exits (flushing any --metrics
 * or --trace dumps on the way out).
 *
 *   dvpd [options]
 *     --gen N               seed N synthetic NoBench docs (default 2000)
 *     --load FILE           seed from a JSON-lines file instead
 *     --host H              bind address        (default 127.0.0.1)
 *     --port P              TCP port; 0 = ephemeral (default 7437)
 *     --port-file FILE      write the bound port to FILE (CI discovery)
 *     --workers N           executor worker threads (default 2)
 *     --max-inflight N      admission watermark     (default 64)
 *     --idle-timeout-ms N   reap idle connections; 0 = never (default 0)
 *     --allow-load          permit LOAD DATA of server-local files
 *                           (parsed on --threads lanes; a file with a
 *                           bad line loads nothing)
 *     --allow-insert        permit INSERT statements (each batch is
 *                           appended to the live partitions in place)
 *     --threads N           executor lanes per query and parser
 *                           lanes per LOAD DATA (default 1)
 *     --http-port P         serve GET /metrics and /healthz over HTTP
 *                           (0 = ephemeral; omit to disable)
 *     --http-port-file FILE write the bound HTTP port to FILE
 *     --slow-ms N           slow-query threshold in ms (with
 *                           --slow-query-log)
 *     --slow-query-log FILE append one NDJSON record per slow query
 *     --audit               dump the adaptive-decision audit ring at
 *                           exit
 *     --metrics FILE        dump the metric registry at exit
 *     --trace FILE          dump spans at exit
 *
 *   Durability (see src/durability/):
 *     --data-dir DIR        durable data directory: WAL + checkpoints.
 *                           On boot, existing state is recovered (load
 *                           snapshot, replay WAL tail) and --gen/--load
 *                           are ignored; a fresh directory is seeded
 *                           and an initial checkpoint captures the seed.
 *                           One dvpd owns a directory: a second one on
 *                           the same DIR exits 1 (flock on DIR/LOCK).
 *     --fsync POLICY        always | interval | none  (default always)
 *     --fsync-interval-ms N interval policy timer     (default 50)
 *     --checkpoint-wal-mb N auto-checkpoint after N MB of WAL growth;
 *                           0 disables                (default 64)
 *     --wal-segment-mb N    WAL segment roll size     (default 64)
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "adaptive/adaptive_engine.hh"
#include "durability/manager.hh"
#include "engine/load.hh"
#include "nobench/generator.hh"
#include "obs/export.hh"
#include "server/server.hh"
#include "util/random.hh"
#include "util/timer.hh"

using namespace dvp;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--gen N | --load FILE] [--host H] "
                 "[--port P] [--port-file FILE] [--workers N] "
                 "[--max-inflight N] [--idle-timeout-ms N] "
                 "[--allow-load] [--allow-insert] [--threads N] "
                 "[--http-port P] "
                 "[--http-port-file FILE] [--slow-ms N] "
                 "[--slow-query-log FILE] [--audit] [--metrics FILE] "
                 "[--trace FILE] [--data-dir DIR] "
                 "[--fsync always|interval|none] "
                 "[--fsync-interval-ms N] [--checkpoint-wal-mb N] "
                 "[--wal-segment-mb N]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    obs::DumpScope obs_dump = obs::scanArgs(argc, argv);

    uint64_t gen_docs = 2000;
    std::string load_path;
    server::Config cfg;
    cfg.port = 7437;
    size_t exec_threads = 1;
    std::string port_file;
    std::string http_port_file;
    bool dump_audit = false;
    durability::Config dur_cfg;
    dur_cfg.checkpointWalBytes = 64u << 20;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--gen")
            gen_docs = std::strtoull(next("--gen"), nullptr, 10);
        else if (a == "--load")
            load_path = next("--load");
        else if (a == "--host")
            cfg.host = next("--host");
        else if (a == "--port")
            cfg.port = static_cast<uint16_t>(
                std::strtoul(next("--port"), nullptr, 10));
        else if (a == "--port-file")
            port_file = next("--port-file");
        else if (a == "--workers")
            cfg.workers = std::strtoull(next("--workers"), nullptr, 10);
        else if (a == "--max-inflight")
            cfg.maxInflight =
                std::strtoull(next("--max-inflight"), nullptr, 10);
        else if (a == "--idle-timeout-ms")
            cfg.idleTimeoutMs = static_cast<int>(
                std::strtol(next("--idle-timeout-ms"), nullptr, 10));
        else if (a == "--allow-load")
            cfg.allowLoad = true;
        else if (a == "--allow-insert")
            cfg.allowInsert = true;
        else if (a == "--threads")
            exec_threads =
                std::strtoull(next("--threads"), nullptr, 10);
        else if (a == "--http-port")
            cfg.httpPort = static_cast<uint16_t>(
                std::strtoul(next("--http-port"), nullptr, 10));
        else if (a == "--http-port-file")
            http_port_file = next("--http-port-file");
        else if (a == "--slow-ms")
            cfg.slowMs = static_cast<uint32_t>(
                std::strtoul(next("--slow-ms"), nullptr, 10));
        else if (a == "--slow-query-log")
            cfg.slowLogPath = next("--slow-query-log");
        else if (a == "--audit")
            dump_audit = true;
        else if (a == "--data-dir")
            dur_cfg.dir = next("--data-dir");
        else if (a == "--fsync") {
            const char *pol = next("--fsync");
            if (!durability::parseFsyncPolicy(pol,
                                              dur_cfg.fsyncPolicy)) {
                std::fprintf(stderr,
                             "--fsync must be always, interval or "
                             "none (got '%s')\n",
                             pol);
                return 2;
            }
        } else if (a == "--fsync-interval-ms")
            dur_cfg.fsyncIntervalMs = std::strtoull(
                next("--fsync-interval-ms"), nullptr, 10);
        else if (a == "--checkpoint-wal-mb")
            dur_cfg.checkpointWalBytes =
                std::strtoull(next("--checkpoint-wal-mb"), nullptr,
                              10)
                << 20;
        else if (a == "--wal-segment-mb")
            dur_cfg.walSegmentBytes =
                std::strtoull(next("--wal-segment-mb"), nullptr, 10)
                << 20;
        else if (a == "--metrics" || a == "--trace")
            ++i; // consumed by obs::scanArgs
        else
            return usage(argv[0]);
    }

    // Open the durable directory first: existing state wins over
    // --gen/--load (restarting with the same --data-dir must resume,
    // not reseed).
    engine::DataSet data;
    std::unique_ptr<durability::Manager> dur;
    durability::RecoveryInfo rinfo;
    if (!dur_cfg.dir.empty()) {
        dur = std::make_unique<durability::Manager>(dur_cfg);
        Timer rt;
        std::string derr = dur->open(data, rinfo);
        if (!derr.empty()) {
            std::fprintf(stderr, "dvpd: recovery of '%s' failed: %s\n",
                         dur_cfg.dir.c_str(), derr.c_str());
            return 1;
        }
        if (rinfo.recovered)
            std::printf(
                "dvpd: recovered %zu docs from %s (%llu from "
                "snapshot, %llu replayed from %llu WAL records%s, "
                "epoch %llu, lsn %llu) in %.1f ms\n",
                data.docs.size(), dur_cfg.dir.c_str(),
                static_cast<unsigned long long>(rinfo.snapshotDocs),
                static_cast<unsigned long long>(rinfo.replayedDocs),
                static_cast<unsigned long long>(rinfo.replayedRecords),
                rinfo.truncatedTail ? ", torn tail truncated" : "",
                static_cast<unsigned long long>(rinfo.epoch),
                static_cast<unsigned long long>(rinfo.lastLsn),
                rt.milliseconds());
        else
            std::printf("dvpd: initialized fresh data directory %s "
                        "(fsync=%s)\n",
                        dur_cfg.dir.c_str(),
                        durability::fsyncPolicyName(
                            dur_cfg.fsyncPolicy));
    }

    // Seed the engine (skipped when the data directory held state).
    Timer t;
    if (rinfo.recovered) {
        // Nothing to seed; the DataSet above is the recovered corpus.
    } else if (!load_path.empty()) {
        std::ifstream in(load_path);
        if (!in) {
            std::fprintf(stderr, "cannot open '%s'\n",
                         load_path.c_str());
            return 1;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        // Tape-parse across lanes; the serial in-order sink keeps the
        // seeded database bit-identical to a serial load.
        engine::LoadOptions lopt;
        lopt.threads = exec_threads == 0 ? 1 : exec_threads;
        engine::LoadStats lstats;
        std::string err =
            engine::loadNdjson(data, buf.str(), lopt, &lstats);
        if (!err.empty()) {
            std::fprintf(stderr, "parse error in %s: %s\n",
                         load_path.c_str(), err.c_str());
            return 1;
        }
        std::printf("loaded %llu documents from %s in %.1f ms\n",
                    static_cast<unsigned long long>(lstats.docs),
                    load_path.c_str(), t.milliseconds());
    } else {
        nobench::Config ncfg;
        ncfg.numDocs = gen_docs;
        Rng rng{20260805};
        for (uint64_t i = 0; i < gen_docs; ++i)
            data.addObject(nobench::generateDoc(
                ncfg, rng, static_cast<int64_t>(i)));
        std::printf("generated %llu NoBench documents in %.1f ms\n",
                    static_cast<unsigned long long>(gen_docs),
                    t.milliseconds());
    }

    adaptive::Params params;
    params.background = true; // repartition underneath live sessions
    params.threads = exec_threads;
    std::unique_ptr<adaptive::AdaptiveEngine> engine;
    if (rinfo.recovered && rinfo.layout) {
        // Resume the committed layout and epoch verbatim — queries
        // after restart hit bit-identical partitions.
        adaptive::Restore r;
        r.layout = *rinfo.layout;
        r.epoch = rinfo.epoch;
        r.baseDocs = rinfo.baseDocs;
        engine =
            adaptive::AdaptiveEngine::restore(data, std::move(r),
                                              params);
    } else {
        engine = std::make_unique<adaptive::AdaptiveEngine>(
            data, std::vector<engine::Query>{}, params);
    }
    if (dur) {
        engine->setDurability(dur.get());
        if (!rinfo.recovered) {
            // Seed documents bypassed the WAL (they were loaded into
            // the DataSet directly), so they are only durable once
            // this first checkpoint lands.  Refuse to serve if it
            // fails: acking INSERTs against a base that would vanish
            // on crash breaks the recovery contract.
            durability::CheckpointResult ck = dur->checkpointNow();
            if (!ck.ok) {
                std::fprintf(stderr,
                             "dvpd: initial checkpoint failed: %s\n",
                             ck.error.c_str());
                return 1;
            }
            std::printf("dvpd: initial checkpoint %s (%llu docs, "
                        "%.1f ms)\n",
                        ck.snapshotFile.c_str(),
                        static_cast<unsigned long long>(ck.docs),
                        ck.seconds * 1e3);
        }
    }

    server::Server server(*engine, cfg);
    std::string err = server.start();
    if (!err.empty()) {
        std::fprintf(stderr, "start failed: %s\n", err.c_str());
        return 1;
    }
    if (!port_file.empty()) {
        std::ofstream pf(port_file);
        pf << server.port() << "\n";
    }

    if (cfg.httpPort) {
        if (!http_port_file.empty()) {
            std::ofstream pf(http_port_file);
            pf << server.httpPort() << "\n";
        }
        std::printf("dvpd: metrics on http://127.0.0.1:%u/metrics\n",
                    unsigned(server.httpPort()));
    }
    std::printf("dvpd: serving %zu docs on %s:%u — SIGINT/SIGTERM to "
                "drain\n",
                data.docs.size(), cfg.host.c_str(),
                unsigned(server.port()));
    std::fflush(stdout);

    server::Server::installSignalHandlers(&server);
    while (!server.drained())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.stop();

    // Let an in-flight background checkpoint finish before the engine
    // (the cut provider's target) is torn down.
    if (dur)
        dur->quiesce();

    obs::Registry &reg = obs::Registry::global();
    std::printf(
        "dvpd: drained — %llu connections, %llu requests, %llu rejects\n",
        static_cast<unsigned long long>(
            reg.counter("dvp_server_connections_total").value()),
        static_cast<unsigned long long>(
            reg.counter("dvp_server_requests_total").value()),
        static_cast<unsigned long long>(
            reg.counter("dvp_server_rejects_total").value()));

    if (dump_audit) {
        std::printf("adaptive-decision audit (%zu records):\n",
                    engine->auditTrail().size());
        for (const adaptive::AuditRecord &rec : engine->auditTrail()) {
            std::printf(
                "  #%llu trigger=%s tables=%llu cost %.3f -> %.3f "
                "(%llu iters, %llu moves) layout=%016llx "
                "partition=%.1fms build=%.1fms swap=%.1fms "
                "caught_up=%llu\n",
                static_cast<unsigned long long>(rec.seq),
                rec.trigger.c_str(),
                static_cast<unsigned long long>(rec.tables),
                rec.initialCost, rec.finalCost,
                static_cast<unsigned long long>(rec.iterations),
                static_cast<unsigned long long>(rec.moves),
                static_cast<unsigned long long>(rec.layoutFingerprint),
                rec.partitionerNs / 1e6, rec.buildNs / 1e6,
                rec.swapNs / 1e6,
                static_cast<unsigned long long>(rec.docsCaughtUp));
        }
    }
    return 0;
}
