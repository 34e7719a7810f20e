/**
 * dvp_client — command-line client for a running dvpd server.
 *
 *   dvp_client [--host H] [--port P] [--stats] [--trace-id HEX]
 *              [--exec FILE|-] [SQL ...]
 *
 * Each positional argument is one SQL statement, executed in order on
 * a single connection; rows print as tab-separated text with a header.
 * --exec reads additional statements from FILE (or stdin with "-"),
 * one per line — blank lines and lines starting with '#' or "--" are
 * skipped — so bulk INSERT scripts can be piped at a server without
 * shell-quoting every document.  File statements run after the
 * positional ones.
 * --stats fetches and pretty-prints the server's counters after the
 * statements (or alone), grouping the adaptive-decision audit fields.
 * --trace-id attaches a client-chosen trace id to every statement
 * (echoed by the server and stamped into its span tracer).  Exit
 * status is non-zero if any statement failed.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "client/client.hh"

using namespace dvp;

namespace
{

void
printResult(const client::Result &r)
{
    if (r.isMessage) {
        std::printf("%s\n", r.message.c_str());
        return;
    }
    for (size_t c = 0; c < r.columns.size(); ++c)
        std::printf("%s%s", c ? "\t" : "", r.columns[c].c_str());
    if (!r.columns.empty())
        std::printf("\n");
    for (net::RowView row : r.rows) {
        for (size_t c = 0; c < row.size(); ++c) {
            net::CellView cell = row[c];
            if (c)
                std::printf("\t");
            switch (cell.kind()) {
              case net::CellKind::Null:
                std::printf("NULL");
                break;
              case net::CellKind::Int:
                std::printf("%lld",
                            static_cast<long long>(cell.integer()));
                break;
              case net::CellKind::Str: {
                std::string_view text = cell.text();
                std::printf("%.*s", static_cast<int>(text.size()),
                            text.data());
                break;
              }
            }
        }
        std::printf("\n");
    }
    std::printf("%zu row(s), digest %016llx, server time %.3f ms\n",
                r.rows.size(),
                static_cast<unsigned long long>(r.digest),
                r.execNs / 1e6);
}

void
printExtras(const client::Result &r)
{
    if (r.hasTraceId)
        std::printf("trace id %016llx\n",
                    static_cast<unsigned long long>(r.traceId));
    if (!r.opStats.empty()) {
        std::printf("operator summary:\n");
        for (const auto &[k, v] : r.opStats)
            std::printf("  %-22s %12llu\n", k.c_str(),
                        static_cast<unsigned long long>(v));
    }
}

/**
 * Append statements from @p in, one per line; blank lines and '#'/"--"
 * comment lines are skipped.  Returns how many were added.
 */
size_t
readStatements(std::istream &in, std::vector<std::string> &out)
{
    size_t added = 0;
    std::string line;
    while (std::getline(in, line)) {
        size_t b = line.find_first_not_of(" \t\r");
        if (b == std::string::npos)
            continue;
        size_t e = line.find_last_not_of(" \t\r");
        std::string stmt = line.substr(b, e - b + 1);
        if (stmt[0] == '#' || stmt.rfind("--", 0) == 0)
            continue;
        out.push_back(std::move(stmt));
        ++added;
    }
    return added;
}

/** Pretty server-counter table, audit fields grouped separately. */
void
printStats(const client::Stats &s)
{
    std::printf("server counters:\n");
    for (const auto &[k, v] : s.entries)
        if (k.rfind("audit_", 0) != 0)
            std::printf("  %-28s %12llu\n", k.c_str(),
                        static_cast<unsigned long long>(v));
    bool header = false;
    for (const auto &[k, v] : s.entries) {
        if (k.rfind("audit_", 0) != 0)
            continue;
        if (!header) {
            std::printf("adaptive audit:\n");
            header = true;
        }
        std::printf("  %-28s %12llu\n", k.c_str() + 6,
                    static_cast<unsigned long long>(v));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    uint16_t port = 7437;
    bool want_stats = false;
    uint64_t trace_id = 0;
    std::string exec_path;
    std::vector<std::string> statements;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--host" && i + 1 < argc)
            host = argv[++i];
        else if (a == "--port" && i + 1 < argc)
            port = static_cast<uint16_t>(
                std::strtoul(argv[++i], nullptr, 10));
        else if (a == "--stats")
            want_stats = true;
        else if (a == "--trace-id" && i + 1 < argc)
            trace_id = std::strtoull(argv[++i], nullptr, 16);
        else if (a == "--exec" && i + 1 < argc)
            exec_path = argv[++i];
        else
            statements.push_back(a);
    }
    if (!exec_path.empty()) {
        if (exec_path == "-") {
            readStatements(std::cin, statements);
        } else {
            std::ifstream in(exec_path);
            if (!in) {
                std::fprintf(stderr, "cannot open '%s'\n",
                             exec_path.c_str());
                return 1;
            }
            readStatements(in, statements);
        }
    }
    if (statements.empty() && !want_stats) {
        std::fprintf(stderr,
                     "usage: %s [--host H] [--port P] [--stats] "
                     "[--trace-id HEX] [--exec FILE|-] "
                     "\"SELECT ...\" ...\n",
                     argv[0]);
        return 2;
    }

    client::Client c;
    if (trace_id != 0)
        c.setTraceId(trace_id);
    std::string err = c.connect(host, port, "dvp_client");
    if (!err.empty()) {
        std::fprintf(stderr, "connect %s:%u: %s\n", host.c_str(),
                     unsigned(port), err.c_str());
        return 1;
    }
    std::fprintf(stderr, "connected to %s (session %llu)\n",
                 c.serverName().c_str(),
                 static_cast<unsigned long long>(c.sessionId()));

    int failures = 0;
    for (const std::string &sql : statements) {
        client::Result r = c.query(sql);
        if (!r.ok) {
            std::fprintf(stderr, "error (%s): %s\n",
                         net::errorCodeName(r.errorCode),
                         r.error.c_str());
            ++failures;
            if (!c.connected())
                break;
            continue;
        }
        printResult(r);
        printExtras(r);
    }

    if (want_stats && c.connected()) {
        client::Stats s = c.stats();
        if (!s.ok) {
            std::fprintf(stderr, "stats error (%s): %s\n",
                         net::errorCodeName(s.code), s.error.c_str());
            ++failures;
        } else {
            printStats(s);
        }
    }

    c.close();
    return failures ? 1 : 0;
}
