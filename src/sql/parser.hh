/**
 * @file
 * Parser for the paper's Table III SQL dialect, producing engine
 * Query objects bound to a DataSet's catalog and dictionary.
 *
 * Supported statements (case-insensitive keywords):
 *
 *   SELECT a, b FROM t [WHERE <cond>]
 *   SELECT * FROM t [WHERE <cond>]
 *   SELECT COUNT(*) FROM t [WHERE <cond>] GROUP BY g
 *   SELECT * FROM t AS l INNER JOIN t AS r ON l.x = r.y
 *       [WHERE <cond-on-l>]
 *   LOAD DATA LOCAL INFILE 'file' REPLACE INTO TABLE t
 *   INSERT INTO t VALUES ('<json>')[, ('<json>')]*
 *
 *   <cond> := col = <lit>
 *           | col BETWEEN <int> AND <int>
 *           | <lit> = ANY col          (flattened-array membership)
 *
 * Column names are flattened JSON paths ("nested_obj.str").  In the
 * join form, "l." / "r." alias prefixes are stripped.  An array name
 * used with ANY expands to every `name[i]` column in the catalog.
 *
 * Each statement binds the attributes it reads: a list binds the
 * list, COUNT(*) binds {g}, and the WHERE, ANY, ON and GROUP BY
 * columns enter through Query::conditionPart().  SELECT * and the
 * self-join (SELECT * by dialect) bind every attribute.
 *
 * String literals are resolved against the shared dictionary; a
 * never-ingested string yields a predicate that matches nothing
 * (schema-less semantics: querying an unknown value is not an error).
 */

#ifndef DVP_SQL_PARSER_HH
#define DVP_SQL_PARSER_HH

#include <string>
#include <vector>

#include "engine/database.hh"
#include "engine/query.hh"

namespace dvp::sql
{

/** Kinds of statement a parse can produce. */
enum class StatementKind
{
    Query,     ///< SELECT ... (result.query is the executable query)
    Load,      ///< LOAD DATA ... (result.loadFile names the JSON input)
    Explain,   ///< EXPLAIN SELECT ... (query parsed, not for execution)
    Insert,    ///< INSERT INTO ... (result.insertJson holds documents)
    Checkpoint ///< CHECKPOINT (force a durability checkpoint now)
};

/** Parse outcome. */
struct ParseResult
{
    bool ok = false;
    std::string error;     ///< message with byte offset when !ok
    size_t errorPos = 0;

    StatementKind kind = StatementKind::Query;
    bool analyze = false;  ///< EXPLAIN ANALYZE (execute, then render)
    engine::Query query;   ///< for Query/Explain statements
    std::string loadFile;  ///< for Load statements
    std::string table;     ///< FROM/INTO table name (informational)

    /** Insert statements: raw JSON document literals, in VALUES order. */
    std::vector<std::string> insertJson;
};

/**
 * Parse one statement against @p data (catalog for column resolution,
 * dictionary for string literals).  The returned query's selectivity
 * is estimated by estimateSelectivity().
 */
ParseResult parse(const std::string &text, const engine::DataSet &data);

/**
 * Estimate a query's selectivity by evaluating its predicate on an
 * evenly spaced sample of up to @p sample documents (the "statistics
 * commonly present in commercial RDBMSs" of §III).  Projections
 * estimate 1.
 */
double estimateSelectivity(const engine::DataSet &data,
                           const engine::Query &q, size_t sample = 512);

} // namespace dvp::sql

#endif // DVP_SQL_PARSER_HH
