#include "sql/parser.hh"

#include <algorithm>

#include "sql/lexer.hh"
#include "util/logging.hh"

namespace dvp::sql
{

using engine::CondOp;
using engine::Query;
using engine::QueryKind;
using storage::AttrId;
using storage::Slot;

namespace
{

/** Recursive-descent parser state. */
class Parser
{
  public:
    Parser(std::vector<Token> tokens, const engine::DataSet &data)
        : toks(std::move(tokens)), data(data)
    {
    }

    ParseResult
    parse()
    {
        if (atKeyword("EXPLAIN")) {
            advance();
            bool analyze = false;
            if (atKeyword("ANALYZE")) {
                advance();
                analyze = true;
            }
            ParseResult inner = parseSelect();
            if (inner.ok) {
                inner.kind = StatementKind::Explain;
                inner.analyze = analyze;
            }
            return inner;
        }
        if (atKeyword("LOAD"))
            return parseLoad();
        if (atKeyword("INSERT"))
            return parseInsert();
        if (atKeyword("CHECKPOINT"))
            return parseCheckpoint();
        if (atKeyword("SELECT"))
            return parseSelect();
        return fail(
            "expected SELECT, EXPLAIN, INSERT, CHECKPOINT or LOAD");
    }

  private:
    std::vector<Token> toks;
    const engine::DataSet &data;
    size_t pos = 0;
    std::string joinLeftAlias, joinRightAlias;

    const Token &cur() const { return toks[pos]; }
    void advance() { if (cur().kind != TokKind::End) ++pos; }

    bool
    atKeyword(const char *kw) const
    {
        return cur().kind == TokKind::Keyword && cur().text == kw;
    }

    bool
    atPunct(char c) const
    {
        return cur().kind == TokKind::Punct && cur().text[0] == c;
    }

    bool
    eatKeyword(const char *kw)
    {
        if (!atKeyword(kw))
            return false;
        advance();
        return true;
    }

    bool
    eatPunct(char c)
    {
        if (!atPunct(c))
            return false;
        advance();
        return true;
    }

    ParseResult
    fail(const std::string &msg) const
    {
        ParseResult r;
        r.ok = false;
        r.error = msg + " at offset " + std::to_string(cur().pos);
        r.errorPos = cur().pos;
        return r;
    }

    /** Strip a join alias prefix ("l.x" -> "x") when aliases exist. */
    std::string
    stripAlias(const std::string &name) const
    {
        for (const std::string &alias :
             {joinLeftAlias, joinRightAlias}) {
            if (!alias.empty() &&
                name.size() > alias.size() + 1 &&
                name.compare(0, alias.size(), alias) == 0 &&
                name[alias.size()] == '.')
                return name.substr(alias.size() + 1);
        }
        return name;
    }

    /**
     * Resolve a column name; unknown columns resolve to kNoAttr (a
     * schema-less store treats them as all-NULL, not as errors).
     */
    AttrId
    column(const std::string &name) const
    {
        return data.catalog.find(stripAlias(name));
    }

    /** Parse a literal into a slot. */
    bool
    literal(Slot &out)
    {
        if (cur().kind == TokKind::Integer) {
            out = storage::encodeInt(cur().number);
            advance();
            return true;
        }
        if (cur().kind == TokKind::String) {
            storage::StringId id = data.dict.lookup(cur().text);
            out = id == storage::Dictionary::kMissing
                      ? storage::encodeString(
                            storage::Dictionary::kMissing - 1)
                      : storage::encodeString(id);
            advance();
            return true;
        }
        if (atKeyword("TRUE") || atKeyword("FALSE")) {
            out = storage::encodeBool(cur().text == "TRUE");
            advance();
            return true;
        }
        return false;
    }

    /** All `name[i]` columns for array membership predicates. */
    std::vector<AttrId>
    arrayColumns(const std::string &name) const
    {
        std::vector<AttrId> ids;
        std::string base = stripAlias(name);
        for (int i = 0;; ++i) {
            AttrId a = data.catalog.find(base + "[" +
                                         std::to_string(i) + "]");
            if (a == storage::kNoAttr)
                break;
            ids.push_back(a);
        }
        if (ids.empty()) {
            // Maybe the name itself is a scalar column.
            AttrId a = data.catalog.find(base);
            if (a != storage::kNoAttr)
                ids.push_back(a);
        }
        return ids;
    }

    /** WHERE clause (already past the WHERE keyword). */
    bool
    parseCondition(Query &q, ParseResult &err)
    {
        // Form 3: <lit> = ANY col
        Slot lit;
        size_t save = pos;
        if (literal(lit)) {
            if (eatPunct('=') && eatKeyword("ANY")) {
                if (cur().kind != TokKind::Ident) {
                    err = fail("expected array column after ANY");
                    return false;
                }
                q.cond.op = CondOp::AnyEq;
                q.cond.anyAttrs = arrayColumns(cur().text);
                q.cond.lo = lit;
                advance();
                return true;
            }
            pos = save; // not the ANY form: rewind
        }

        if (cur().kind != TokKind::Ident) {
            err = fail("expected column name in WHERE");
            return false;
        }
        std::string col_name = cur().text;
        advance();

        if (eatPunct('=')) {
            Slot value;
            if (!literal(value)) {
                err = fail("expected literal after '='");
                return false;
            }
            q.cond.op = CondOp::Eq;
            q.cond.attr = column(col_name);
            q.cond.lo = value;
            return true;
        }
        if (eatKeyword("BETWEEN")) {
            if (cur().kind != TokKind::Integer) {
                err = fail("expected integer after BETWEEN");
                return false;
            }
            int64_t lo = cur().number;
            advance();
            if (!eatKeyword("AND")) {
                err = fail("expected AND in BETWEEN");
                return false;
            }
            if (cur().kind != TokKind::Integer) {
                err = fail("expected integer after AND");
                return false;
            }
            int64_t hi = cur().number;
            advance();
            q.cond.op = CondOp::Between;
            q.cond.attr = column(col_name);
            q.cond.lo = lo;
            q.cond.hi = hi;
            return true;
        }
        if (eatKeyword("IS")) {
            bool not_null = eatKeyword("NOT");
            if (!eatKeyword("NULL")) {
                err = fail("expected NULL after IS");
                return false;
            }
            q.cond.op = not_null ? CondOp::NotNull : CondOp::IsNull;
            q.cond.attr = column(col_name);
            return true;
        }
        err = fail("expected '=', BETWEEN, or IS after column");
        return false;
    }

    ParseResult
    parseLoad()
    {
        ParseResult r;
        // LOAD DATA LOCAL INFILE 'file' REPLACE INTO TABLE t
        if (!(eatKeyword("LOAD") && eatKeyword("DATA") &&
              eatKeyword("LOCAL") && eatKeyword("INFILE")))
            return fail("malformed LOAD DATA statement");
        if (cur().kind != TokKind::String)
            return fail("expected quoted file name after INFILE");
        r.loadFile = cur().text;
        advance();
        if (!(eatKeyword("REPLACE") && eatKeyword("INTO") &&
              eatKeyword("TABLE")))
            return fail("expected REPLACE INTO TABLE");
        if (cur().kind != TokKind::Ident)
            return fail("expected table name");
        r.table = cur().text;
        advance();
        eatPunct(';');
        if (cur().kind != TokKind::End)
            return fail("trailing input after statement");
        r.ok = true;
        r.kind = StatementKind::Load;
        r.query.name = "load";
        r.query.kind = QueryKind::Insert;
        return r;
    }

    ParseResult
    parseCheckpoint()
    {
        ParseResult r;
        eatKeyword("CHECKPOINT");
        eatPunct(';');
        if (cur().kind != TokKind::End)
            return fail("trailing input after CHECKPOINT");
        r.ok = true;
        r.kind = StatementKind::Checkpoint;
        r.query.name = "checkpoint";
        return r;
    }

    ParseResult
    parseInsert()
    {
        ParseResult r;
        // INSERT INTO t VALUES ('<json>')[, ('<json>')]*
        // The document is one quoted JSON literal per VALUES tuple;
        // validation (and encoding) happens at execution time against
        // the live catalog, not here.
        if (!(eatKeyword("INSERT") && eatKeyword("INTO")))
            return fail("malformed INSERT statement");
        if (cur().kind != TokKind::Ident)
            return fail("expected table name after INTO");
        r.table = cur().text;
        advance();
        if (!eatKeyword("VALUES"))
            return fail("expected VALUES");
        do {
            if (!eatPunct('('))
                return fail("expected '(' before document literal");
            if (cur().kind != TokKind::String)
                return fail("expected quoted JSON document");
            r.insertJson.push_back(cur().text);
            advance();
            if (!eatPunct(')'))
                return fail("expected ')' after document literal");
        } while (eatPunct(','));
        eatPunct(';');
        if (cur().kind != TokKind::End)
            return fail("trailing input after statement");
        r.ok = true;
        r.kind = StatementKind::Insert;
        r.query.name = "insert";
        r.query.kind = QueryKind::Insert;
        return r;
    }

    ParseResult
    parseSelect()
    {
        ParseResult r;
        Query q;
        q.name = "sql";
        advance(); // SELECT

        bool count = false;
        if (eatKeyword("COUNT")) {
            if (!(eatPunct('(') && eatPunct('*') && eatPunct(')')))
                return fail("expected COUNT(*)");
            count = true;
        } else if (eatPunct('*')) {
            q.selectAll = true;
        } else {
            // projection list
            while (true) {
                if (cur().kind != TokKind::Ident)
                    return fail("expected column name in SELECT list");
                q.projected.push_back(column(cur().text));
                advance();
                if (!eatPunct(','))
                    break;
            }
        }

        if (!eatKeyword("FROM"))
            return fail("expected FROM");
        if (cur().kind != TokKind::Ident)
            return fail("expected table name after FROM");
        r.table = cur().text;
        advance();

        // Optional self-join: AS l INNER JOIN t AS r ON l.x = r.y
        bool is_join = false;
        if (eatKeyword("AS")) {
            if (cur().kind != TokKind::Ident)
                return fail("expected alias after AS");
            joinLeftAlias = cur().text;
            advance();
            if (!(eatKeyword("INNER") && eatKeyword("JOIN")))
                return fail("expected INNER JOIN after alias");
            if (cur().kind != TokKind::Ident)
                return fail("expected join table name");
            advance();
            if (!eatKeyword("AS"))
                return fail("expected AS after join table");
            if (cur().kind != TokKind::Ident)
                return fail("expected right alias");
            joinRightAlias = cur().text;
            advance();
            if (!eatKeyword("ON"))
                return fail("expected ON");
            if (cur().kind != TokKind::Ident)
                return fail("expected left join column");
            std::string lcol = cur().text;
            advance();
            if (!eatPunct('='))
                return fail("expected '=' in join condition");
            if (cur().kind != TokKind::Ident)
                return fail("expected right join column");
            std::string rcol = cur().text;
            advance();
            // Assign sides by alias prefix, defaulting to order.
            auto has_alias = [](const std::string &n,
                                const std::string &a) {
                return n.size() > a.size() + 1 &&
                       n.compare(0, a.size(), a) == 0 &&
                       n[a.size()] == '.';
            };
            if (has_alias(lcol, joinRightAlias) ||
                has_alias(rcol, joinLeftAlias))
                std::swap(lcol, rcol);
            q.joinLeftAttr = column(lcol);
            q.joinRightAttr = column(rcol);
            is_join = true;
        }

        if (eatKeyword("WHERE")) {
            ParseResult err;
            if (!parseCondition(q, err))
                return err;
        }

        AttrId group_by = storage::kNoAttr;
        bool has_group_by = false;
        if (eatKeyword("GROUP")) {
            has_group_by = true;
            if (!eatKeyword("BY"))
                return fail("expected BY after GROUP");
            if (cur().kind != TokKind::Ident)
                return fail("expected grouping column");
            group_by = column(cur().text);
            if (group_by == storage::kNoAttr)
                // Unlike WHERE/SELECT columns (all-NULL semantics), a
                // grouping column must exist: the engine's aggregate
                // fold requires one.
                return fail("unknown GROUP BY column");
            advance();
        }
        eatPunct(';');
        if (cur().kind != TokKind::End)
            return fail("trailing input after statement");

        if (is_join) {
            q.kind = QueryKind::Join;
            q.selectAll = true; // the dialect's joins are SELECT *
        } else if (count) {
            if (!has_group_by)
                return fail("COUNT(*) requires GROUP BY");
            q.kind = QueryKind::Aggregate;
            // Bound to what it reads: the grouping column, plus the
            // WHERE column through conditionPart().  The paper's
            // templates (nobench::QuerySet) keep §VI-B's SELECT *.
            q.projected = {group_by};
            q.groupBy = group_by;
        } else {
            q.kind = q.cond.op == CondOp::None ? QueryKind::Project
                                               : QueryKind::Select;
            if (has_group_by)
                return fail("GROUP BY requires COUNT(*)");
        }

        q.selectivity = estimateSelectivity(data, q);
        r.ok = true;
        r.kind = StatementKind::Query;
        r.query = std::move(q);
        return r;
    }
};

} // namespace

ParseResult
parse(const std::string &text, const engine::DataSet &data)
{
    LexResult lexed = lex(text);
    if (!lexed.ok) {
        ParseResult r;
        r.error = lexed.error + " at offset " +
                  std::to_string(lexed.errorPos);
        r.errorPos = lexed.errorPos;
        return r;
    }
    Parser parser(std::move(lexed.tokens), data);
    return parser.parse();
}

double
estimateSelectivity(const engine::DataSet &data, const engine::Query &q,
                    size_t sample)
{
    if (q.cond.op == CondOp::None || data.docs.empty())
        return 1.0;
    size_t n = data.docs.size();
    size_t stride = std::max<size_t>(1, n / std::max<size_t>(1, sample));
    size_t looked = 0, matched = 0;
    for (size_t i = 0; i < n; i += stride) {
        const storage::Document &doc = data.docs[i];
        ++looked;
        if (q.cond.op == CondOp::AnyEq) {
            for (AttrId a : q.cond.anyAttrs) {
                if (q.cond.matches(doc.slotOf(a))) {
                    ++matched;
                    break;
                }
            }
        } else if (q.cond.matches(doc.slotOf(q.cond.attr))) {
            ++matched;
        }
    }
    if (looked == 0)
        return 1.0;
    // Floor at one representable match so Eq. 1 never sees zero for a
    // query that might match something.
    return std::max(static_cast<double>(matched) /
                        static_cast<double>(looked),
                    1.0 / static_cast<double>(n));
}

} // namespace dvp::sql
