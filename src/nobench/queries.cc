#include "nobench/queries.hh"

#include "util/logging.hh"

namespace dvp::nobench
{

using engine::CondOp;
using engine::Query;
using engine::QueryKind;
using storage::AttrId;
using storage::Slot;

QuerySet::QuerySet(const engine::DataSet &data, const Config &cfg)
    : data(&data), cfg(cfg)
{
}

AttrId
QuerySet::attr(const std::string &name) const
{
    AttrId id = data->catalog.find(name);
    invariant(id != storage::kNoAttr,
              "NoBench attribute missing from catalog");
    return id;
}

Slot
QuerySet::stringSlot(const std::string &value) const
{
    storage::StringId id = data->dict.lookup(value);
    if (id == storage::Dictionary::kMissing) {
        // Value never ingested: return a slot that matches nothing.
        return storage::encodeString(storage::Dictionary::kMissing - 1);
    }
    return storage::encodeString(id);
}

const std::vector<std::string> &
QuerySet::names()
{
    static const std::vector<std::string> n = {
        "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10",
        "Q11"};
    return n;
}

Query
QuerySet::base(int idx, Rng &rng, bool shifted) const
{
    invariant(idx >= 0 && idx < kNumTemplates, "bad template index");
    Query q;
    q.name = names()[idx];

    const int64_t range = cfg.numRange;
    const int64_t width = std::max<int64_t>(1, range / 1000); // 0.1%
    auto between = [&](AttrId a, int64_t w) {
        q.cond.op = CondOp::Between;
        q.cond.attr = a;
        q.cond.lo = rng.range(0, range - w);
        q.cond.hi = q.cond.lo + w - 1;
    };
    auto arr_attrs = [&]() {
        std::vector<AttrId> ids;
        for (int i = 0; i <= Config::kMaxArrLen; ++i)
            ids.push_back(attr("nested_arr[" + std::to_string(i) + "]"));
        return ids;
    };

    switch (idx) {
      case kQ1: // SELECT str1, num
        q.kind = QueryKind::Project;
        q.projected = shifted
                          ? std::vector<AttrId>{attr("str2"),
                                                attr("thousandth")}
                          : std::vector<AttrId>{attr("str1"),
                                                attr("num")};
        q.selectivity = 1.0;
        break;
      case kQ2: // SELECT nested_obj.str, sparse_300 (modified Q2)
        q.kind = QueryKind::Project;
        q.projected = shifted
                          ? std::vector<AttrId>{attr("nested_obj.num"),
                                                attr("sparse_505")}
                          : std::vector<AttrId>{attr("nested_obj.str"),
                                                attr("sparse_300")};
        q.selectivity = 1.0;
        break;
      case kQ3: // SELECT sparse_110, sparse_119 (same group)
        q.kind = QueryKind::Project;
        q.projected = shifted
                          ? std::vector<AttrId>{attr("sparse_210"),
                                                attr("sparse_555")}
                          : std::vector<AttrId>{attr("sparse_110"),
                                                attr("sparse_119")};
        q.selectivity = 1.0;
        break;
      case kQ4: // SELECT sparse_110, sparse_220 (different groups)
        q.kind = QueryKind::Project;
        q.projected = shifted
                          ? std::vector<AttrId>{attr("sparse_560"),
                                                attr("sparse_650")}
                          : std::vector<AttrId>{attr("sparse_110"),
                                                attr("sparse_220")};
        q.selectivity = 1.0;
        break;
      case kQ5: { // SELECT * WHERE str1 = XXXXX (single record)
        q.kind = QueryKind::Select;
        q.selectAll = true;
        q.cond.op = CondOp::Eq;
        q.cond.attr = attr("str1");
        auto oid = rng.below(std::max<uint64_t>(cfg.numDocs, 1));
        q.cond.lo = stringSlot("str1_" + std::to_string(oid));
        q.selectivity = 1.0 / static_cast<double>(
                                  std::max<uint64_t>(cfg.numDocs, 1));
        break;
      }
      case kQ6: // SELECT * WHERE num BETWEEN
        q.kind = QueryKind::Select;
        q.selectAll = true;
        between(shifted ? attr("nested_obj.num") : attr("num"), width);
        q.selectivity = 0.001;
        break;
      case kQ7: // SELECT * WHERE dyn1 BETWEEN (dyn1 numeric in half)
        q.kind = QueryKind::Select;
        q.selectAll = true;
        between(attr("dyn1"), 2 * width);
        q.selectivity = 0.001;
        break;
      case kQ8: { // SELECT sparse_330, num WHERE XXXXX = ANY nested_arr
        q.kind = QueryKind::Select;
        q.projected = shifted
                          ? std::vector<AttrId>{attr("sparse_430"),
                                                attr("str2")}
                          : std::vector<AttrId>{attr("sparse_330"),
                                                attr("num")};
        q.cond.op = CondOp::AnyEq;
        q.cond.anyAttrs = arr_attrs();
        q.cond.lo = stringSlot(
            "arr_" + std::to_string(rng.below(cfg.arrPool)));
        // P(match) = 1 - (1 - 1/pool)^E[len] ~ 4/4000 = 0.1%.
        q.selectivity = 0.001;
        break;
      }
      case kQ9: { // SELECT * WHERE sparse_300 = YYYYY
        q.kind = QueryKind::Select;
        q.selectAll = true;
        q.cond.op = CondOp::Eq;
        q.cond.attr = shifted ? attr("sparse_505") : attr("sparse_300");
        q.cond.lo = stringSlot(
            "sparse_val_" + std::to_string(rng.below(cfg.sparsePool)));
        // 1% presence x 1/sparsePool value match = 0.1%.
        q.selectivity = 0.001 * cfg.groupsPerDoc;
        break;
      }
      case kQ10: // SELECT COUNT(*) WHERE num BETWEEN GROUP BY thousandth
        // §VI-B: aggregate over a SELECT * sub-query.  (The SQL binder
        // binds {thousandth} instead; DESIGN.md §11.)
        q.kind = QueryKind::Aggregate;
        q.selectAll = true;
        between(attr("num"), width);
        q.groupBy = attr("thousandth");
        q.selectivity = 0.001;
        break;
      case kQ11: // self-join ON nested_obj.str = str1 WHERE num BETWEEN
        q.kind = QueryKind::Join;
        q.selectAll = true;
        between(attr("num"), width);
        q.joinLeftAttr = attr("nested_obj.str");
        q.joinRightAttr = attr("str1");
        q.selectivity = 0.001;
        break;
      default:
        panic("unhandled query template");
    }
    return q;
}

Query
QuerySet::instantiate(int idx, Rng &rng) const
{
    return base(idx, rng, /*shifted=*/false);
}

Query
QuerySet::instantiateShifted(int idx, Rng &rng) const
{
    return base(idx, rng, /*shifted=*/true);
}

Query
QuerySet::insertQuery(const std::vector<storage::Document> *docs) const
{
    Query q;
    q.name = "Q12";
    q.kind = QueryKind::Insert;
    q.insertDocs = docs;
    q.selectivity = 0.0;
    return q;
}

} // namespace dvp::nobench
