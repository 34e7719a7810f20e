/**
 * @file
 * Query representation.
 *
 * The engine executes a small relational algebra sufficient for the
 * NoBench query set (Table III): projections, selections with equality /
 * range / array-membership predicates, COUNT-GROUP-BY aggregation, inner
 * self-joins, and bulk inserts.  A Query also carries the workload
 * statistics the DVP cost model consumes: frequency f(q) and estimated
 * selectivity sel(q), plus its selection-part and condition-part
 * attribute sets.
 */

#ifndef DVP_ENGINE_QUERY_HH
#define DVP_ENGINE_QUERY_HH

#include <array>
#include <compare>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "storage/catalog.hh"
#include "storage/encoder.hh"
#include "storage/value.hh"

namespace dvp::engine
{

using storage::AttrId;
using storage::Slot;

/** Query classes of the NoBench workload. */
enum class QueryKind
{
    Project,   ///< scan-all projection (Q1-Q4)
    Select,    ///< predicate selection (Q5-Q9)
    Aggregate, ///< COUNT(*) ... GROUP BY (Q10)
    Join,      ///< inner self-join (Q11)
    Insert     ///< bulk load (Q12)
};

/** Predicate operators. */
enum class CondOp
{
    None,    ///< no WHERE clause
    Eq,      ///< attr = value
    Between, ///< attr BETWEEN lo AND hi (numeric slots only)
    AnyEq,   ///< value = ANY array-attr (matches any of several columns)
    IsNull,  ///< attr IS NULL (missing or stored-NULL cell)
    NotNull  ///< attr IS NOT NULL
};

/** A WHERE clause over one attribute (or one flattened array). */
struct Condition
{
    CondOp op = CondOp::None;
    AttrId attr = storage::kNoAttr; ///< condition column (Eq/Between)
    std::vector<AttrId> anyAttrs;   ///< flattened array columns (AnyEq)
    Slot lo = 0;                    ///< Eq value, or Between lower bound
    Slot hi = 0;                    ///< Between upper bound (inclusive)

    /**
     * True when a slot satisfies the predicate.  For IsNull this is
     * the *slot* semantics (an object omitted from the attribute's
     * partition has a NULL slot logically — doc.slotOf returns the
     * sentinel — but no stored cell, which is why the planner answers
     * IsNull as presence-minus-NotNull rather than one column scan).
     */
    bool
    matches(Slot s) const
    {
        switch (op) {
          case CondOp::None:
            return true;
          case CondOp::Eq:
          case CondOp::AnyEq:
            return !storage::isNull(s) && s == lo;
          case CondOp::Between:
            return storage::isNumericSlot(s) && s >= lo && s <= hi;
          case CondOp::IsNull:
            return storage::isNull(s);
          case CondOp::NotNull:
            return !storage::isNull(s);
        }
        return false;
    }
};

/** One query instance/template. */
struct Query
{
    std::string name;     ///< "Q1" ... "Q12"
    QueryKind kind = QueryKind::Project;

    bool selectAll = false;          ///< SELECT *
    std::vector<AttrId> projected;   ///< explicit projection list

    Condition cond;

    AttrId groupBy = storage::kNoAttr; ///< Aggregate: GROUP BY column

    AttrId joinLeftAttr = storage::kNoAttr;  ///< Join: left ON column
    AttrId joinRightAttr = storage::kNoAttr; ///< Join: right ON column

    /** Insert payload (borrowed; alive for the query's execution). */
    const std::vector<storage::Document> *insertDocs = nullptr;

    /** Workload statistics consumed by the DVP cost model. */
    double frequency = 1.0;     ///< f(q)
    double selectivity = 1.0;   ///< sel(q): selected-record fraction

    /**
     * Attributes of the selection part (Equation 1's
     * selection_part(q)); expands SELECT * against @p catalog.
     */
    std::vector<AttrId> selectionPart(const storage::Catalog &catalog)
        const;

    /** Attributes of the condition part (condition + join columns). */
    std::vector<AttrId> conditionPart() const;

    /** Union of selection and condition parts (deduplicated). */
    std::vector<AttrId> accessedAttrs(const storage::Catalog &catalog)
        const;
};

/** FNV-1a parameters of ResultSet::digest(). */
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;
constexpr uint64_t kFnvPrime8 = [] {
    uint64_t p = 1;
    for (int i = 0; i < 8; ++i)
        p *= kFnvPrime;
    return p;
}();

/** The word digest() folds in ahead of every row. */
constexpr uint64_t kDigestRowSeparator = 0x9e3779b97f4a7c15ULL;

/** One digest step: FNV-1a over the 8 little-endian bytes of @p v. */
constexpr uint64_t
fnvStep(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

/**
 * fnvStep(h, V) for a constant word V as one multiply, one lookup and
 * one add: h * P^8 + C[h & 0xFF].  Each bytewise step h' = (h ^ b) * P
 * equals h * P + ((h ^ b) - h) * P, and (h ^ b) - h depends only on
 * h's low byte, as does the low byte of h' (a product's low byte needs
 * only its factors' low bytes).  By induction the eight steps give
 * h * P^8 plus a term fixed by h's low byte alone; C tabulates that
 * term as fnvStep(l, V) - l * P^8 for each low byte l.  digest() uses
 * it for NULL cells and row separators, which dominate SELECT * rows.
 */
template <uint64_t V>
constexpr std::array<uint64_t, 256> kFnvConstTable = [] {
    std::array<uint64_t, 256> t{};
    for (uint64_t l = 0; l < 256; ++l)
        t[l] = fnvStep(l, V) - l * kFnvPrime8;
    return t;
}();

template <uint64_t V>
constexpr uint64_t
fnvStepConst(uint64_t h)
{
    return h * kFnvPrime8 + kFnvConstTable<V>[h & 0xFF];
}

/**
 * The rows of a result: one width and one flat, row-major slot buffer,
 * so a result costs one allocation however many rows it has.  A row
 * reads as a span of `width()` slots.  The first row appended to an
 * empty set fixes the width; every later row must have it (the engine
 * never emits ragged rows).  The row count is kept apart from the
 * buffer, so zero-width rows still count.
 */
class ResultRows
{
  public:
    using Row = std::span<const Slot>;

    /** Random-access iterator over the rows; dereferences to a Row. */
    class iterator
    {
      public:
        using iterator_category = std::random_access_iterator_tag;
        using iterator_concept = std::random_access_iterator_tag;
        using value_type = Row;
        using difference_type = std::ptrdiff_t;
        using reference = Row;
        using pointer = void;

        iterator() = default;

        Row operator*() const { return {base + idx * width, width}; }
        Row operator[](difference_type n) const { return *(*this + n); }

        iterator &operator++() { ++idx; return *this; }
        iterator operator++(int) { iterator t = *this; ++idx; return t; }
        iterator &operator--() { --idx; return *this; }
        iterator operator--(int) { iterator t = *this; --idx; return t; }
        iterator &operator+=(difference_type n) { idx += n; return *this; }
        iterator &operator-=(difference_type n) { idx -= n; return *this; }

        friend iterator
        operator+(iterator it, difference_type n)
        {
            return it += n;
        }
        friend iterator
        operator+(difference_type n, iterator it)
        {
            return it += n;
        }
        friend iterator
        operator-(iterator it, difference_type n)
        {
            return it -= n;
        }
        friend difference_type
        operator-(const iterator &a, const iterator &b)
        {
            return static_cast<difference_type>(a.idx) -
                   static_cast<difference_type>(b.idx);
        }
        friend bool
        operator==(const iterator &a, const iterator &b)
        {
            return a.idx == b.idx;
        }
        friend auto
        operator<=>(const iterator &a, const iterator &b)
        {
            return a.idx <=> b.idx;
        }

      private:
        friend class ResultRows;
        iterator(const Slot *base, size_t width, size_t idx)
            : base(base), width(width), idx(idx)
        {
        }

        const Slot *base = nullptr;
        size_t width = 0;
        size_t idx = 0;
    };

    size_t width() const { return width_; }
    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    Row operator[](size_t i) const { return {row(i), width_}; }
    iterator begin() const { return {slots_.data(), width_, 0}; }
    iterator end() const { return {slots_.data(), width_, count_}; }

    /** Every slot, row-major (size() * width() of them). */
    const std::vector<Slot> &slots() const { return slots_; }

    /** Room for @p rows rows of @p width (which an empty set adopts). */
    void
    reserve(size_t rows, size_t width)
    {
        adoptWidth(width);
        slots_.reserve(rows * width);
    }

    /**
     * Append one row of @p width NULL slots and return it for the
     * caller to fill; valid until the next append.
     */
    Slot *
    appendRow(size_t width)
    {
        adoptWidth(width);
        size_t at = slots_.size();
        slots_.resize(at + width, storage::kNullSlot);
        ++count_;
        return slots_.data() + at;
    }

    void
    append(Row r)
    {
        adoptWidth(r.size());
        slots_.insert(slots_.end(), r.begin(), r.end());
        ++count_;
    }
    void append(std::initializer_list<Slot> r) { append(Row(r)); }

    /**
     * Replace the rows with @p rows NULL rows of @p width and return
     * the slots, row-major, for writes in place (lanes may write
     * disjoint slots concurrently); valid until the next append.
     */
    Slot *
    assignNull(size_t rows, size_t width)
    {
        width_ = width;
        count_ = rows;
        slots_.assign(rows * width, storage::kNullSlot);
        return slots_.data();
    }

    /** Drop the last row. @pre !empty() */
    void
    popRow()
    {
        --count_;
        slots_.resize(count_ * width_);
    }

    /** Append every row of @p other (same width unless either is empty). */
    void append(const ResultRows &other);

    /** Replace the rows with copies of [@p first, @p last). */
    void assign(iterator first, iterator last);

    /** Same rows in the same order (empty sets of any width agree). */
    friend bool
    operator==(const ResultRows &a, const ResultRows &b)
    {
        return a.count_ == b.count_ &&
               (a.count_ == 0 ||
                (a.width_ == b.width_ && a.slots_ == b.slots_));
    }

  private:
    const Slot *row(size_t i) const { return slots_.data() + i * width_; }

    void adoptWidth(size_t width);

    size_t width_ = 0;
    size_t count_ = 0;
    std::vector<Slot> slots_;
};

/**
 * Result set of a query execution, independent of layout so results can
 * be compared across engines.
 *
 * For Project/Select: one row per selected object, cells in the query's
 * projection order (selectAll: catalog AttrId order).  For Aggregate:
 * one row per group [group key, count].  For Join: rows of concatenated
 * [left oid, right oid].  For Insert: empty.
 */
struct ResultSet
{
    std::vector<int64_t> oids; ///< selected oid per row (scans)
    ResultRows rows;

    /**
     * Order-independent XOR/multiply digest of every non-null cell the
     * query physically retrieved (including cells not emitted into
     * rows, e.g. full-record retrievals of the join).  Used by tests to
     * assert that different layouts read the same logical data, and to
     * keep retrieval loops observable to the optimizer.
     */
    uint64_t checksum = 0;

    uint64_t rowCount() const { return rows.size(); }

    /** Canonical ordering + equality for cross-layout comparison. */
    bool equals(const ResultSet &other) const;

    /**
     * 64-bit FNV-1a digest of the canonicalized result: for each row
     * in lexicographic order, the 8 little-endian bytes of the row
     * separator 0x9e3779b97f4a7c15, then of every cell.  The wire and
     * perfbench compare it, so its value never changes.
     */
    uint64_t digest() const;
};

/**
 * Order-independent digest of one retrieved cell; every engine
 * (partitioned and Argo) XORs these into ResultSet::checksum so tests
 * can assert that different layouts physically read the same data.
 */
uint64_t resultCellDigest(AttrId attr, Slot s);

} // namespace dvp::engine

#endif // DVP_ENGINE_QUERY_HH
