/**
 * @file
 * The epoch-keyed plan cache.
 *
 * Plans are keyed on the query template's attribute signature; an entry
 * is served only while its epoch matches the executing Database's epoch
 * (and, belt-and-braces, its layout fingerprint and catalog width).
 * Because every adaptive swap installs a freshly built Database with a
 * new epoch, a swap invalidates every cached plan *for free* — no
 * flush hook, no version sweep; stale entries are evicted lazily on
 * their next lookup.
 *
 * bind() is safe to call concurrently from several query threads while
 * a background repartition swaps the database: a query still running on
 * an older snapshot binds privately and never clobbers entries already
 * re-bound against the newer epoch.
 */

#ifndef DVP_ENGINE_PLAN_CACHE_HH
#define DVP_ENGINE_PLAN_CACHE_HH

#include <memory>
#include <mutex>
#include <unordered_map>

#include "engine/plan.hh"

namespace dvp::engine
{

/** Caches bound PhysicalPlans across executions of query templates. */
class PlanCache
{
  public:
    /**
     * The bound plan for @p q against @p db: the cached plan when it is
     * fresh (same epoch, layout fingerprint, catalog width, template
     * key), a newly bound one otherwise.  Every lookup counts in the
     * dvp_plan_cache_{hits,misses,invalidations}_total counters.
     * @p hit, when non-null, receives whether the lookup was served
     * from cache (per-query plan provenance for EXPLAIN ANALYZE).
     */
    std::shared_ptr<const PhysicalPlan> bind(const Database &db,
                                             const Query &q,
                                             bool *hit = nullptr);

    /**
     * Cached-plan lookup without counter side effects (EXPLAIN's
     * provenance probe).  @p uses, when non-null, receives how many
     * times the entry has been served.  Returns null when the cache
     * holds no fresh plan for the template.
     */
    std::shared_ptr<const PhysicalPlan>
    peek(const Database &db, const Query &q,
         uint64_t *uses = nullptr) const;

    size_t size() const;
    void clear();

  private:
    struct Entry
    {
        std::shared_ptr<const PhysicalPlan> plan;
        uint64_t uses = 0;
    };

    static bool fresh(const PhysicalPlan &p, const Database &db,
                      const std::vector<uint64_t> &key);

    mutable std::mutex mu;
    std::unordered_map<uint64_t, Entry> entries;
};

} // namespace dvp::engine

#endif // DVP_ENGINE_PLAN_CACHE_HH
