#include "engine/plan_cache.hh"

#include "obs/metrics.hh"

namespace dvp::engine
{

bool
PlanCache::fresh(const PhysicalPlan &p, const Database &db,
                 const std::vector<uint64_t> &key)
{
    return p.epoch == db.epoch() &&
           p.layoutFingerprint == db.layoutFingerprint() &&
           p.catalogWidth == db.data().catalog.attrCount() &&
           p.key == key;
}

std::shared_ptr<const PhysicalPlan>
PlanCache::bind(const Database &db, const Query &q, bool *hit)
{
    uint64_t sig = planSignature(q);
    std::vector<uint64_t> key = templateKey(q);

    if (hit != nullptr)
        *hit = false;
    bool newer_epoch_cached = false;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = entries.find(sig);
        if (it != entries.end()) {
            const PhysicalPlan &p = *it->second.plan;
            if (fresh(p, db, key)) {
                ++it->second.uses;
                DVP_COUNTER_INC("dvp_plan_cache_hits_total");
                if (hit != nullptr)
                    *hit = true;
                return it->second.plan;
            }
            if (p.epoch <= db.epoch()) {
                // Stale (or a signature collision): evict eagerly.
                entries.erase(it);
                DVP_COUNTER_INC("dvp_plan_cache_invalidations_total");
            } else {
                // The entry was bound against a *newer* database: this
                // query is still running on an older snapshot during a
                // swap.  Bind privately below, keep the newer entry.
                newer_epoch_cached = true;
            }
        }
        DVP_COUNTER_INC("dvp_plan_cache_misses_total");
    }

    // Bind outside the lock: binding only reads db metadata, and two
    // racing misses for one template are benign (last insert wins).
    auto plan = std::make_shared<const PhysicalPlan>(bindPlan(db, q));
    if (!newer_epoch_cached) {
        std::lock_guard<std::mutex> lock(mu);
        entries[sig] = Entry{plan, 0};
    }
    return plan;
}

std::shared_ptr<const PhysicalPlan>
PlanCache::peek(const Database &db, const Query &q, uint64_t *uses) const
{
    uint64_t sig = planSignature(q);
    std::vector<uint64_t> key = templateKey(q);
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.find(sig);
    if (it == entries.end() || !fresh(*it->second.plan, db, key))
        return nullptr;
    if (uses != nullptr)
        *uses = it->second.uses;
    return it->second.plan;
}

size_t
PlanCache::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return entries.size();
}

void
PlanCache::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    entries.clear();
}

} // namespace dvp::engine
