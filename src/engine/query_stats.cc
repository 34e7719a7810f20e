#include "engine/query_stats.hh"

namespace dvp::engine
{

const char *
planSourceName(PlanSource s)
{
    switch (s) {
      case PlanSource::AdHoc: return "adhoc";
      case PlanSource::CacheHit: return "hit";
      case PlanSource::CacheMiss: return "miss";
    }
    return "?";
}

std::vector<std::pair<std::string, uint64_t>>
QueryStats::summary() const
{
    return {
        {"exec_ns", execNs},
        {"plan_ns", planNs},
        {"filter_ns", filterNs},
        {"retrieve_ns", retrieveNs},
        {"project_ns", projectNs},
        {"join_ns", joinNs},
        {"rows_scanned", rowsScanned},
        {"partition_touches", partitionTouches},
        {"blocks_scanned", blocksScanned},
        {"blocks_skipped", blocksSkipped},
        {"matches", matches},
        {"rows_out", rowsOut},
        {"compressed_rle", compressedEval[0]},
        {"compressed_pack", compressedEval[1]},
        {"compressed_raw", compressedEval[2]},
        {"compressed_decompress", compressedEval[3]},
        {"morsels", morsels},
        {"threads", threads},
        {"plan_source", static_cast<uint64_t>(planSource)},
        {"plan_epoch", planEpoch},
    };
}

} // namespace dvp::engine
