#include "server/stats.h"

#include <algorithm>

#include "server/hartd.h"

namespace hart::server {

namespace {

std::string shard_label(size_t i) {
  return "shard=\"" + std::to_string(i) + "\"";
}

}  // namespace

void collect_stats(const Hartd& d, obs::Registry::Sample* counters,
                   std::vector<obs::HistogramView>* hists) {
  *counters = obs::Registry::instance().snapshot();
  hists->clear();

  uint64_t ops = 0, write_acks = 0, batches = 0, epochs = 0, failed = 0,
           device_ns = 0;
  for (size_t i = 0; i < d.shard_count(); ++i) {
    const Shard& s = d.shard(i);
    const ShardStats& st = s.stats();
    const uint64_t s_ops = st.ops.load(std::memory_order_relaxed);
    const uint64_t s_acks = st.write_acks.load(std::memory_order_relaxed);
    const uint64_t s_batches = st.batches.load(std::memory_order_relaxed);
    const uint64_t s_epochs = st.epochs.load(std::memory_order_relaxed);
    const uint64_t s_failed = st.failed.load(std::memory_order_relaxed);
    const uint64_t s_dev = st.device_ns.load(std::memory_order_relaxed);
    ops += s_ops;
    write_acks += s_acks;
    batches += s_batches;
    epochs += s_epochs;
    failed += s_failed;
    device_ns += s_dev;
    const std::string lbl = shard_label(i);
    counters->emplace_back("hartd_shard_ops_total{" + lbl + "}", s_ops);
    counters->emplace_back("hartd_shard_write_acks_total{" + lbl + "}",
                           s_acks);
    counters->emplace_back("hartd_shard_batches_total{" + lbl + "}",
                           s_batches);
    counters->emplace_back("hartd_shard_epochs_total{" + lbl + "}", s_epochs);
    // DRAM footprint of the shard's tree (hash directory + ART internal
    // nodes) and its partition count: the live view of the per-key DRAM
    // cost the benchmark reports.
    counters->emplace_back("hartd_shard_dram_bytes{" + lbl + "}",
                           s.hart().memory_usage().dram_bytes);
    counters->emplace_back("hartd_shard_partitions{" + lbl + "}",
                           s.hart().partition_count());

    const ShardHistograms sh = s.histograms();
    for (size_t o = 0; o < ShardHistograms::kOps; ++o) {
      if (sh.op[o].count() == 0) continue;
      hists->push_back({"hartd_op_latency_ns",
                        lbl + ",op=\"" + op_hist_name(o) + "\"", sh.op[o]});
    }
    if (sh.fence.count() != 0)
      hists->push_back({"hartd_fence_latency_ns", lbl, sh.fence});
    // Stage-latency attribution (DESIGN.md §12). Always emitted — an idle
    // shard exposes well-defined zeros (empty-histogram percentiles are 0)
    // rather than disappearing from the scrape.
    hists->push_back({"hartd_stage_latency_ns",
                      lbl + ",stage=\"queue_wait\"", sh.queue_wait});
    hists->push_back({"hartd_stage_latency_ns",
                      lbl + ",stage=\"batch_residency\"", sh.batch_residency});
    hists->push_back({"hartd_stage_latency_ns",
                      lbl + ",stage=\"fence_wait\"", sh.fence_wait});
  }

  // Dispatcher-served reads (kGet fast path, kMget, kScan) never enter a
  // shard queue, so they are accounted at the service level and folded
  // into the ops total alongside the per-shard applied counts.
  const uint64_t fastpath = d.fastpath_reads();
  counters->emplace_back("hartd_fastpath_reads_total", fastpath);
  counters->emplace_back("hartd_ops_total", ops + fastpath);
  counters->emplace_back("hartd_write_acks_total", write_acks);
  counters->emplace_back("hartd_batches_total", batches);
  counters->emplace_back("hartd_epochs_total", epochs);
  counters->emplace_back("hartd_failed_total", failed);
  counters->emplace_back("hartd_device_ns_total", device_ns);
  counters->emplace_back("hartd_live_keys", d.total_size());
  counters->emplace_back("hartd_recovery_duration_ms", d.recovery_ms());
  counters->emplace_back("hartd_recovered_keys", d.recovered_keys());

  // Replication plane. Role is a numeric gauge (0 primary, 1 follower,
  // 2 promoting); the cumulative repl counters (batches shipped / applied
  // / confirmed, reconnects, evictions) already live in the registry
  // snapshot merged above.
  counters->emplace_back("hartd_repl_role",
                         static_cast<uint64_t>(d.role()));
  if (const repl::Replicator* r = d.replicator()) {
    counters->emplace_back("hartd_repl_followers", r->follower_count());
    counters->emplace_back("hartd_repl_connected_links",
                           r->connected_links());
    counters->emplace_back("hartd_repl_lag_batches", r->lag_batches());
    counters->emplace_back("hartd_repl_quorum_needed", r->quorum_needed());
    counters->emplace_back("hartd_repl_pending_quorum_acks",
                           r->pending_quorum_acks());
    counters->emplace_back("hartd_repl_log_occupancy_hwm",
                           r->log().occupancy_high_watermark());
    // Per-link health, plus worst-case aggregates under the same gauge
    // names the follower role emits — dashboards poll one name per role.
    uint64_t lag_seq = 0, lag_bytes = 0, confirm_age = 0;
    for (const repl::LinkHealth& lh : r->link_health()) {
      const std::string lbl = "link=\"" + std::to_string(lh.index) + "\"";
      counters->emplace_back("hartd_repl_link_lag_seq{" + lbl + "}",
                             lh.lag_seq);
      counters->emplace_back("hartd_repl_link_lag_bytes{" + lbl + "}",
                             lh.lag_bytes);
      counters->emplace_back(
          "hartd_repl_link_last_confirm_age_ms{" + lbl + "}",
          lh.last_confirm_age_ms);
      counters->emplace_back("hartd_repl_link_connected{" + lbl + "}",
                             lh.connected ? 1 : 0);
      counters->emplace_back("hartd_repl_link_synced{" + lbl + "}",
                             lh.synced ? 1 : 0);
      counters->emplace_back("hartd_repl_link_backoff_ms{" + lbl + "}",
                             lh.backoff_ms);
      lag_seq = std::max(lag_seq, lh.lag_seq);
      lag_bytes = std::max(lag_bytes, lh.lag_bytes);
      confirm_age = std::max(confirm_age, lh.last_confirm_age_ms);
    }
    counters->emplace_back("hartd_repl_lag_seq", lag_seq);
    counters->emplace_back("hartd_repl_lag_bytes", lag_bytes);
    counters->emplace_back("hartd_repl_last_confirm_age_ms", confirm_age);
    hists->push_back({"hartd_stage_latency_ns", "stage=\"quorum_wait\"",
                      r->quorum_wait_histogram()});
  }
  if (const repl::FollowerApplier* a = d.applier()) {
    for (const ReplPosition& p : a->positions()) {
      const std::string lbl =
          "stream=\"" + std::to_string(p.stream) + "\"";
      counters->emplace_back("hartd_repl_applied_seq{" + lbl + "}", p.seq);
      counters->emplace_back("hartd_repl_applied_epoch{" + lbl + "}",
                             p.epoch);
    }
    // Follower-side lag under the same gauge names the primary emits, so
    // repl_smoke can assert convergence-to-zero on either role. A promoted
    // node that also replicates onward reports the primary-side view.
    if (d.replicator() == nullptr) {
      const repl::FollowerApplier::Health h = a->health();
      counters->emplace_back("hartd_repl_lag_seq", h.backlog_batches);
      counters->emplace_back("hartd_repl_lag_bytes", h.backlog_bytes);
      counters->emplace_back("hartd_repl_last_confirm_age_ms",
                             h.last_apply_age_ms);
    }
  }

  // Prometheus TYPE lines are emitted when the base name changes, so
  // same-base series must be adjacent.
  std::sort(counters->begin(), counters->end());
  std::sort(hists->begin(), hists->end(),
            [](const obs::HistogramView& a, const obs::HistogramView& b) {
              return a.name != b.name ? a.name < b.name : a.labels < b.labels;
            });
}

std::string stats_prometheus(const Hartd& d) {
  obs::Registry::Sample counters;
  std::vector<obs::HistogramView> hists;
  collect_stats(d, &counters, &hists);
  return obs::prometheus_text(counters, hists);
}

std::string stats_json(const Hartd& d) {
  obs::Registry::Sample counters;
  std::vector<obs::HistogramView> hists;
  collect_stats(d, &counters, &hists);
  return obs::json_text(counters, hists);
}

}  // namespace hart::server
