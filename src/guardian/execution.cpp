// Structured export of the execution layer's counters (ManagerStats::ToJson):
// every cell is registered with an obs::MetricsRegistry in declaration order
// and rendered from there, so the JSON key order is stable and the same
// registration drives the Prometheus text dump.
#include "guardian/execution.hpp"

#include <string>

#include "obs/metrics.hpp"

namespace grd::guardian {

void ManagerStats::BindTo(obs::MetricsRegistry* registry) const {
  registry->Counter("launches", &launches);
  registry->Counter("sandboxed_launches", &sandboxed_launches);
  registry->Counter("native_launches", &native_launches);
  registry->Counter("lookup_cycles", &lookup_cycles);
  registry->Counter("augment_cycles", &augment_cycles);
  registry->Counter("transfers_checked", &transfers_checked);
  registry->Counter("transfers_rejected", &transfers_rejected);
  registry->Counter("faults_contained", &faults_contained);
  registry->Counter("responses_dropped", &responses_dropped);
  registry->Counter("ptx_modules_patched", &ptx_modules_patched);
  registry->Counter("ptx_cache_hits", &ptx_cache_hits);
  registry->Counter("ptx_programs_compiled", &ptx_programs_compiled);
  registry->Counter("guards_elided", &guards_elided);
  registry->Counter("sandbox_cache_evictions", &sandbox_cache_evictions);
  registry->Counter("sandbox_cache_bytes_reclaimed",
                    &sandbox_cache_bytes_reclaimed);
  registry->Counter("kernels_enqueued", &kernels_enqueued);
  registry->Counter("memcpys_enqueued", &memcpys_enqueued);
  registry->Counter("scheduler_ops_completed", &scheduler_ops_completed);
  registry->Gauge("peak_resident_kernels", &peak_resident_kernels);
  registry->Gauge("peak_sms_in_use", &peak_sms_in_use);
  registry->Gauge("peak_queue_depth", &peak_queue_depth);
  registry->Counter("batches_decoded", &batches_decoded);
  registry->Counter("batched_ops", &batched_ops);
  registry->Counter("batch_responses_compacted", &batch_responses_compacted);
  registry->Counter("preemptions", &preemptions);
  registry->Counter("preemption_resumes", &preemption_resumes);
  registry->Counter("checkpoint_bytes_saved", &checkpoint_bytes_saved);
  registry->Counter("budget_requeues", &budget_requeues);
  registry->Counter("kernel_blocks_executed", &kernel_blocks_executed);
  registry->Counter("superinstructions_fused", &superinstructions_fused);
  registry->Counter("tier2_instructions", &tier_instructions[2]);
  registry->Counter("ring_messages_read", &ring_messages_read);
  registry->Counter("ring_messages_written", &ring_messages_written);
  registry->Counter("sessions_adopted", &sessions_adopted);
  registry->Counter("sessions_migrated", &sessions_migrated);
  registry->Counter("checkpoint_kernels_resumed", &checkpoint_kernels_resumed);
  registry->Counter("lockstep_phases", &lockstep_phases);
  static const char* const kReplayKeys[ptxexec::kReplayCauses] = {
      "replays_divergence", "replays_conflict", "replays_fault",
      "replays_budget", "replays_log_bound"};
  for (std::size_t cause = 0; cause < ptxexec::kReplayCauses; ++cause)
    registry->Counter(kReplayKeys[cause], &replayed_phases[cause]);
  for (int cls = 0; cls < kPriorityClassCount; ++cls)
    registry->Histogram("wait_histograms",
                        std::string(PriorityClassName(
                            static_cast<PriorityClass>(cls))),
                        &wait_hist[cls]);
  static const std::atomic<std::uint64_t> schema_version{kSchemaVersion};
  registry->Gauge("schema_version", &schema_version);
}

std::string ManagerStats::ToJson() const {
  obs::MetricsRegistry registry;
  BindTo(&registry);
  return registry.ToJson();
}

std::string ManagerStats::ToPrometheus() const {
  obs::MetricsRegistry registry;
  BindTo(&registry);
  return registry.PrometheusText();
}

}  // namespace grd::guardian
