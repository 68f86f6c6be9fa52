#pragma once
// Run-level metrics: the three measures the paper analyses — throughput
// (deliveries), space overhead (peak buffer height), and energy (total
// transmission cost) — plus supporting diagnostics.

#include <cstdint>

namespace thetanet::route {

struct RunMetrics {
  // Injections.
  std::size_t injected_offered = 0;    ///< injection events presented
  std::size_t injected_accepted = 0;   ///< stored at the source
  std::size_t dropped_at_injection = 0;

  // Deliveries (throughput).
  std::size_t deliveries = 0;
  std::uint64_t total_hops_delivered = 0;
  std::uint64_t sum_latency = 0;       ///< delivery_time - injected_at, summed
  double delivered_cost = 0.0;         ///< energy charged to delivered packets

  // Energy.
  double total_energy = 0.0;   ///< energy of all successful transmissions
  double wasted_energy = 0.0;  ///< energy of collided (failed) transmissions

  // Transmissions.
  std::size_t attempted_tx = 0;
  std::size_t failed_tx = 0;   ///< MAC collisions
  std::size_t skipped_tx = 0;  ///< planned but source buffer already drained

  // Space overhead.
  std::size_t dropped_in_transit = 0;  ///< arrivals lost to a full buffer
  std::size_t peak_buffer = 0;         ///< max height of any Q_{v,d} observed
  std::size_t leftover_packets = 0;    ///< still buffered when the run ended

  double avg_cost_per_delivery() const {
    return deliveries == 0
               ? 0.0
               : (total_energy + wasted_energy) / static_cast<double>(deliveries);
  }
  double avg_delivered_cost() const {
    return deliveries == 0 ? 0.0
                           : delivered_cost / static_cast<double>(deliveries);
  }
  double avg_latency() const {
    return deliveries == 0 ? 0.0
                           : static_cast<double>(sum_latency) /
                                 static_cast<double>(deliveries);
  }
  double avg_hops() const {
    return deliveries == 0 ? 0.0
                           : static_cast<double>(total_hops_delivered) /
                                 static_cast<double>(deliveries);
  }

  bool operator==(const RunMetrics&) const = default;
};

}  // namespace thetanet::route
