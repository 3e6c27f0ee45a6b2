// The per-layer metric sheet of the traced run, and the end-state probes
// every scenario shares.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"
#include "runtime/plan.h"
#include "scenario.h"

namespace perfbench {

/// Every per-layer metric, in print order, each with its unit. A scenario
/// sets what its layers produce; the rest stays 0 ("no change predicted").
class Layers {
 public:
  Layers();

  /// Sets a listed metric; an unlisted name is a harness bug and aborts.
  void set(const std::string& name, double value);
  /// Sets `<name>.p50`, `<name>.p99` and `<name>.n` from `samples`.
  void set_quantiles(const std::string& name,
                     const std::vector<double>& samples);

  const Metrics& metrics() const { return metrics_; }

  /// The fixed metric list: name and unit.
  static const std::vector<std::pair<std::string, std::string>>& schema();

 private:
  Metrics metrics_;
};

/// What the shared probes need to know about a scenario's inputs.
struct ProbeInputs {
  /// The scenario's access shapes, lowered fresh on every call, with the
  /// storage class each is priced at.
  struct Shape {
    std::function<msra::StatusOr<msra::runtime::IoPlan>()> lower;
    msra::core::Location location = msra::core::Location::kRemoteDisk;
  };
  std::vector<Shape> shapes;
  /// Payload size of the scenario's typical object (store/prt probes).
  std::uint64_t object_bytes = 0;
};

/// Counters that accumulate from the testbed's construction (tape mounts,
/// the Eq. 1 breakdown). Scenarios take one after set-up, so the sheet shows
/// only the timed phase's share.
struct Baseline {
  double mounts = 0.0;
  double conn = 0.0, open = 0.0, seek = 0.0, rw = 0.0, close = 0.0;
  double eq1_total() const { return conn + open + seek + rw + close; }
};
Baseline take_baseline(Bed& bed);

/// Reads the end-state counters (simkit, cache, tape, Eq. 1) less `since`.
/// Scenarios call it right after the timed phase, before output checks
/// touch the system.
void read_counters(Bed& bed, const Baseline& since, Layers& layers);

/// Runs the timed probes that book or look up state: reserve on the
/// busiest device, catalog lookups, plan lowering/pricing/execution, cache
/// lookups, store byte movement, a prt exchange and an Astro3D step.
void probe_common(Bed& bed, const ProbeInputs& inputs, Spans& spans,
                  Layers& layers, std::vector<std::string>& errors);

}  // namespace perfbench
