// Output checks of the benchmark: invariants and paper bands, never a
// digest of the random stream, so a deliberate change to the generator's
// draws still passes as long as the traffic keeps the paper's shape.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/characterizer.h"
#include "core/experiment.h"
#include "core/fleet.h"

namespace perfbench {

struct Check {
  std::string name;
  bool pass = false;
  std::string detail;
};

class CheckList {
 public:
  void Expect(std::string name, bool pass, std::string detail = {});
  // `lo <= value <= hi`, with the value in the detail.
  void ExpectIn(std::string name, double value, double lo, double hi);

  [[nodiscard]] const std::vector<Check>& checks() const noexcept { return checks_; }
  [[nodiscard]] bool all_pass() const noexcept;
  [[nodiscard]] double pass_frac() const noexcept;

 private:
  std::vector<Check> checks_;
};

// Canonical byte serialization of a report: every field, doubles by their
// bit pattern. Two reports are identical iff their serializations are.
[[nodiscard]] std::string SerializeReport(const gametrace::core::CharacterizationReport& report);

// Canonical serialization of a NAT experiment's outputs.
[[nodiscard]] std::string SerializeNatResult(const gametrace::core::NatExperimentResult& result);

// Conservation: the report accounts for every packet the producer emitted.
void CheckConservation(CheckList& checks, const gametrace::core::CharacterizationReport& report,
                       std::uint64_t packets_emitted);

// Tables I-III: mean packet sizes and per-player packet rates stay within
// bands around the paper's values. `mean_players` is the time-averaged
// connected-player count over all `servers` the summary covers.
void CheckPaperBands(CheckList& checks, const gametrace::trace::TraceSummary& summary,
                     double mean_players, int servers = 1);

// Fig 5: anti-persistent below 50 ms, long-range dependent above. The
// tick makes one server's small-scale estimate hover near 0, and servers
// ticking in lockstep push an aggregate's further below, so the caller
// sets the floor.
void CheckHurst(CheckList& checks, const gametrace::stats::HurstRegions& hurst,
                double small_scale_floor);

// Table IV: the NAT device's loss band and its in/out asymmetry, plus the
// device's own conservation.
void CheckNatExperiment(CheckList& checks, const gametrace::core::NatExperimentResult& result);

// Mean of the per-minute player samples.
[[nodiscard]] double MeanPlayers(const gametrace::stats::TimeSeries& players);

}  // namespace perfbench
