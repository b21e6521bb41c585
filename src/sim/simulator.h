// Discrete-event simulator: a clock plus an event queue.
//
// The whole reproduction is event-driven: game server ticks, client send
// times, session arrivals/departures, map rotations, NAT drops and livelock
// episodes are all events against one Simulator instance. (The NAT device
// replays its own arrivals and completions between events; see
// router/nat_device.h.)
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event_queue.h"

namespace gametrace::sim {

class Simulator {
 public:
  [[nodiscard]] SimTime Now() const noexcept { return now_; }

  // Schedules at an absolute time; must not be in the past.
  std::uint64_t At(SimTime t, EventQueue::Handler fn);

  // Schedules `delay` seconds from now; delay must be >= 0.
  std::uint64_t After(SimTime delay, EventQueue::Handler fn);

  // Schedules `fn` at first_at, then every `interval` seconds after each
  // firing, without re-scheduling a fresh closure per firing. The handler
  // may take the firing time (`[](double t) { ... }`). Runs until
  // Cancel()led.
  std::uint64_t Every(SimTime first_at, SimTime interval, EventQueue::Handler fn);

  bool Cancel(std::uint64_t id) { return queue_.Cancel(id); }

  // Runs events until the queue empties or the clock passes `t_end`.
  // Events scheduled exactly at t_end are executed. Returns the number of
  // events executed.
  std::uint64_t RunUntil(SimTime t_end);

  // Runs until the queue is empty.
  std::uint64_t RunAll();

  // Requests that the run loop stop after the current event.
  void Stop() noexcept { stop_requested_ = true; }

  [[nodiscard]] std::uint64_t events_executed() const noexcept { return executed_; }
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

  // Most events ever pending at once (see EventQueue::high_water).
  [[nodiscard]] std::size_t queue_high_water() const noexcept {
    return queue_.high_water();
  }

  // ---- Wall-clock heartbeat ------------------------------------------
  //
  // A long run (the paper's full week is ~500 M events) is silent for
  // minutes at a time; the heartbeat gives the operator a pulse without
  // touching simulation behaviour. The run loop checks the wall clock only
  // once per `kHeartbeatStride` events, so an installed-but-quiet
  // heartbeat costs a countdown decrement per event.
  //
  // The callback fires on the simulation thread; it must not schedule or
  // cancel events. RunServerTrace installs a printer that knows the target
  // end time (for the ETA) and the server's player/packet counters.

  struct HeartbeatStatus {
    SimTime sim_now = 0.0;                // simulation clock, seconds
    std::uint64_t events_executed = 0;    // lifetime total for this simulator
    std::size_t pending = 0;              // events currently queued
    std::size_t queue_high_water = 0;     // max ever pending
    double wall_elapsed_seconds = 0.0;    // since the run loop started
    double events_per_second = 0.0;       // wall-clock rate since last beat
    double sim_seconds_per_second = 0.0;  // sim-time advance rate since last beat
  };
  using HeartbeatFn = std::function<void(const HeartbeatStatus&)>;

  // Installs (or, with an empty fn, removes) the heartbeat. The interval is
  // wall-clock seconds and must be > 0 when a callback is given.
  void SetHeartbeat(double wall_interval_seconds, HeartbeatFn fn);
  void ClearHeartbeat() noexcept;
  [[nodiscard]] bool has_heartbeat() const noexcept {
    return static_cast<bool>(heartbeat_fn_);
  }

 private:
  // Events between wall-clock checks; small enough to beat within ~a second
  // of the deadline at realistic dispatch rates, large enough that the
  // check itself never shows up in a profile.
  static constexpr std::uint64_t kHeartbeatStride = 4096;

  void MaybeBeat();

  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;

  HeartbeatFn heartbeat_fn_;
  double heartbeat_interval_ = 0.0;  // wall seconds
  std::uint64_t heartbeat_countdown_ = 0;
  // Wall-clock anchors, in steady_clock seconds (stored as doubles to keep
  // <chrono> out of this header).
  double run_start_wall_ = 0.0;
  double last_beat_wall_ = 0.0;
  SimTime last_beat_sim_ = 0.0;
  std::uint64_t last_beat_executed_ = 0;
};

}  // namespace gametrace::sim
