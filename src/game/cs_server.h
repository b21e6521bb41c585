// The simulated Counter-Strike server: ties the tick engine, session churn,
// map rotation, downloads and outages together and emits the packet stream
// a tcpdump next to the real server would have captured.
//
// Timestamps emitted within one 50 ms tick may be mildly out of order
// across traffic classes (the tick handler pre-dates client sends inside
// the tick window); all library sinks bin or track by timestamp, so this
// is harmless, but consumers requiring strict ordering should re-sort
// within a 1-tick horizon (the NAT injector in router/nat_device.h does
// exactly that via event scheduling).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "game/client.h"
#include "game/config.h"
#include "game/download.h"
#include "game/map_rotation.h"
#include "game/outage.h"
#include "game/packet_size_model.h"
#include "game/server_tick.h"
#include "game/session_model.h"
#include "obs/metrics.h"
#include "obs/trace_log.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "stats/time_series.h"
#include "trace/capture.h"

namespace gametrace::game {

class CsServer {
 public:
  // Ground truth the packet trace cannot see directly (server-log style).
  struct Stats {
    std::uint64_t attempts = 0;
    std::uint64_t established = 0;
    std::uint64_t refused = 0;
    std::uint64_t orderly_disconnects = 0;
    std::uint64_t outage_disconnects = 0;
    std::uint64_t unique_attempting = 0;
    std::uint64_t unique_establishing = 0;
    int maps_played = 0;
    std::uint64_t rounds_played = 0;
    int peak_players = 0;
    std::uint64_t ticks = 0;
    std::uint64_t packets_emitted = 0;
    // On-the-wire bytes (headers included) across all emitted packets -
    // the numerator of the paper's per-client bandwidth figures.
    std::uint64_t wire_bytes_emitted = 0;
    std::uint64_t downloads_started = 0;
  };

  // `sink` receives every emitted packet and must outlive the server.
  // `config` must pass GameConfig::Validate.
  CsServer(sim::Simulator& simulator, GameConfig config, trace::CaptureSink& sink);

  CsServer(const CsServer&) = delete;
  CsServer& operator=(const CsServer&) = delete;

  // Schedules all activity starting at the current simulation time.
  void Start();

  // Convenience: Start() then run the simulator to config().trace_duration.
  void Run();

  [[nodiscard]] const GameConfig& config() const noexcept { return config_; }
  [[nodiscard]] int active_players() const noexcept { return static_cast<int>(clients_.size()); }
  [[nodiscard]] Stats stats() const;

  // Player count sampled once per minute (paper Figure 3).
  [[nodiscard]] const stats::TimeSeries& player_series() const noexcept { return players_; }

  // Freezes the server's outbound broadcast for `seconds` from now, without
  // stopping client sends - the game-freeze feedback the NAT experiment
  // exhibits when inbound updates are lost (paper section IV-A).
  void InduceStall(double seconds);

  // Disconnects the session currently using this client endpoint (a player
  // quitting - the QoE self-tuning path). Returns false if no such player
  // is connected.
  bool DisconnectByEndpoint(net::Ipv4Address ip, std::uint16_t port, bool orderly = true);

 private:
  void OnTick(double t);
  void HandleAttempt(std::size_t identity, bool is_retry);
  void Depart(std::uint64_t session_id, bool orderly);
  void OnOutageBegin(double t);
  void OnOutageEnd(double t);
  void OnMapStart(double t);
  void Emit(double t, net::Direction direction, net::PacketKind kind, std::uint16_t bytes,
            net::Ipv4Address ip, std::uint16_t port, std::uint32_t seq = 0);

  sim::Simulator* simulator_;
  GameConfig config_;
  trace::CaptureSink* sink_;
  sim::Rng rng_;
  PacketSizeModel size_model_;
  TickEngine tick_engine_;
  TickEngine minute_sampler_;
  MapRotation map_rotation_;
  std::unique_ptr<SessionModel> session_model_;
  std::unique_ptr<DownloadManager> downloads_;
  OutageSchedule outages_;

  std::vector<ActiveClient> clients_;
  // Each tick's packets, written column-wise as they are drawn and handed
  // to the sink as a single OnColumns call (see the delivery-tier contract
  // in trace/capture.h): the stream is born columnar, so sinks with
  // columnar kernels never see an AoS record at all. Handshake and download
  // traffic outside the tick handler leaves as one-row batches. Capacity is
  // reused across ticks.
  net::ColumnarBatch tick_batch_;
  std::unordered_set<std::uint64_t> live_sessions_;
  std::unordered_map<std::size_t, int> retry_counts_;
  std::unordered_set<std::size_t> attempted_ids_;
  std::unordered_set<std::size_t> established_ids_;
  stats::TimeSeries players_;
  std::uint64_t next_session_id_ = 1;
  double stall_until_ = 0.0;
  bool started_ = false;

  std::uint64_t attempts_ = 0;
  std::uint64_t established_count_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t orderly_disconnects_ = 0;
  std::uint64_t outage_disconnects_ = 0;
  int peak_players_ = 0;
  std::uint64_t packets_emitted_ = 0;
  std::uint64_t wire_bytes_emitted_ = 0;

  // Ambient observability, captured from obs::Current() at construction.
  // All-null outside a binding; counters mirror the Stats fields above
  // (sim-derived, so they participate in the deterministic shard merge),
  // the trace log receives the map/outage/session span taxonomy.
  struct Observability {
    obs::TraceLog* trace = nullptr;
    obs::Counter* packets_emitted = nullptr;
    obs::Counter* bytes_emitted = nullptr;
    // Downstream (server->client) wire bytes only: the last-mile traffic
    // the per-client saturation SLO rule compares against a modem.
    obs::Counter* bytes_to_clients = nullptr;
    // Current connected-player level (kSum: fleet shards add up to the
    // fleet-wide population). Feeds the per-client bandwidth SLO rule.
    obs::Gauge* active_players = nullptr;
    obs::Counter* attempts = nullptr;
    obs::Counter* established = nullptr;
    obs::Counter* refused = nullptr;
    obs::Counter* orderly_disconnects = nullptr;
    obs::Counter* outage_disconnects = nullptr;
    obs::Counter* maps_started = nullptr;
    obs::Counter* rounds_started = nullptr;
    obs::Gauge* peak_players = nullptr;
    // Per-client downstream kbps, one observation per client per minute -
    // the tail (p99 vs the 56k modem) companion to bytes_to_clients.
    stats::QuantileSketch* client_kbps = nullptr;
    // Emitted packets per tick bin at tiered resolutions, with an online
    // Hurst estimator riding the base tier - the streaming, bounded-memory
    // version of the paper's load series (Figs 4-5).
    stats::TieredRing* load_ring = nullptr;
  };
  Observability obs_;
  double outage_began_at_ = -1.0;
  double map_began_at_ = -1.0;
  int current_map_ = 0;
};

}  // namespace gametrace::game
