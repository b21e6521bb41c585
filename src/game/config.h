// All tunables of the Counter-Strike workload model, with defaults
// calibrated to the paper's published aggregates (DESIGN.md section 3).
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "sim/diurnal.h"

namespace gametrace::game {

// Application-payload size model parameters (paper Table III, Figs 12-13).
struct SizeConfig {
  // Inbound (client -> server) updates: a narrow distribution centred on
  // 40 B (paper: mean 39.72 B, "almost all incoming packets < 60 bytes").
  double inbound_mean = 40.0;
  double inbound_stddev = 4.5;
  std::uint16_t inbound_min = 20;
  std::uint16_t inbound_max = 80;

  // Outbound (server -> client) state updates grow with the number of
  // connected players; with the calibrated session model averaging ~18
  // players this yields the paper's 129.5 B outbound mean and the wide
  // 0-300 B spread of Figure 12(b).
  double outbound_base = 20.0;
  double outbound_per_player = 5.85;
  double outbound_stddev = 28.0;
  std::uint16_t outbound_min = 16;
  std::uint16_t outbound_max = 480;

  // Occasionally a text/voice chat payload replaces a plain update.
  double chat_probability = 0.002;
  double chat_mean = 140.0;
  double chat_stddev = 60.0;
  std::uint16_t chat_max = 400;

  // Handshake / control packet sizes (bytes of application payload).
  std::uint16_t connect_request = 44;
  std::uint16_t connect_accept = 96;
  std::uint16_t connect_reject = 32;
  std::uint16_t disconnect = 24;
};

enum class ClientClass : std::uint8_t { kModem, kBroadband, kL337 };

// Client population mix (paper Fig 11: the overwhelming majority pegged at
// modem rates; "only a handful of 'l337' players" above the 56 kbps line).
struct ClientMixConfig {
  double broadband_fraction = 0.04;
  double l337_fraction = 0.012;  // remainder are modem players

  // Client -> server update rate (packets/sec). Calibrated so the mean
  // inbound load is ~24.3 pps per player (437 pps / ~18 players, Table II).
  double modem_rate_mean = 24.3;
  double modem_rate_stddev = 1.8;
  double broadband_rate_mean = 30.0;
  double broadband_rate_stddev = 2.5;
  double l337_rate_mean = 60.0;
  double l337_rate_stddev = 5.0;

  // "l337" clients crank cl_updaterate: the server sends them several
  // snapshots per 50 ms tick instead of one.
  int l337_snapshots_per_tick = 3;

  // Fractional jitter on the client inter-send gap (clients are paced by
  // their own frame rate, not by the server clock).
  double send_jitter = 0.25;
};

// Session arrival/departure model (paper Table I).
struct SessionConfig {
  // Fresh (non-retry) connection attempts per second before diurnal
  // modulation. With ~703 s mean sessions against 22 slots this keeps the
  // server hovering near capacity (~18 players on average) and produces the
  // paper's attempt/established/refused proportions.
  double fresh_attempt_rate = 0.0315;

  // Players often arrive in groups (friends/clan-mates joining together):
  // each arrival event brings 1 + Poisson(group_mean_extra) attempts. The
  // event rate is derated so the mean attempt rate stays
  // fresh_attempt_rate; grouping concentrates attempts, producing the
  // full-server refusal episodes of Table I without long-range daily
  // swings (which would break the paper's H ~ 1/2 above 30 min, Fig 5).
  double group_mean_extra = 0.7;

  double mean_duration = 715.0;   // "connected ... approximately 15 minutes"
  double duration_stddev = 850.0;  // heavy-ish tail (lognormal)
  double min_duration = 30.0;

  // Client-identity pool: a Zipf-popular community (regulars average ~3
  // sessions for the week; paper: 16,030 sessions / 5,886 unique clients).
  std::size_t population = 9000;
  double zipf_s = 0.45;

  // Players already in the game when the capture begins ("after a brief
  // warm-up period, we recorded the traffic").
  int initial_players = 19;

  // A refused client may retry while the server is still full.
  double retry_probability = 0.60;
  double retry_mean_delay = 45.0;
  int max_retries = 4;
};

// Map rotation and round structure (paper section II: ~30 min maps, rounds
// of several minutes; map changeover stalls traffic for seconds).
struct MapConfig {
  double map_duration = 1800.0;
  double changeover_stall_mean = 12.0;
  double changeover_stall_jitter = 4.0;
  double round_mean_duration = 170.0;
  double round_min_duration = 45.0;
  double buy_time = 6.0;             // low-activity seconds at round start
  double buy_time_activity = 0.80;   // inbound thinning factor during buy time
};

// Rate-limited custom logo / map downloads (paper section II).
struct DownloadConfig {
  double join_probability = 0.20;        // new joiner fetches decals
  double map_change_probability = 0.02;  // per connected client per map change
  double mean_bytes = 12e3;
  double stddev_bytes = 16e3;
  double min_bytes = 2e3;
  double rate_limit_bps = 24000.0;  // server-side limiter
  double chunk_min = 350.0;
  double chunk_max = 500.0;
};

// Brief network outages (the trace includes three, on Apr 12/14/17).
struct OutageConfig {
  std::vector<double> times;  // seconds from trace start
  double duration = 8.0;
  // After an outage "some of the players, having recorded the server's IP
  // address, immediately reconnected; a significant number did not".
  double immediate_reconnect_fraction = 0.35;
  double delayed_reconnect_fraction = 0.40;
  double delayed_reconnect_mean = 240.0;  // server rediscovery time
};

struct GameConfig {
  net::ServerEndpoint server;
  int max_players = 22;
  double tick_interval = 0.050;  // the 50 ms synchronous broadcast
  // Ablation knob: 0 = synchronous broadcast (paper behaviour); 1 = each
  // client's update uniformly spread across the tick (desynchronised).
  double broadcast_spread = 0.0;
  double server_link_bps = 100e6;  // paces packets within a broadcast burst
  double trace_duration = 626477.0;
  std::uint64_t seed = 42;
  // Added to the client address of every emitted packet record (game-log
  // events and endpoint lookups keep the identity address). Gives each
  // server of a fleet its own client namespace so per-server analyses merge
  // exactly; RunFleet sets it from ShardIpShift. 0 = the identity pool's
  // own 10/8 addresses.
  std::uint32_t client_ip_shift = 0;

  SizeConfig sizes;
  ClientMixConfig clients;
  SessionConfig sessions;
  MapConfig maps;
  DownloadConfig downloads;
  OutageConfig outages;
  sim::DiurnalCurve diurnal;

  // Checks every numeric tunable against its rule (finite, positive, a
  // probability, min <= max, ...); the first field that breaks one fails a
  // GT_CHECK whose message names it. CsServer, RunFleet and
  // RunNatExperiment call it before any work starts. seed,
  // client_ip_shift and the handshake sizes take any value of their type.
  void Validate() const;

  // The full-week configuration reproducing the paper's trace.
  [[nodiscard]] static GameConfig PaperDefaults();

  // Same mechanisms, shorter wall-clock: trace_duration set to
  // `duration_seconds` and the three outages placed proportionally within
  // it. Every *rate* and *shape* parameter is untouched, so all per-second
  // and per-packet statistics are preserved; only totals scale.
  [[nodiscard]] static GameConfig ScaledDefaults(double duration_seconds);
};

}  // namespace gametrace::game
