#include "game/cs_server.h"

#include <algorithm>

#include "core/check.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"
#include "obs/ledger.h"
#include "sim/random.h"

namespace gametrace::game {

namespace {

GameConfig Validated(GameConfig config) {
  config.Validate();
  return config;
}

}  // namespace

CsServer::CsServer(sim::Simulator& simulator, GameConfig config, trace::CaptureSink& sink)
    : simulator_(&simulator),
      config_(Validated(std::move(config))),
      sink_(&sink),
      rng_(config_.seed),
      size_model_(config_.sizes),
      tick_engine_(simulator, config_.tick_interval, [this](double t) { OnTick(t); }),
      minute_sampler_(simulator, 60.0,
                      [this](double t) {
                        players_.Set(t, static_cast<double>(clients_.size()));
                        // Close every client's per-minute bandwidth window:
                        // one kbps observation apiece into the tail sketch.
                        for (ActiveClient& c : clients_) {
                          if (obs_.client_kbps != nullptr) {
                            obs_.client_kbps->Add(
                                static_cast<double>(c.window_bytes_down) * 8.0 / 1000.0 / 60.0);
                          }
                          c.window_bytes_down = 0;
                        }
                      }),
      map_rotation_(simulator, config_.maps, rng_.Split()),
      outages_(simulator, config_.outages,
               {.on_begin = [this](double t) { OnOutageBegin(t); },
                .on_end = [this](double t) { OnOutageEnd(t); }}),
      players_(0.0, 60.0) {
  session_model_ = std::make_unique<SessionModel>(
      simulator, config_.sessions, config_.diurnal, rng_.Split(),
      [this](std::size_t identity, bool is_retry) { HandleAttempt(identity, is_retry); });
  downloads_ = std::make_unique<DownloadManager>(
      simulator, config_.downloads, rng_.Split(),
      [this](std::uint16_t bytes, net::Ipv4Address ip, std::uint16_t port) {
        // Download chunks ride the client's netchannel and consume its
        // outbound sequence numbers.
        std::uint32_t seq = 0;
        const auto it = std::find_if(clients_.begin(), clients_.end(),
                                     [&](const ActiveClient& c) {
                                       return c.ip == ip && c.port == port;
                                     });
        if (it != clients_.end()) {
          seq = it->seq_out++;
          it->window_bytes_down += net::WireBytes(bytes);
        }
        Emit(simulator_->Now(), net::Direction::kServerToClient, net::PacketKind::kDownload,
             bytes, ip, port, seq);
      },
      [this](std::uint64_t session_id) { return live_sessions_.contains(session_id); });
  map_rotation_.SetCallbacks({.on_stall_begin = nullptr,
                              .on_map_start = [this](double t) { OnMapStart(t); },
                              .on_round_start = [this](double t) {
                                if (obs_.rounds_started != nullptr) obs_.rounds_started->Add();
                                if (obs_.trace != nullptr) obs_.trace->Instant("round_start", "map", t);
                              }});

  // Bind to the ambient observability context (no-op outside a binding).
  // Counters are registered once here so the per-event cost is one add.
  const obs::ObsContext& ctx = obs::Current();
  obs_.trace = ctx.trace;
  if (ctx.metrics != nullptr) {
    obs::MetricsRegistry& m = *ctx.metrics;
    obs_.packets_emitted = &m.counter("server.packets_emitted");
    obs_.bytes_emitted = &m.counter("server.bytes_emitted");
    obs_.bytes_to_clients = &m.counter("server.bytes_to_clients");
    obs_.active_players = &m.gauge("server.active_players", obs::Gauge::MergeMode::kSum);
    obs_.attempts = &m.counter("server.connections.attempted");
    obs_.established = &m.counter("server.connections.established");
    obs_.refused = &m.counter("server.connections.refused");
    obs_.orderly_disconnects = &m.counter("server.disconnects.orderly");
    obs_.outage_disconnects = &m.counter("server.disconnects.outage");
    obs_.maps_started = &m.counter("server.maps_started");
    obs_.rounds_started = &m.counter("server.rounds_started");
    obs_.peak_players = &m.gauge("server.peak_players", obs::Gauge::MergeMode::kMax);
    obs_.client_kbps = &m.sketch("client.bandwidth.kbps");
    stats::TieredRing::Options ring_options =
        stats::TieredRing::Options::PaperSchedule(config_.tick_interval);
    ring_options.track_hurst = true;
    obs_.load_ring = &m.ring("server.load.pps", std::move(ring_options));
  }
}

void CsServer::Start() {
  if (started_) return;
  started_ = true;
  const double now = simulator_->Now();
  map_rotation_.Start();
  tick_engine_.Start(now);
  minute_sampler_.Start(now);
  session_model_->Start();
  outages_.Start(now + config_.trace_duration);
  // Warm start: fill most slots so the capture begins at steady state.
  const int warm = std::min(config_.sessions.initial_players, config_.max_players);
  for (int i = 0; i < warm; ++i) {
    HandleAttempt(session_model_->SampleIdentity(), /*is_retry=*/false);
  }
}

void CsServer::Run() {
  Start();
  simulator_->RunUntil(config_.trace_duration);
}

void CsServer::OnTick(double t) {
  const obs::LayerScope scope(obs::Layer::kGameGenerate);
  if (obs_.trace != nullptr) {
    obs_.trace->Complete("tick", "tick", t, t + config_.tick_interval);
  }
  // Each packet is sized as it is drawn, so rng_ is consumed in emission
  // order, and its row goes straight into tick_batch_'s columns; the
  // counters are bumped once for the whole tick.
  const bool frozen = outages_.active() || t < stall_until_;
  const bool map_stalled = map_rotation_.stalled();
  const double tick = config_.tick_interval;
  std::uint64_t wire_total = 0;
  const auto push = [&](double when, net::Direction direction, bool chat, std::uint16_t bytes,
                        const ActiveClient& c, std::uint32_t seq) {
    net::PacketRow row;
    row.timestamp = when;
    row.client_ip = c.ip.value() + config_.client_ip_shift;
    row.seq = seq;
    row.client_port = c.port;
    row.app_bytes = bytes;
    row.direction = static_cast<std::uint8_t>(direction);
    row.kind = static_cast<std::uint8_t>(chat ? net::PacketKind::kChat
                                              : net::PacketKind::kGameUpdate);
    tick_batch_.Push(row);
    wire_total += net::WireBytes(bytes);
  };

  // Outbound: the synchronous broadcast burst. Packets within the burst are
  // spaced by their serialisation time on the server's link, so a burst of
  // ~18 snapshots occupies only a few hundred microseconds - the pattern
  // that melts per-packet lookup devices (paper section IV-A).
  std::uint64_t wire_down = 0;
  if (!frozen && !map_stalled && !clients_.empty()) {
    const int n = static_cast<int>(clients_.size());
    double offset = 0.0;
    for (ActiveClient& c : clients_) {
      for (int s = 0; s < c.profile.snapshots_per_tick; ++s) {
        const bool chat = size_model_.DrawChatSubstitution(rng_);
        const std::uint16_t bytes =
            chat ? size_model_.ChatPayload(rng_) : size_model_.OutboundUpdate(rng_, n);
        const std::uint64_t wire = net::WireBytes(bytes);
        double when;
        if (config_.broadcast_spread > 0.0) {
          when = t + config_.broadcast_spread * rng_.NextDouble() * tick;
        } else if (s == 0) {
          when = t + offset;
          offset += net::SerializationDelay(wire, config_.server_link_bps);
        } else {
          // Extra "l337" snapshots land between main bursts.
          when = t + static_cast<double>(s) * tick /
                         static_cast<double>(c.profile.snapshots_per_tick) +
                 sim::Uniform(rng_, 0.0, 3e-4);
        }
        push(when, net::Direction::kServerToClient, chat, bytes, c, c.seq_out++);
        c.window_bytes_down += wire;
        wire_down += wire;
      }
    }
  }

  // Inbound: each client runs on its own frame clock; emit every send whose
  // time falls inside this tick window. Sends are suppressed (but the clock
  // still advances) while the world is frozen for the client.
  const double window_end = t + tick;
  const double activity = map_rotation_.activity_factor();
  for (ActiveClient& c : clients_) {
    while (c.next_send < window_end) {
      const double when = c.next_send;
      c.next_send += NextSendGap(c.profile, config_.clients.send_jitter, rng_);
      if (outages_.active() || map_stalled) continue;
      if (activity < 1.0 && rng_.NextDouble() >= activity) continue;
      const bool chat = size_model_.DrawChatSubstitution(rng_);
      const std::uint16_t bytes =
          chat ? size_model_.ChatPayload(rng_) : size_model_.InboundUpdate(rng_);
      push(when, net::Direction::kClientToServer, chat, bytes, c, c.seq_in++);
    }
  }

  const std::size_t count = tick_batch_.size();
  if (count == 0) return;
  packets_emitted_ += count;
  wire_bytes_emitted_ += wire_total;
  if (obs_.packets_emitted != nullptr) obs_.packets_emitted->Add(count);
  if (obs_.bytes_emitted != nullptr) obs_.bytes_emitted->Add(wire_total);
  if (obs_.bytes_to_clients != nullptr) obs_.bytes_to_clients->Add(wire_down);

  // The whole tick - broadcast burst plus client sends - leaves as one
  // columnar batch: one virtual call per sink instead of one per packet,
  // and columnar consumers read the arrays the tick built directly.
  const net::PacketBatch batch = tick_batch_.View();
  GT_DCHECK(trace::internal::ColumnsPreservePerFlowOrder(batch))
      << "CsServer: tick batch violates per-flow emission-order contract";
  sink_->OnColumns(batch);
  tick_batch_.Clear();
  // One bulk ring Add at the tick timestamp: ring bins are sums, so this
  // matches per-packet adds at one ring walk per tick.
  if (obs_.load_ring != nullptr) obs_.load_ring->Add(t, static_cast<double>(count));
}

void CsServer::HandleAttempt(std::size_t identity, bool /*is_retry*/) {
  if (outages_.active()) return;  // the server is unreachable
  const double t = simulator_->Now();
  ++attempts_;
  if (obs_.attempts != nullptr) obs_.attempts->Add();
  attempted_ids_.insert(identity);
  const net::Ipv4Address ip = IdentityIp(identity);
  const std::uint16_t port = DrawEphemeralPort(rng_);
  Emit(t, net::Direction::kClientToServer, net::PacketKind::kConnectRequest,
       size_model_.HandshakeSize(net::PacketKind::kConnectRequest, rng_), ip, port);
  const double reply_at = t + sim::Uniform(rng_, 1e-3, 5e-3);

  if (static_cast<int>(clients_.size()) >= config_.max_players) {
    ++refused_;
    if (obs_.refused != nullptr) obs_.refused->Add();
    if (obs_.trace != nullptr) obs_.trace->Instant("refuse", "session", t);
    Emit(reply_at, net::Direction::kServerToClient, net::PacketKind::kConnectReject,
         size_model_.HandshakeSize(net::PacketKind::kConnectReject, rng_), ip, port);
    int& retries = retry_counts_[identity];
    if (session_model_->MaybeScheduleRetry(identity, retries)) ++retries;
    return;
  }

  retry_counts_.erase(identity);
  ++established_count_;
  if (obs_.established != nullptr) obs_.established->Add();
  if (obs_.trace != nullptr) obs_.trace->Instant("connect", "session", t);
  established_ids_.insert(identity);
  Emit(reply_at, net::Direction::kServerToClient, net::PacketKind::kConnectAccept,
       size_model_.HandshakeSize(net::PacketKind::kConnectAccept, rng_), ip, port);

  ActiveClient client;
  client.session_id = next_session_id_++;
  client.identity = identity;
  client.ip = ip;
  client.port = port;
  client.profile = DrawProfile(config_.clients, rng_);
  client.joined_at = t;
  client.next_send = t + sim::Uniform(rng_, 0.0, 1.0 / client.profile.update_rate);
  clients_.push_back(client);
  live_sessions_.insert(client.session_id);
  peak_players_ = std::max(peak_players_, static_cast<int>(clients_.size()));
  if (obs_.peak_players != nullptr) obs_.peak_players->SetMax(peak_players_);
  if (obs_.active_players != nullptr) {
    obs_.active_players->Set(static_cast<double>(clients_.size()));
  }

  const double duration = session_model_->DrawSessionDuration(rng_);
  const std::uint64_t session_id = client.session_id;
  simulator_->After(duration, [this, session_id] { Depart(session_id, /*orderly=*/true); });
  downloads_->OnJoin(session_id, ip, port);
}

void CsServer::Depart(std::uint64_t session_id, bool orderly) {
  if (!live_sessions_.erase(session_id)) return;  // already gone (outage)
  const auto it = std::find_if(clients_.begin(), clients_.end(),
                               [session_id](const ActiveClient& c) {
                                 return c.session_id == session_id;
                               });
  if (it == clients_.end()) return;
  if (orderly) {
    ++orderly_disconnects_;
    if (obs_.orderly_disconnects != nullptr) obs_.orderly_disconnects->Add();
    if (obs_.trace != nullptr) {
      obs_.trace->Instant("disconnect", "session", simulator_->Now());
    }
    Emit(simulator_->Now(), net::Direction::kClientToServer, net::PacketKind::kDisconnect,
         size_model_.HandshakeSize(net::PacketKind::kDisconnect, rng_), it->ip, it->port);
  }
  *it = clients_.back();
  clients_.pop_back();
  if (obs_.active_players != nullptr) {
    obs_.active_players->Set(static_cast<double>(clients_.size()));
  }
}

bool CsServer::DisconnectByEndpoint(net::Ipv4Address ip, std::uint16_t port, bool orderly) {
  const auto it = std::find_if(clients_.begin(), clients_.end(), [&](const ActiveClient& c) {
    return c.ip == ip && c.port == port;
  });
  if (it == clients_.end()) return false;
  Depart(it->session_id, orderly);
  return true;
}

void CsServer::OnOutageBegin(double t) {
  outage_began_at_ = t;
  session_model_->Pause();
  // Everyone times out "at identical points in time". No disconnect packets
  // reach the wire - the network is down.
  for (const ActiveClient& c : clients_) {
    const double u = rng_.NextDouble();
    const auto& out = config_.outages;
    if (u < out.immediate_reconnect_fraction) {
      session_model_->ScheduleAttempt(c.identity, out.duration + sim::Uniform(rng_, 2.0, 15.0),
                                      /*is_retry=*/true);
    } else if (u < out.immediate_reconnect_fraction + out.delayed_reconnect_fraction) {
      session_model_->ScheduleAttempt(
          c.identity, out.duration + sim::Exponential(rng_, out.delayed_reconnect_mean),
          /*is_retry=*/true);
    }
  }
  outage_disconnects_ += clients_.size();
  if (obs_.outage_disconnects != nullptr) obs_.outage_disconnects->Add(clients_.size());
  for (const ActiveClient& c : clients_) live_sessions_.erase(c.session_id);
  clients_.clear();
  if (obs_.active_players != nullptr) obs_.active_players->Set(0.0);
  // An injected outage is exactly the kind of event the black box exists
  // for; leave a post-mortem when a dump guard is armed (no-op otherwise).
  obs::DumpFlightNow("outage");
}

void CsServer::OnOutageEnd(double t) {
  if (obs_.trace != nullptr && outage_began_at_ >= 0.0) {
    obs_.trace->Complete("outage", "outage", outage_began_at_, t);
  }
  outage_began_at_ = -1.0;
  session_model_->Resume();
}

void CsServer::OnMapStart(double t) {
  if (obs_.maps_started != nullptr) obs_.maps_started->Add();
  if (obs_.trace != nullptr) {
    // Close the previous map's span; its end is this map's load time.
    if (map_began_at_ >= 0.0) {
      obs_.trace->Complete("map " + std::to_string(current_map_), "map", map_began_at_, t);
    }
    obs_.trace->Instant("map_start", "map", t);
  }
  map_began_at_ = t;
  current_map_ = map_rotation_.maps_played();
  // Connected clients may need the new map's decals.
  for (const ActiveClient& c : clients_) downloads_->OnMapChange(c.session_id, c.ip, c.port);
}

void CsServer::InduceStall(double seconds) {
  stall_until_ = std::max(stall_until_, simulator_->Now() + seconds);
}

void CsServer::Emit(double t, net::Direction direction, net::PacketKind kind,
                    std::uint16_t bytes, net::Ipv4Address ip, std::uint16_t port,
                    std::uint32_t seq) {
  net::PacketRecord record;
  record.timestamp = t;
  record.client_ip = net::Ipv4Address(ip.value() + config_.client_ip_shift);
  record.client_port = port;
  record.app_bytes = bytes;
  record.direction = direction;
  record.kind = kind;
  record.seq = seq;
  ++packets_emitted_;
  const std::uint64_t wire_bytes = net::WireBytes(bytes);
  wire_bytes_emitted_ += wire_bytes;
  if (obs_.packets_emitted != nullptr) obs_.packets_emitted->Add();
  if (obs_.bytes_emitted != nullptr) obs_.bytes_emitted->Add(wire_bytes);
  if (obs_.bytes_to_clients != nullptr && direction == net::Direction::kServerToClient) {
    obs_.bytes_to_clients->Add(wire_bytes);
  }
  if (obs_.load_ring != nullptr) obs_.load_ring->Add(t);
  sink_->OnColumns(net::PacketRow(record).View());
}

CsServer::Stats CsServer::stats() const {
  Stats s;
  s.attempts = attempts_;
  s.established = established_count_;
  s.refused = refused_;
  s.orderly_disconnects = orderly_disconnects_;
  s.outage_disconnects = outage_disconnects_;
  s.unique_attempting = attempted_ids_.size();
  s.unique_establishing = established_ids_.size();
  s.maps_played = map_rotation_.maps_played();
  s.rounds_played = map_rotation_.rounds_played();
  s.peak_players = peak_players_;
  s.ticks = tick_engine_.ticks_fired();
  s.packets_emitted = packets_emitted_;
  s.wire_bytes_emitted = wire_bytes_emitted_;
  s.downloads_started = downloads_->transfers_started();
  return s;
}

}  // namespace gametrace::game
