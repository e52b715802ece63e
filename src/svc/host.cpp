#include "svc/host.hpp"

// Context method bodies (the sealed sim fast path) are inline in
// sim/simulator.hpp; every TU calling them must see the definitions.
#include "sim/simulator.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace snapstab::svc {

namespace {

// FNV-1a over the rendered state values: a stable, pool-independent digest
// for Snapshot session results (the full vector stays inspectable through
// host.snapshot().collected()).
std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

ServiceHost::ServiceHost(HostConfig config) : cfg_(std::move(config)) {
  SNAPSTAB_CHECK_MSG(cfg_.degree >= 1, "a host needs at least one channel");
  if (cfg_.with_me || cfg_.with_election) cfg_.with_idl = true;
  if (cfg_.with_pif) {
    pif_ = std::make_unique<core::Pif>(cfg_.degree, cfg_.channel_capacity);
    if (cfg_.with_idl)
      idl_ = std::make_unique<core::Idl>(cfg_.id, cfg_.degree, *pif_);
    if (cfg_.with_me)
      me_ = std::make_unique<core::Me>(cfg_.id, cfg_.degree, *pif_, *idl_,
                                       cfg_.me_options);
    if (cfg_.with_reset)
      reset_ = std::make_unique<core::Reset>(*pif_, cfg_.on_reset);
    if (cfg_.with_snapshot)
      snapshot_ = std::make_unique<core::Snapshot>(*pif_, cfg_.degree,
                                                   cfg_.local_state);
    if (cfg_.with_termdetect)
      detect_ = std::make_unique<core::TermDetect>(*pif_, cfg_.degree,
                                                   cfg_.app.counters);
    if (cfg_.with_election)
      election_ = std::make_unique<core::Election>(*idl_);
    core::Pif::Callbacks cb;
    cb.on_brd = [this](sim::Context& ctx, int ch, const Value& b) {
      return on_brd(ctx, ch, b);
    };
    cb.on_fck = [this](sim::Context& ctx, int ch, const Value& f) {
      on_fck(ctx, ch, f);
    };
    pif_->set_callbacks(std::move(cb));
  } else {
    SNAPSTAB_CHECK_MSG(!cfg_.with_idl && !cfg_.with_me && !cfg_.with_reset &&
                           !cfg_.with_snapshot && !cfg_.with_termdetect &&
                           !cfg_.with_election,
                       "every PIF-based service needs with_pif");
  }
  if (cfg_.routes != nullptr) {
    SNAPSTAB_CHECK_MSG(cfg_.self >= 0,
                       "the ForwardMsg service needs the host's global id");
    fwd_ = std::make_unique<core::Forward>(cfg_.self, cfg_.degree,
                                           cfg_.routes, cfg_.forward_options);
    // Recording is off until a client submits a ForwardMsg session
    // somewhere in the world (enable_delivery_recording): worlds that only
    // see ghost deliveries keep the zero-allocation delivery path.
    fwd_->set_on_deliver([this](const FwdHeader& h, const Value& payload) {
      if (record_deliveries_)
        deliveries_.push_back(Delivery{h.origin, h.seq & 0xFFFFFu, payload});
    });
  }
  SNAPSTAB_CHECK_MSG(pif_ != nullptr || fwd_ != nullptr,
                     "a host must serve at least one service");
}

ServiceHost::~ServiceHost() = default;

ServiceHost::SessionRec* ServiceHost::find(std::uint32_t seq) {
  if (seq == cache_seq_ && slots_[cache_slot_].seq == seq)
    return &slots_[cache_slot_];
  const auto it = by_seq_.find(seq);
  if (it == by_seq_.end()) return nullptr;
  cache_seq_ = seq;
  cache_slot_ = it->second;
  return &slots_[it->second];
}

const ServiceHost::SessionRec* ServiceHost::find(std::uint32_t seq) const {
  return const_cast<ServiceHost*>(this)->find(seq);
}

std::uint64_t ServiceHost::desc_hash(const Descriptor& d) {
  // FNV-1a over exactly what Descriptor::operator== compares. Text payloads
  // mix the resolved string, not the (StrId, pool-tag) pair: two descriptors
  // holding the same text interned into different pools compare equal, so
  // they must hash equal too.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(d.service));
  mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(d.dst)));
  const Value& v = d.payload;
  if (v.is_int()) {
    mix(1);
    mix(static_cast<std::uint64_t>(v.as_int()));
  } else if (v.is_token()) {
    mix(2);
    mix(static_cast<std::uint64_t>(v.as_token()));
  } else if (v.is_text()) {
    mix(3);
    h = fnv1a(h, v.as_text());
  } else {
    mix(0);
  }
  return h;
}

std::uint32_t ServiceHost::alloc_slot(SessionRec&& rec) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(rec);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(rec));
  }
  by_seq_.emplace(slots_[slot].seq, slot);
  return slot;
}

core::RequestState ServiceHost::layer_state(ServiceId s) const {
  switch (s) {
    case ServiceId::PifBroadcast: return pif_->request_state();
    case ServiceId::Idl: return idl_->request_state();
    case ServiceId::Election: return election_->request_state();
    case ServiceId::CriticalSection: return me_->request_state();
    case ServiceId::Reset: return reset_->request_state();
    case ServiceId::Snapshot: return snapshot_->request_state();
    case ServiceId::TermDetect: return detect_->request_state();
    case ServiceId::ForwardMsg: return core::RequestState::In;  // client-run
  }
  return core::RequestState::Done;
}

bool ServiceHost::service_available(ServiceId s) const {
  if (s == ServiceId::ForwardMsg) return fwd_ != nullptr;
  // An ME host's phase cycle drives IDL and PIF autonomously; only the CS
  // service may share that stack.
  if (me_ != nullptr) return s == ServiceId::CriticalSection;
  switch (s) {
    case ServiceId::PifBroadcast: return pif_ != nullptr;
    case ServiceId::Idl: return idl_ != nullptr;
    case ServiceId::Election: return election_ != nullptr;
    case ServiceId::CriticalSection: return false;  // needs me_
    case ServiceId::Reset: return reset_ != nullptr;
    case ServiceId::Snapshot: return snapshot_ != nullptr;
    case ServiceId::TermDetect: return detect_ != nullptr;
    case ServiceId::ForwardMsg: return fwd_ != nullptr;
  }
  return false;
}

template <typename EmitFn>
void ServiceHost::start(SessionRec& rec, const EmitFn& emit) {
  // Sets Request := Wait on the serving layer and records the request event
  // (the layer/peer/value the spec checkers match Start events against).
  switch (rec.desc.service) {
    case ServiceId::PifBroadcast:
      pif_->request(rec.desc.payload);
      emit(sim::Layer::Pif, sim::ObsKind::RequestWait, -1, rec.desc.payload);
      break;
    case ServiceId::Idl:
      idl_->request();
      emit(sim::Layer::Idl, sim::ObsKind::RequestWait, -1, Value::none());
      break;
    case ServiceId::Election:
      election_->request();
      emit(sim::Layer::Idl, sim::ObsKind::RequestWait, -1, Value::none());
      break;
    case ServiceId::CriticalSection: {
      const bool accepted = me_->request_cs();
      SNAPSTAB_CHECK_MSG(accepted, "CS session started while ME not Done");
      emit(sim::Layer::Me, sim::ObsKind::RequestWait, -1, Value::none());
      break;
    }
    case ServiceId::Reset:
      reset_->request();
      emit(sim::Layer::Service, sim::ObsKind::RequestWait, -1,
           Value::token(Token::Reset));
      break;
    case ServiceId::Snapshot:
      snapshot_->request();
      emit(sim::Layer::Service, sim::ObsKind::RequestWait, -1,
           Value::token(Token::SnapQuery));
      break;
    case ServiceId::TermDetect:
      detect_->request();
      emit(sim::Layer::Service, sim::ObsKind::RequestWait, -1,
           Value::token(Token::Probe));
      break;
    case ServiceId::ForwardMsg:
      SNAPSTAB_CHECK_MSG(false, "ForwardMsg sessions never start here");
      break;
  }
  rec.phase = SessionRec::Phase::Active;
}

void ServiceHost::complete(SessionRec& rec) {
  rec.phase = SessionRec::Phase::Done;
  rec.result.completed = true;
  switch (rec.desc.service) {
    case ServiceId::PifBroadcast:
      rec.result.value = rec.desc.payload;
      break;
    case ServiceId::Idl:
      rec.result.min_id = idl_->min_id();
      break;
    case ServiceId::Election:
      rec.result.min_id = election_->leader();
      rec.result.rank = election_->rank();
      break;
    case ServiceId::CriticalSection:
      rec.result.cs_granted = true;
      break;
    case ServiceId::Reset:
      break;
    case ServiceId::Snapshot: {
      std::uint64_t h = 14695981039346656037ull;
      h = fnv1a(h, snapshot_->own_state().to_string());
      for (const Value& v : snapshot_->collected()) h = fnv1a(h, v.to_string());
      rec.result.value = Value::integer(static_cast<std::int64_t>(h));
      break;
    }
    case ServiceId::TermDetect:
      rec.result.termination_claimed = detect_->termination_claimed();
      rec.result.waves = detect_->waves_used();
      break;
    case ServiceId::ForwardMsg:
      rec.result.value = rec.desc.payload;  // the delivery ack
      break;
  }
  if (rec.on_complete) {
    // Fire last, on copies: the callback may submit or release sessions,
    // invalidating `rec`.
    auto cb = std::move(rec.on_complete);
    rec.on_complete = nullptr;
    const SessionKey key{origin_, rec.desc.service, rec.seq};
    const SessionResult result = rec.result;
    cb(key, result);
  }
}

void ServiceHost::poll_sessions(sim::Context& ctx) {
  if (stack_active_ < 0 && pending_n_ == 0) return;
  if (stack_active_ >= 0) {
    SessionRec* rec = find(static_cast<std::uint32_t>(stack_active_));
    if (rec == nullptr) {
      stack_active_ = -1;  // released mid-flight
    } else if (layer_state(rec->desc.service) == core::RequestState::Done) {
      stack_active_ = -1;
      complete(*rec);
    }
  }
  // Start the next queued session as soon as the stack is idle and its
  // layer has drained (ghost computations from a corrupted initial
  // configuration run to Done on their own first).
  while (stack_active_ < 0 && !pending_.empty()) {
    const std::uint32_t seq = pending_.front();
    SessionRec* rec = find(seq);
    if (rec == nullptr) {  // released while queued
      pending_.pop_front();
      --pending_n_;
      continue;
    }
    if (layer_state(rec->desc.service) != core::RequestState::Done) break;
    pending_.pop_front();
    --pending_n_;
    // The session leaves the Queued phase: drop its coalescing-index entry
    // so a later identical submit queues fresh instead of joining an
    // already-running computation.
    const auto range = queued_by_desc_.equal_range(desc_hash(rec->desc));
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == seq) {
        queued_by_desc_.erase(it);
        break;
      }
    }
    start(*rec, [&ctx](sim::Layer l, sim::ObsKind k, int peer,
                       const Value& v) { ctx.observe(l, k, peer, v); });
    stack_active_ = rec->seq;
  }
}

ServiceHost::Submitted ServiceHost::submit(sim::ProcessId origin,
                                           const Descriptor& d,
                                           CompletionFn on_complete,
                                           const Emit& emit) {
  SNAPSTAB_CHECK_MSG(origin_ < 0 || origin_ == origin,
                     "a host serves exactly one origin process");
  origin_ = origin;
  SNAPSTAB_CHECK_MSG(service_available(d.service),
                     "service not configured on this host");

  Submitted out;
  out.key = SessionKey{origin, d.service, next_session_};

  if (d.service == ServiceId::ForwardMsg) {
    SessionRec rec;
    rec.seq = next_session_++;
    rec.desc = d;
    rec.wire_seq = fwd_->next_wire_seq();
    rec.on_complete = std::move(on_complete);
    const core::ForwardSubmit admission = fwd_->submit(d.payload, d.dst);
    rec.result.admission = admission;
    out.admission = admission;
    if (admission != core::ForwardSubmit::Accepted)
      ++degrade_.refusals_by_reason[static_cast<std::size_t>(admission)];
    out.wire_seq = rec.wire_seq;
    if (admission == core::ForwardSubmit::Accepted) {
      rec.phase = SessionRec::Phase::Active;
      emit(sim::Layer::Service, sim::ObsKind::FwdSubmit, d.dst, d.payload);
      alloc_slot(std::move(rec));
    } else {
      // Born Done with the refusal reason; completed stays false. The
      // callback fires on locals, never on the stored record: it may
      // reentrantly submit (reallocating the slot arena) or release.
      rec.phase = SessionRec::Phase::Done;
      CompletionFn cb = std::move(rec.on_complete);
      rec.on_complete = nullptr;
      const SessionResult result = rec.result;
      alloc_slot(std::move(rec));
      if (cb) cb(out.key, result);
    }
    return out;
  }

  // Duplicate-submit coalescing: an identical descriptor already queued is
  // the same pending request — return its key instead of queuing twice. The
  // new caller's callback still fires: it is chained onto the twin's. The
  // lookup is by descriptor hash (coalescing keeps at most one queued
  // session per distinct descriptor, so any surviving match is THE twin);
  // the historic scan over pending_ made queueing C sessions O(C^2).
  const std::uint64_t dh = desc_hash(d);
  const auto range = queued_by_desc_.equal_range(dh);
  for (auto it = range.first; it != range.second; ++it) {
    SessionRec* queued = find(it->second);
    if (queued == nullptr || queued->phase != SessionRec::Phase::Queued)
      continue;  // stale entry (hash collision with a since-started session)
    if (queued->desc != d) continue;  // hash collision, different descriptor
    out.key.seq = queued->seq;
    out.coalesced = true;
    if (on_complete) {
      if (queued->on_complete) {
        queued->on_complete =
            [first = std::move(queued->on_complete),
             second = std::move(on_complete)](const SessionKey& k,
                                              const SessionResult& r) {
              first(k, r);
              second(k, r);
            };
      } else {
        queued->on_complete = std::move(on_complete);
      }
    }
    return out;
  }

  SessionRec rec;
  rec.seq = next_session_++;
  rec.desc = d;
  rec.on_complete = std::move(on_complete);
  const std::uint32_t seq = rec.seq;
  const bool start_now = stack_active_ < 0 && pending_n_ == 0 &&
                         layer_state(d.service) == core::RequestState::Done;
  const std::uint32_t slot = alloc_slot(std::move(rec));
  if (start_now) {
    start(slots_[slot], emit);
    stack_active_ = seq;
  } else {
    pending_.push_back(seq);
    ++pending_n_;
    queued_by_desc_.emplace(dh, seq);
  }
  return out;
}

SessionState ServiceHost::session_state(std::uint32_t seq) const {
  const SessionRec* rec = find(seq);
  if (rec == nullptr) return SessionState::Done;  // released == forgotten
  switch (rec->phase) {
    case SessionRec::Phase::Queued: return SessionState::Wait;
    case SessionRec::Phase::Done: return SessionState::Done;
    case SessionRec::Phase::Active: {
      if (rec->desc.service == ServiceId::ForwardMsg) return SessionState::In;
      const core::RequestState ls = layer_state(rec->desc.service);
      // Layer already Done but the completion poll has not run yet (a
      // supervising thread glimpsing between activations): still In.
      return ls == core::RequestState::Done ? SessionState::In : ls;
    }
  }
  return SessionState::Done;
}

SessionResult ServiceHost::session_result(std::uint32_t seq) const {
  const SessionRec* rec = find(seq);
  return rec != nullptr ? rec->result : SessionResult{};
}

void ServiceHost::release_session(std::uint32_t seq) {
  const auto it = by_seq_.find(seq);
  if (it == by_seq_.end()) return;
  const std::uint32_t slot = it->second;
  if (slots_[slot].phase != SessionRec::Phase::Done) return;
  // Reset the record (dropping payload Values and any completion closure)
  // and push the slot onto the free list — LIFO, so a submit/release
  // recycling loop keeps touching the same hot slots.
  slots_[slot] = SessionRec{};
  by_seq_.erase(it);
  free_.push_back(slot);
  // The freed record's seq resets to 0 — a real session id — so a stale
  // cache entry for it must not survive the release.
  if (cache_seq_ == seq) cache_seq_ = kNoSession;
}

void ServiceHost::take_deliveries(std::vector<Delivery>& out) {
  out.insert(out.end(), std::make_move_iterator(deliveries_.begin()),
             std::make_move_iterator(deliveries_.end()));
  deliveries_.clear();
}

bool ServiceHost::consume_delivery(sim::ProcessId origin,
                                   std::uint32_t wire_seq,
                                   const Value& payload) {
  for (auto it = deliveries_.begin(); it != deliveries_.end(); ++it) {
    if (it->origin == origin && it->wire_seq == wire_seq &&
        it->payload == payload) {
      deliveries_.erase(it);
      return true;
    }
  }
  return false;
}

void ServiceHost::finish_forward(std::uint32_t seq) {
  SessionRec* rec = find(seq);
  if (rec == nullptr || rec->phase != SessionRec::Phase::Active) return;
  complete(*rec);
}

void ServiceHost::on_tick(sim::Context& ctx) {
  if (me_ != nullptr) {
    // The historic MeStackProcess discipline: a process inside its critical
    // section executes nothing else (the CS sits inside atomic action A3).
    if (me_->in_cs()) {
      me_->tick(ctx);
      poll_sessions(ctx);
      return;
    }
    me_->tick(ctx);
    if (!me_->in_cs()) {  // A3 may just have entered the CS
      idl_->tick(ctx);
      pif_->tick(ctx);
    }
    if (fwd_ != nullptr) fwd_->tick(ctx);
    poll_sessions(ctx);
    return;
  }
  if (cfg_.unsafe_lower_layer_first && idl_ != nullptr) {
    // Ablation only: reopens the ghost-feedback window that the upper-first
    // order below closes (ablation B of bench/exp_ablation.cpp; regression
    // Idl.GhostFeedbackInTheStartWindowCannotPoisonMinId).
    pif_->tick(ctx);
    idl_->tick(ctx);
    poll_sessions(ctx);
    return;
  }
  // Upper layers before PIF: a sub-protocol request submitted during this
  // activation starts within the same atomic step, exactly as the paper's
  // activation semantics prescribes (see the historic stack.cpp comment).
  if (reset_ != nullptr) reset_->tick(ctx);
  if (snapshot_ != nullptr) snapshot_->tick(ctx);
  if (detect_ != nullptr) detect_->tick(ctx);
  if (idl_ != nullptr) idl_->tick(ctx);
  if (pif_ != nullptr) pif_->tick(ctx);
  if (cfg_.app.on_tick) cfg_.app.on_tick(ctx);
  if (fwd_ != nullptr) fwd_->tick(ctx);
  poll_sessions(ctx);
}

void ServiceHost::on_message(sim::Context& ctx, int ch, const Message& m) {
  switch (m.kind) {
    case MsgKind::Pif:
      if (pif_ != nullptr) pif_->handle_message(ctx, ch, m);
      break;
    case MsgKind::FwdData:
    case MsgKind::FwdEcho:
      if (fwd_ != nullptr) fwd_->handle_message(ctx, ch, m);
      break;
    case MsgKind::App:
      if (cfg_.app.on_message) cfg_.app.on_message(ctx, ch, m.b);
      break;
    case MsgKind::NaiveBrd:
    case MsgKind::NaiveFck:
    case MsgKind::SeqBrd:
    case MsgKind::SeqFck:
      break;  // baseline traffic: not ours, ignored
  }
  poll_sessions(ctx);
}

bool ServiceHost::tick_enabled() const {
  if (pif_ != nullptr && pif_->tick_enabled()) return true;
  if (idl_ != nullptr && idl_->tick_enabled()) return true;
  if (me_ != nullptr && me_->tick_enabled()) return true;
  if (reset_ != nullptr && reset_->tick_enabled()) return true;
  if (snapshot_ != nullptr && snapshot_->tick_enabled()) return true;
  if (detect_ != nullptr && detect_->tick_enabled()) return true;
  if (cfg_.app.has_work && cfg_.app.has_work()) return true;
  if (fwd_ != nullptr && fwd_->tick_enabled()) return true;
  return pending_n_ > 0;
}

void ServiceHost::randomize(Rng& rng) {
  // Protocol layers only, in the historic wrapper order (pinned draw
  // streams); session records are driver-side application state.
  if (pif_ != nullptr) pif_->randomize(rng);
  if (idl_ != nullptr) idl_->randomize(rng);
  if (me_ != nullptr) me_->randomize(rng);
  if (reset_ != nullptr) reset_->randomize(rng);
  if (snapshot_ != nullptr) snapshot_->randomize(rng);
  if (detect_ != nullptr) detect_->randomize(rng);
  if (fwd_ != nullptr) fwd_->randomize(rng);
}

void ServiceHost::crash_restart(Rng& rng) {
  randomize(rng);
  ++degrade_.crashes;
  // Fail every live session. All host bookkeeping is mutated BEFORE any
  // callback fires: a completion callback may reentrantly submit or release,
  // reallocating the slot arena mid-iteration.
  struct Killed {
    CompletionFn cb;
    SessionKey key;
    SessionResult result;
  };
  std::vector<Killed> killed;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    SessionRec& rec = slots_[slot];
    const auto it = by_seq_.find(rec.seq);
    if (it == by_seq_.end() || it->second != slot) continue;  // free slot
    if (rec.phase == SessionRec::Phase::Done) continue;
    rec.phase = SessionRec::Phase::Done;
    rec.result.completed = false;
    ++degrade_.sessions_killed;
    if (rec.on_complete) {
      Killed k;
      k.cb = std::move(rec.on_complete);
      rec.on_complete = nullptr;
      k.key = SessionKey{origin_, rec.desc.service, rec.seq};
      k.result = rec.result;
      killed.push_back(std::move(k));
    }
  }
  pending_.clear();
  pending_n_ = 0;
  queued_by_desc_.clear();
  stack_active_ = -1;
  deliveries_.clear();
  for (Killed& k : killed) k.cb(k.key, k.result);
}

Value ServiceHost::on_brd(sim::Context& ctx, int ch, const Value& b) {
  // A received broadcast payload selects the receive-brd handler of the
  // layer it names; unclaimed payloads fall to the application hook, then
  // to a polite OK (ghost broadcasts must be acknowledged).
  switch (b.as_token(Token::Ok)) {
    case Token::IdlQuery:
      if (idl_ != nullptr) return idl_->on_brd(ctx, ch);
      break;
    case Token::Ask:
      if (me_ != nullptr) return me_->on_brd_ask(ctx, ch);
      break;
    case Token::Exit:
      if (me_ != nullptr) return me_->on_brd_exit(ctx, ch);
      break;
    case Token::ExitCs:
      if (me_ != nullptr) return me_->on_brd_exitcs(ctx, ch);
      break;
    case Token::Reset:
      if (reset_ != nullptr) return reset_->on_brd(ctx, ch);
      break;
    case Token::SnapQuery:
      if (snapshot_ != nullptr) return snapshot_->on_brd(ctx, ch);
      break;
    case Token::Probe:
      if (detect_ != nullptr) return detect_->on_brd(ctx, ch);
      break;
    default:
      break;
  }
  if (cfg_.app_brd) return cfg_.app_brd(ctx, ch, b);
  return Value::token(Token::Ok);
}

void ServiceHost::on_fck(sim::Context& ctx, int ch, const Value& f) {
  // A feedback is routed by the process's own current B-Mes: receive-fck
  // events only concern the process's own computation.
  switch (pif_->b_mes().as_token(Token::Ok)) {
    case Token::IdlQuery:
      if (idl_ != nullptr) idl_->on_fck(ctx, ch, f);
      break;
    case Token::Ask:
      if (me_ != nullptr) me_->on_fck_ask(ctx, ch, f);
      break;
    case Token::SnapQuery:
      if (snapshot_ != nullptr) snapshot_->on_fck(ctx, ch, f);
      break;
    case Token::Probe:
      if (detect_ != nullptr) detect_->on_fck(ctx, ch, f);
      break;
    default:
      break;  // EXIT / EXITCS / ghost feedbacks: do nothing
  }
}

std::unique_ptr<sim::Simulator> service_world(
    sim::Topology topology, std::size_t channel_capacity, std::uint64_t seed,
    const std::function<HostConfig(sim::ProcessId)>& config_of,
    bool with_forward, core::ForwardOptions forward_options) {
  auto sim = std::make_unique<sim::Simulator>(std::move(topology),
                                              channel_capacity, seed);
  std::shared_ptr<const sim::RoutingTable> routes;
  if (with_forward)
    routes = std::make_shared<const sim::RoutingTable>(sim->topology());
  forward_options.channel_capacity = static_cast<int>(channel_capacity);
  for (sim::ProcessId p = 0; p < sim->process_count(); ++p) {
    HostConfig cfg = config_of ? config_of(p) : HostConfig{};
    cfg.degree = sim->topology().degree(p);
    cfg.channel_capacity = static_cast<int>(channel_capacity);
    cfg.self = p;
    if (with_forward) {
      cfg.routes = routes;
      cfg.forward_options = forward_options;
    }
    sim->add_process(std::make_unique<ServiceHost>(std::move(cfg)));
  }
  return sim;
}

}  // namespace snapstab::svc
